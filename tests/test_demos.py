"""The narrative demo scripts stay runnable and print their pinned output.

Each script's stdout must match ``tests/golden/demos/<script>.txt`` byte
for byte; the files were written by running each demo as a script, and a
demo prints the same bytes under any hash seed.
"""

import pathlib
import runpy

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "demos"


@pytest.mark.parametrize("script", sorted(DEMO_DIR.glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN / f"{script.stem}.txt").read_bytes()
