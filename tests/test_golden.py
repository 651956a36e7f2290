"""Golden CLI reports: ten pipelines must print byte-identical JSON.

The files under ``tests/golden/`` were written by this module's
``__main__`` from a known-good tree; a change that is meant to keep
behaviour must keep every byte.  So must the ``--help`` texts of the
parser and its eight commands, pinned in ``help.txt`` at 100 columns.  Input files are written to the working
directory and named relatively, so the reports hold no machine paths.
Regenerate (only for an intended output change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from poissonhopf.cli import main

GOLDEN = Path(__file__).parent / "golden"

INPUTS = {
    "trig_hopf_artifact.json": {
        "construct": "free-hopf", "spec": "builtin:trig", "degree": 3, "stages": 2,
    },
    "matrix2_induce_artifact.json": {
        "construct": "induce", "spec": "builtin:matrix-2", "degree": 3,
    },
    "trig_grouplike2_coproduct_artifact.json": {
        "construct": "coproduct", "spec": ["builtin:trig", "builtin:grouplike-2"], "degree": 2,
    },
    "map_g1.json": {"source_spec": "builtin:grouplike-1", "images": {"g": "g1"}},
    "map_g2.json": {"source_spec": "builtin:grouplike-1", "images": {"g": "g2"}},
}

CASES = {
    "free_hopf_trig": ["free-hopf", "builtin:trig", "--stages", "2", "--degree", "3"],
    # the benchmark's laurent shape: a nearly full-rank ideal
    "free_hopf_grouplike1_m4": [
        "free-hopf", "builtin:grouplike-1", "--stages", "4", "--degree", "4",
    ],
    # the benchmark's coideal shape: a sparse ideal
    "free_hopf_grouplike2_m2": [
        "free-hopf", "builtin:grouplike-2", "--stages", "2", "--degree", "4",
    ],
    # three stages, where the pivot order decides where S is defined
    "free_hopf_trig_m3": ["free-hopf", "builtin:trig", "--stages", "3", "--degree", "3"],
    "induce_matrix2": ["induce", "builtin:matrix-2", "--degree", "3"],
    "coproduct_trig_grouplike2": [
        "coproduct", "builtin:trig", "builtin:grouplike-2", "--degree", "3",
    ],
    "verify_trig_hopf": ["verify", "trig_hopf_artifact.json", "--laws", "all"],
    "verify_induce_matrix2": ["verify", "matrix2_induce_artifact.json", "--laws", "all"],
    "verify_coproduct_trig_grouplike2": [
        "verify", "trig_grouplike2_coproduct_artifact.json", "--laws", "all",
    ],
    "coequalize_grouplike2": [
        "coequalize", "builtin:grouplike-2", "--map", "map_g1.json",
        "--map", "map_g2.json", "--degree", "4",
    ],
}


COMMANDS = ("validate", "induce", "eval", "coproduct", "coequalize", "free-hopf", "verify", "dims")


def write_inputs(directory: Path) -> None:
    for name, obj in INPUTS.items():
        (directory / name).write_text(json.dumps(obj) + "\n")


def run_case(argv) -> tuple:
    out = StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def help_text() -> str:
    """The top-level ``--help`` and each command's, under a ``$ poissonhopf ...`` header."""
    parts = []
    for argv in ([], *([command] for command in COMMANDS)):
        out = StringIO()
        with redirect_stdout(out):
            try:
                main([*argv, "--help"])
            except SystemExit as e:
                assert e.code == 0
        parts.append(" ".join(["$ poissonhopf", *argv, "--help"]) + "\n" + out.getvalue())
    return "\n".join(parts)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name, tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, text = run_case(CASES[name])
    assert code == 0
    assert text == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")


def test_help_texts_match_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    assert help_text() == (GOLDEN / "help.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    os.environ["COLUMNS"] = "100"
    (GOLDEN / "help.txt").write_text(help_text(), encoding="utf-8")
    here = Path.cwd()
    scratch = GOLDEN / "_inputs"
    scratch.mkdir(exist_ok=True)
    write_inputs(scratch)
    os.chdir(scratch)
    try:
        for name, argv in sorted(CASES.items()):
            code, text = run_case(argv)
            if code != 0:
                sys.exit(f"{name}: exit {code}")
            (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
    finally:
        os.chdir(here)
        for name in INPUTS:
            (scratch / name).unlink()
        scratch.rmdir()
