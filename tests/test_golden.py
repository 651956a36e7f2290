"""Golden CLI runs: eighteen invocations must keep their stdout, stderr and exit code.

The files under ``tests/golden/`` were written by this module's
``__main__`` from a known-good tree; a change that is meant to keep
behaviour must keep every byte.  A case's stdout is ``<case>.json`` (no
file: it prints nothing), and ``streams.json`` holds every case's exit
code and stderr, so a refusal is pinned as closely as a report.  So must
the ``--help`` texts of the parser and its eight commands, pinned in
``help.txt`` at 100 columns.  Input files are written to the working
directory and named relatively, so no output holds a machine path.
Regenerate (only for an intended output change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from poissonhopf.cli import main

GOLDEN = Path(__file__).parent / "golden"

INPUTS = {
    "trig_hopf_artifact.json": {
        "construct": "free-hopf", "spec": "builtin:trig", "degree": 3, "stages": 2,
    },
    "trig_hopf_m3_artifact.json": {
        "construct": "free-hopf", "spec": "builtin:trig", "degree": 3, "stages": 3,
    },
    "matrix2_induce_artifact.json": {
        "construct": "induce", "spec": "builtin:matrix-2", "degree": 3,
    },
    "trig_grouplike2_coproduct_artifact.json": {
        "construct": "coproduct", "spec": ["builtin:trig", "builtin:grouplike-2"], "degree": 2,
    },
    "map_g1.json": {"source_spec": "builtin:grouplike-1", "images": {"g": "g1"}},
    "map_g2.json": {"source_spec": "builtin:grouplike-1", "images": {"g": "g2"}},
    "map_c.json": {"source_spec": "builtin:grouplike-1", "images": {"g": "c"}},
    "map_partial.json": {"source_spec": "builtin:grouplike-2", "images": {"g1": "g1"}},
    "map_cube.json": {"source_spec": "builtin:grouplike-1", "images": {"g": "g1*g1*g1"}},
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
    # S at three stages, on every class and every pair of classes
    "verify_trig_hopf_m3": ["verify", "trig_hopf_m3_artifact.json", "--laws", "antipode"],
    "verify_induce_matrix2": ["verify", "matrix2_induce_artifact.json", "--laws", "all"],
    "verify_coproduct_trig_grouplike2": [
        "verify", "trig_grouplike2_coproduct_artifact.json", "--laws", "all",
    ],
    "coequalize_grouplike2": [
        "coequalize", "builtin:grouplike-2", "--map", "map_g1.json",
        "--map", "map_g2.json", "--degree", "4",
    ],
    "free_hopf_trig_n5": ["free-hopf", "builtin:trig", "--stages", "2", "--degree", "5"],
    "free_hopf_matrix2_n4": ["free-hopf", "builtin:matrix-2", "--stages", "2", "--degree", "4"],
    # refusals: c is not group-like (exit 3), g2 has no image (exit 3), one map file (exit 2),
    # an image above the budget (exit 4), and an expression above it (exit 4)
    "coequalize_not_grouplike": [
        "coequalize", "builtin:trig", "--map", "map_c.json", "--map", "map_c.json", "--degree", "3",
    ],
    "coequalize_missing_image": [
        "coequalize", "builtin:grouplike-2", "--map", "map_partial.json",
        "--map", "map_partial.json", "--degree", "3",
    ],
    "coequalize_one_map": ["coequalize", "builtin:grouplike-2", "--map", "map_g1.json", "--degree", "4"],
    "coequalize_image_above_budget": [
        "coequalize", "builtin:grouplike-2", "--map", "map_cube.json",
        "--map", "map_cube.json", "--degree", "2",
    ],
    "eval_above_budget": ["eval", "builtin:trig", "{c,{c,{c,{c,s}}}}", "--degree", "2"],
}


COMMANDS = ("validate", "induce", "eval", "coproduct", "coequalize", "free-hopf", "verify", "dims")


def write_inputs(directory: Path) -> None:
    for name, obj in INPUTS.items():
        (directory / name).write_text(json.dumps(obj) + "\n")


def run_case(argv) -> tuple:
    """Exit code, stdout and stderr of one in-process run."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def streams() -> dict:
    return json.loads((GOLDEN / "streams.json").read_text(encoding="utf-8"))


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
    code, out, err = run_case(CASES[name])
    stdout = GOLDEN / f"{name}.json"
    assert out == (stdout.read_text(encoding="utf-8") if stdout.exists() else "")
    assert {"exit": code, "stderr": err} == streams()[name]


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
    pinned = {}
    try:
        for name, argv in sorted(CASES.items()):
            code, out, err = run_case(argv)
            pinned[name] = {"exit": code, "stderr": err}
            if out:
                (GOLDEN / f"{name}.json").write_text(out, encoding="utf-8")
        text = json.dumps(pinned, indent=2, sort_keys=True) + "\n"
        (GOLDEN / "streams.json").write_text(text, encoding="utf-8")
    finally:
        os.chdir(here)
        for name in INPUTS:
            (scratch / name).unlink()
        scratch.rmdir()
