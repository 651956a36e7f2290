"""Tests of the benchmark itself; run with ``python3 -m pytest bench``.

The smoke runs take every workload at the shortest run length, in both
modes, and take a few minutes in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "fail_ratio   0.0000" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("base", sorted(inputs.BASE_COALGEBRAS))
def test_every_twist_is_a_coalgebra(base):
    for i, j in ((0, 1), (1, 0)):
        for sign in (1, -1):
            assert inputs.coalgebra_violations(*inputs.twist(base, i, j, sign)) == []


def test_law_check_catches_a_broken_coalgebra():
    basis, delta, epsilon = inputs.twist("trig", 0, 1, 1)
    delta = dict(delta, s={("s", "s"): 1})
    assert inputs.coalgebra_violations(basis, delta, epsilon)


def test_same_seed_same_inputs(tmp_path):
    first = inputs.generate(tmp_path / "a", 5)
    second = inputs.generate(tmp_path / "b", 5)
    assert first == second
    for name in ("grouplike2_twist0.json", "trig_twist1.json", "map_g1.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_reference_prints_its_checksum():
    assert reference.main() == reference.CHECKSUM
