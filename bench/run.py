"""Benchmark of the poissonhopf package: certified constructions end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see bench/README.md for why):

    laurent   free_poisson_hopf(grouplike-1, M=4, N=4) + verify_antipode
    coideal   the same at M=2, N=4 on grouplike-2, its four seeded twists
              and trig
    cli-mix   one pass of the five command-line pipelines (coproduct twice,
              on the seeded twist of trig and its mirror)

Load model: a closed loop with one client.  A pass runs the workload's
operations one after another, each in a fresh interpreter so the package's
process-wide memo tables start cold, as they do for a command-line user.
Passes repeat while another pass brings the run's length nearer to S
seconds; a pass is never cut short, so every operation of the workload
weighs the same in each run.  Wall time,
CPU time and peak RSS of each child come from ``os.wait4``.

The host is shared and its speed drifts by tens of percent over seconds to
minutes, so a fixed reference program (``bench/reference.py``) runs in its
own interpreter before the first operation and after every operation.  Each
operation's wall time is divided by the mean wall time of the two reference
runs around it, and ``op_rel`` summarizes these ratios.  Raw wall times
are printed and recorded too.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate, and the last line holds
the per-layer metrics of the traced operations (per operation) plus the
tracing overhead.  Every operation's output is checked against facts known
independently of the program; each run also writes its full record, with
report hashes and size counters, to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import inputs
import reference

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PACKAGE_DIR = ROOT / "src" / "poissonhopf"
OUT = ROOT / ".bench_out"
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference.py"

SETUP_SAMPLES = 11
HARD_LIMIT_S = 170.0  # a run must end within 180 s


@dataclass
class Op:
    """One operation: a library pipeline (``hopf``) or a CLI command."""

    name: str
    kind: str  # "hopf" or "cli"
    args: list
    report: Path
    oracle: object  # (report obj, pass results by op name) -> list of problems


# ---- oracles: only facts known independently of the program -----------------


def count_checked(obj) -> int:
    if isinstance(obj, dict):
        return sum(v if k == "checked" and isinstance(v, int) else count_checked(v) for k, v in obj.items())
    if isinstance(obj, list):
        return sum(count_checked(v) for v in obj)
    return 0


def violations(obj) -> list:
    if isinstance(obj, list):
        return [v for sub in obj for v in violations(sub)]
    if not isinstance(obj, dict):
        return []
    own = obj.get("violations")
    own = own if isinstance(own, list) else []
    return own + [v for k, sub in obj.items() if k != "violations" for v in violations(sub)]


def expect(label, got, want) -> list:
    return [] if got == want else [f"{label} {got} != {want}"]


def no_violations(obj, _pass) -> list:
    problems = [f"violation {v.get('law')}" for v in violations(obj)]
    if count_checked(obj) == 0:
        problems.append("no residual was checked")
    return problems


def laurent_dims(obj, _pass) -> list:
    # grouplike-1 gives Laurent polynomials: 2d+1 classes up to degree d
    n = len(obj["filtration_dims"]) - 1
    return no_violations(obj, _pass) + expect(
        "filtration_dims", obj["filtration_dims"], [2 * d + 1 for d in range(n + 1)]
    )


def same_dims_as(reference: str):
    # an isomorphic coalgebra yields equal graded dimensions
    def oracle(obj, pass_results) -> list:
        ref = pass_results.get(reference)
        if ref is None:
            return no_violations(obj, pass_results) + [f"no {reference} result to compare"]
        return no_violations(obj, pass_results) + expect("graded_dims", obj["graded_dims"], ref["graded_dims"])

    return oracle


def free_dims(generators: int):
    # the free Poisson algebra on n generators has n^d monomials of degree d
    def oracle(obj, _pass) -> list:
        n = len(obj["graded_dims"]) - 1
        return no_violations(obj, _pass) + expect(
            "graded_dims", obj["graded_dims"], [generators ** d for d in range(n + 1)]
        )

    return oracle


def all_laws(obj, _pass) -> list:
    want = ["antipode", "coassociativity", "counit", "jacobi", "leibniz", "poisson-compat"]
    return no_violations(obj, _pass) + expect("laws", sorted(obj.get("laws", {})), want)


# ---- workloads ---------------------------------------------------------------


def build_workload(name: str, work: Path) -> list:
    def hopf(op_name, spec, stages, degree, oracle):
        report = work / f"{op_name}.json"
        return Op(op_name, "hopf", [str(report), spec, str(stages), str(degree)], report, oracle)

    def cli(op_name, args, oracle):
        report = work / f"{op_name}.json"
        return Op(op_name, "cli", args + ["--out", str(report)], report, oracle)

    if name == "laurent":
        return [hopf("grouplike-1", "builtin:grouplike-1", 4, 4, laurent_dims)]
    if name == "coideal":
        return [
            hopf("grouplike-2", "builtin:grouplike-2", 2, 4, no_violations),
            *(hopf(f"grouplike-2-twist{k}", str(work / f"grouplike2_twist{k}.json"), 2, 4,
                   same_dims_as("grouplike-2")) for k in range(4)),
            hopf("trig", "builtin:trig", 2, 4, no_violations),
        ]
    if name == "cli-mix":
        return [
            cli("free-hopf", ["free-hopf", "builtin:trig", "--stages", "2", "--degree", "3"], no_violations),
            cli("verify", ["verify", str(work / "trig_hopf_artifact.json"), "--laws", "all"], all_laws),
            cli("induce", ["induce", "builtin:matrix-2", "--degree", "3"], free_dims(4)),
            *(cli(f"coproduct{k}", ["coproduct", "builtin:trig", str(work / f"trig_twist{k}.json"), "--degree", "3"],
                  free_dims(4)) for k in range(2)),
            cli(
                "coequalize",
                ["coequalize", "builtin:grouplike-2", "--map", str(work / "map_g1.json"),
                 "--map", str(work / "map_g2.json"), "--degree", "4"],
                free_dims(1),
            ),
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("laurent", "coideal", "cli-mix")


# ---- children ----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # same string hashes, hence the same iteration orders, in every child
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd: list, env: dict, limit_s: float, stderr_path: Path, stdout=subprocess.DEVNULL) -> dict:
    """Run one child to completion; wall from spawn to reaped exit."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=stdout, stderr=err)
        timer = threading.Timer(max(limit_s, 0.1), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024.0,
    }


def command(op: Op, trace_path: Path | None) -> list:
    trace = ["--trace", str(trace_path)] if trace_path is not None else []
    if op.kind == "hopf":
        return [sys.executable, str(CHILD), *trace, "hopf", *op.args]
    if trace_path is None:
        return [sys.executable, "-m", "poissonhopf.cli", *op.args]
    return [sys.executable, str(CHILD), *trace, "cli", *op.args]


def run_op(op: Op, env: dict, work: Path, tag: str, traced: bool, pass_results: dict, deadline: float) -> dict:
    if op.report.exists():
        op.report.unlink()
    trace_path = work / f"{op.name}.{tag}.trace.json" if traced else None
    rec = spawn(command(op, trace_path), env, deadline - time.perf_counter(), work / f"{op.name}.{tag}.stderr")
    rec.update(op=op.name, kind=op.kind, traced=traced, pass_tag=tag, problems=[])
    if rec["exit"] != 0:
        rec["problems"].append(f"exit code {rec['exit']}")
    try:
        data = op.report.read_bytes()
        obj = json.loads(data)
    except (OSError, ValueError) as e:
        rec["problems"].append(f"no readable report: {e}")
    else:
        rec["sha256"] = hashlib.sha256(data).hexdigest()
        rec["report_bytes"] = len(data)
        rec["residuals_checked"] = count_checked(obj)
        for key in ("ideal_rank", "ambient_monomials"):
            if key in obj:
                rec[key] = obj[key]
        pass_results[op.name] = obj
        try:
            rec["problems"] += op.oracle(obj, pass_results)
        except (KeyError, TypeError) as e:
            rec["problems"].append(f"malformed report: {e!r}")
    if traced:
        try:
            summary = json.loads(trace_path.read_text())
        except (OSError, ValueError) as e:
            rec["problems"].append(f"no readable trace: {e}")
        else:
            rec["trace"] = {"stats": summary["stats"], "counters": summary["counters"],
                            "spans": len(summary["spans"])}
            rec["ideal_rank"] = summary["counters"]["colimits.ideal_rank"]
            rec["ambient_monomials"] = summary["counters"]["poisson.ambient_monomials"]
            self_total = sum(s["self_s"] for s in summary["stats"].values())
            if self_total > rec["wall_s"]:
                rec["problems"].append(f"self times {self_total:.4f} s exceed wall {rec['wall_s']:.4f} s")
            rec["problems"] += span_problems(summary["spans"])
    return rec


def span_problems(spans) -> list:
    """Every stored span ends after it starts and lies inside its parent."""
    problems = []
    for name, start, end, parent in spans:
        if end < start:
            problems.append(f"span {name} ends before it starts")
        elif parent >= 0 and not (spans[parent][1] <= start and end <= spans[parent][2]):
            problems.append(f"span {name} outside its parent {spans[parent][0]}")
    return problems[:5]


def run_reference(env: dict, work: Path, deadline: float) -> float:
    """Wall seconds of one reference run, after checking what it printed."""
    out = work / "reference.stdout"
    with open(out, "wb") as fh:
        rec = spawn([sys.executable, str(REFERENCE)], env, deadline - time.perf_counter(),
                    work / "reference.stderr", stdout=fh)
    printed = out.read_text().strip()
    if rec["exit"] != 0 or printed != str(reference.CHECKSUM):
        raise RuntimeError(f"reference run failed: exit {rec['exit']}, printed {printed!r}")
    return rec["wall_s"]


def measure_setup(env: dict, work: Path) -> list:
    """Wall times of fresh interpreters that import the CLI and exit."""
    cmd = [sys.executable, "-c", "import poissonhopf.cli"]
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        rec = spawn(cmd, env, 60.0, work / "setup.stderr")
        if rec["exit"] != 0:
            raise RuntimeError("the package does not import: " + (work / "setup.stderr").read_text()[-500:])
        if k:  # the first import writes the bytecode caches
            samples.append(rec["wall_s"])
    return samples


# ---- metrics -----------------------------------------------------------------

MODULES = ("linalg", "lyndon", "poisson", "exprs", "coalgebra", "colimits", "bialgebra", "free_hopf", "verify", "cli")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list, overhead: float) -> dict:
    """Per-layer metrics per traced operation, summed over the run."""
    n = len(traced)
    stats: dict = {}
    counters: dict = {}
    for rec in traced:
        for name, s in rec["trace"]["stats"].items():
            acc = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in acc:
                acc[key] += s[key]
        for name, v in rec["trace"]["counters"].items():
            counters[name] = counters.get(name, 0) + v
    wall = sum(rec["wall_s"] for rec in traced)
    report_bytes = sum(rec.get("report_bytes", 0) for rec in traced if rec["kind"] == "cli")

    out: dict = {}

    def put(name, value, unit):
        out[name] = {"value": value / n if unit in ("s", "count", "bytes") else value, "unit": unit}

    for name in ("linalg.echelon_insert", "linalg.subspace_reduce", "colimits.nf_vec",
                 "lyndon.bracket_words", "poisson.poiss_product", "poisson.poiss_bracket",
                 "bialgebra.pair_bracket_std"):
        put(f"{name}.calls", stats[name]["calls"], "count")
        put(f"{name}.self_s", stats[name]["self_s"], "s")
    for name in ("colimits.ideal_saturate", "colimits.morphism_apply", "bialgebra.delta_of_monomial",
                 "bialgebra.coideal_certificate", "bialgebra.check_bialgebra",
                 "bialgebra.bialgebra_coproduct", "free_hopf.staged_coproduct",
                 "free_hopf.fixpoint_certificate", "free_hopf.sprime_certificate",
                 "free_hopf.verify_antipode", "verify.check_coassociativity", "verify.check_counit",
                 "verify.check_poisson_compat", "verify.check_leibniz", "verify.check_jacobi",
                 "verify.check_antipode_antimorphism", "cli.main"):
        put(f"{name}.total_s", stats[name]["total_s"], "s")
    for name in ("colimits.ideal_saturate", "bialgebra.reduce_pair", "verify.tensor_bracket", "cli.emit"):
        put(f"{name}.self_s", stats[name]["self_s"], "s")
    put("linalg.echelon_insert.useful_ratio",
        ratio(counters["linalg.echelon_useful"], stats["linalg.echelon_insert"]["calls"]), "ratio")
    put("colimits.ideal_rank", counters["colimits.ideal_rank"], "count")
    put("colimits.saturate_lossy_ratio",
        ratio(counters["colimits.saturate_lossy"], counters["colimits.saturate_brackets"]), "ratio")
    put("colimits.nf_miss_ratio", ratio(counters["colimits.nf_distinct"], counters["colimits.nf_terms"]), "ratio")
    put("poisson.ambient_monomials", counters["poisson.ambient_monomials"], "count")
    put("verify.residuals_checked", counters["verify.residuals_checked"], "count")
    put("cli.report_bytes", report_bytes, "bytes")
    # self time by module, and what no traced span covers (start-up, glue)
    self_by_module = {m: 0.0 for m in MODULES}
    for name, s in stats.items():
        self_by_module[name.split(".")[0]] += s["self_s"]
    for m in MODULES:
        put(f"{m}.self_s", self_by_module[m], "s")
    put("trace.unattributed_s", wall - sum(self_by_module.values()), "s")
    put("trace.overhead_ratio", overhead, "ratio")
    return out


def typical_rel(records: list) -> float:
    """Geometric mean over the workload's operations of each one's median ratio.

    The operations of a pass differ in cost by up to 10x and a run may hold
    one pass, so a median over all of them would jump between operations.
    """
    by_op: dict = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r["rel"])
    return statistics.geometric_mean([statistics.median(v) for v in by_op.values()])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE_DIR / "cli.py").is_file():
        sys.stderr.write(f"bench: no package source at {PACKAGE_DIR}; run from a repository checkout\n")
        return 2
    deadline = time.perf_counter() + HARD_LIMIT_S
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        chosen = inputs.generate(work, args.seed)
        ops = build_workload(args.workload, work)
        env = child_env()
        setup = measure_setup(env, work)

        records: list = []
        measure_start = time.perf_counter()
        ref_before = run_reference(env, work, deadline)
        pass_index = 0
        while True:
            modes = (False, True) if args.trace else (False,)
            for traced in modes:
                pass_results: dict = {}
                tag = f"p{pass_index}{'t' if traced else ''}"
                for op in ops:
                    rec = run_op(op, env, work, tag, traced, pass_results, deadline)
                    ref_after = run_reference(env, work, deadline)
                    rec.update(ref_before_s=ref_before, ref_after_s=ref_after,
                               ref_s=(ref_before + ref_after) / 2)
                    rec["rel"] = rec["wall_s"] / rec["ref_s"]
                    records.append(rec)
                    ref_before = ref_after
            pass_index += 1
            elapsed = time.perf_counter() - measure_start
            mean_pass = elapsed / pass_index
            # one more pass only if that ends the run nearer to S seconds
            if elapsed + mean_pass / 2 >= args.seconds or time.perf_counter() + mean_pass > deadline:
                break
    except RuntimeError as e:
        sys.stderr.write(f"bench: {e}\n")
        return 1
    finally:
        if work.exists():
            shutil.rmtree(work)

    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if "trace" in r]
    failed = sum(1 for r in records if r["problems"])
    op_s = statistics.median([r["wall_s"] for r in untraced])
    op_rel = typical_rel(untraced)
    ref_s = statistics.median([r["ref_s"] for r in untraced])
    if args.trace and not traced:
        metrics = {}  # no traced operation left a summary; those are failures
    elif args.trace:
        overhead = ratio(typical_rel(traced), op_rel) - 1.0
        metrics = layer_metrics(traced, overhead)
    else:
        metrics = {
            "op_rel": {"value": op_rel, "unit": "ratio"},
            "peak_rss_mb": {"value": max(r["maxrss_mb"] for r in untraced), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }

    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "inputs": chosen,
        "setup_s_samples": setup,
        "raw_medians_s": {"op": op_s, "reference": ref_s},
        "fail_ratio": ratio(failed, len(records)),
        "operations": records,
        "result": result,
    }, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  record {record_path.relative_to(ROOT)}")
    print(f"  op_rel       {op_rel:.4f}  ({len(untraced)} operations of {len(ops)} kinds, wall / reference wall)")
    print(f"  op_s         {op_s:.4f} s  reference {ref_s:.4f} s  (raw medians)")
    if not args.trace:
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
        print(f"  setup_s      {metrics['setup_s']['value']:.4f} s  (median of {len(setup)} imports)")
    print(f"  fail_ratio   {ratio(failed, len(records)):.4f}  ({failed} of {len(records)} operations failed)")
    for r in records:
        if r["problems"]:
            print(f"  FAILED {r['op']}{' (traced)' if r['traced'] else ''}: {'; '.join(r['problems'][:3])}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
