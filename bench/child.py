"""One benchmark operation, run in a fresh interpreter so every memo starts cold.

    python3 bench/child.py [--trace FILE] hopf RESULT SPEC STAGES DEGREE
    python3 bench/child.py [--trace FILE] cli ARG...

``hopf`` builds ``free_poisson_hopf(SPEC, STAGES, DEGREE, check=False)``,
runs ``verify_antipode(depth=1)`` and writes dimensions, size counters and
certificate reports to RESULT.  ``cli`` runs the command-line entry point
on ARG and exits with its code.  ``--trace`` installs the span tracer first
and writes its summary to FILE.  The package must be importable
(``PYTHONPATH=src``).
"""

from __future__ import annotations

import json
import sys


def run_hopf(result_path: str, spec_ref: str, stages: int, degree: int) -> int:
    from poissonhopf import coalgebra, free_hopf

    if spec_ref.startswith("builtin:"):
        spec = coalgebra.builtin(spec_ref[len("builtin:"):])
    else:
        spec = coalgebra.load_spec(spec_ref)
    H = free_hopf.free_poisson_hopf(spec, stages, degree, check=False)
    antipode = free_hopf.verify_antipode(H, depth=1)
    result = {
        "filtration_dims": H.quotient.filtration_dims(),
        "graded_dims": H.quotient.graded_dims(),
        "ideal_rank": H.quotient.ideal.rank,
        "ambient_monomials": len(H.ambient.monomials_upto()),
        "certificates": {k: r.to_json_obj() for k, r in sorted(H.certificates.items())},
        "antipode_residuals": antipode.to_json_obj(),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def run_cli(argv) -> int:
    from poissonhopf import cli

    return cli.main(argv)


def main(argv) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if argv[0] == "hopf":
            result_path, spec_ref, stages, degree = argv[1:5]
            return run_hopf(result_path, spec_ref, int(stages), int(degree))
        if argv[0] == "cli":
            return run_cli(argv[1:])
        sys.stderr.write(f"unknown operation {argv[0]!r}\n")
        return 2
    finally:
        if tracer is not None:
            tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
