"""Command-line surface: spec loading, pipelines, deterministic JSON reports.

Exit codes: 0 clean, 2 parse errors (expressions, spec files, map files),
3 validation failures (coalgebra laws, axiom violations, ill-defined
morphisms), 4 stage or degree overflow, 1 unexpected internal failure.
Reports are emitted with sorted keys and stable ordering, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bialgebra import (
    bialgebra_coequalizer,
    check_bialgebra,
    induce_bialgebra,
)
from .coalgebra import SpecError, SpecParseError, builtin, load_spec, validate_coalgebra
from .colimits import MorphismTable
from .exprs import ParseError, parse
from .free_hopf import StageOverflowError, free_poisson_hopf, verify_antipode
from .lyndon import lyndon_words
from .poisson import render
from .verify import (
    Report,
    check_antipode_antimorphism,
    check_coassociativity,
    check_counit,
    check_jacobi,
    check_leibniz,
    check_poisson_compat,
)


def resolve_spec(ref: str):
    if ref.startswith("builtin:"):
        return builtin(ref[len("builtin:"):])
    return load_spec(ref)


def emit(args, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def report_obj(report: Report) -> dict:
    return report.to_json_obj()


# ---- command handlers -------------------------------------------------------


def cmd_validate(args) -> int:
    try:
        spec = resolve_spec(args.spec)
    except SpecParseError:
        raise
    except SpecError as e:
        # load_spec validates; surface the violation report deterministically
        emit(args, {"command": "validate", "spec": args.spec, "error": str(e)})
        return 3
    report = validate_coalgebra(spec)
    emit(
        args,
        {
            "command": "validate",
            "spec": args.spec,
            "basis": list(spec.basis),
            "report": report_obj(report),
        },
    )
    return 0 if report.ok else 3


def cmd_induce(args) -> int:
    spec = resolve_spec(args.spec)
    B = induce_bialgebra(spec, args.degree)
    report = check_bialgebra(B)
    emit(
        args,
        {
            "command": "induce",
            "spec": args.spec,
            "degree": args.degree,
            "graded_dims": B.quotient.graded_dims(),
            "report": report_obj(report),
        },
    )
    return 0 if report.ok else 3


def cmd_eval(args) -> int:
    spec = resolve_spec(args.spec)
    B = induce_bialgebra(spec, args.degree)
    value = render(parse(args.expr, B.ambient))
    if getattr(args, "out", None):
        emit(args, {"command": "eval", "expr": args.expr, "value": value})
    else:
        sys.stdout.write(value + "\n")
    return 0


def cmd_coproduct(args) -> int:
    from .bialgebra import bialgebra_coproduct

    left = induce_bialgebra(resolve_spec(args.spec_a), args.degree)
    right = induce_bialgebra(resolve_spec(args.spec_b), args.degree)
    cp = bialgebra_coproduct([left, right])
    emit(
        args,
        {
            "command": "coproduct",
            "specs": [args.spec_a, args.spec_b],
            "degree": args.degree,
            "generators": list(cp.bialgebra.ambient.alphabet),
            "graded_dims": cp.bialgebra.quotient.graded_dims(),
            "report": report_obj(cp.report),
        },
    )
    return 0 if cp.report.ok else 3


def load_map(path: str, expected_source=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as e:
        raise SpecParseError(
            f"JSON parse error in {path} at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    if not isinstance(obj, dict) or set(obj) - {"source_spec", "images"}:
        raise SpecParseError(f"map file {path} must carry source_spec and images")
    source_ref = obj.get("source_spec")
    images = obj.get("images")
    if not isinstance(source_ref, str) or not isinstance(images, dict):
        raise SpecParseError(f"map file {path}: bad field shapes")
    if expected_source is not None and source_ref != expected_source:
        raise SpecError("map files disagree on the source spec")
    return source_ref, images


def cmd_coequalize(args) -> int:
    if len(args.maps) != 2:
        raise SpecParseError("coequalize needs exactly two --map files")
    target = induce_bialgebra(resolve_spec(args.spec), args.degree)
    src_ref, images_f = load_map(args.maps[0])
    _, images_g = load_map(args.maps[1], expected_source=src_ref)
    source = induce_bialgebra(resolve_spec(src_ref), args.degree)
    tables = []
    for images in (images_f, images_g):
        resolved = {
            name: target.quotient.normal_form(parse(expr, target.ambient))
            for name, expr in sorted(images.items())
        }
        tables.append(MorphismTable(source, target, resolved))
    out = bialgebra_coequalizer(tables[0], tables[1])
    emit(
        args,
        {
            "command": "coequalize",
            "spec": args.spec,
            "source_spec": src_ref,
            "degree": args.degree,
            "graded_dims": out.bialgebra.quotient.graded_dims(),
            "coideal_certificate": report_obj(out.certificate),
        },
    )
    return 0 if out.certificate.ok else 3


def cmd_free_hopf(args) -> int:
    spec = resolve_spec(args.spec)
    H = free_poisson_hopf(spec, args.stages, args.degree)
    antipode = verify_antipode(H, depth=1)
    certificates = {name: report_obj(r) for name, r in sorted(H.certificates.items())}
    ok = H.certificates_ok() and antipode.ok
    emit(
        args,
        {
            "command": "free-hopf",
            "spec": args.spec,
            "stages": args.stages,
            "degree": args.degree,
            "generators": list(H.ambient.alphabet),
            "filtration_dims": H.quotient.filtration_dims(),
            "graded_dims": H.quotient.graded_dims(),
            "certificates": certificates,
            "antipode_residuals": report_obj(antipode),
        },
    )
    return 0 if ok else 3


LAW_NAMES = ("coassociativity", "counit", "poisson-compat", "leibniz", "jacobi", "antipode")


def run_laws(structure, laws, has_antipode: bool) -> dict:
    out = {}
    if "coassociativity" in laws:
        out["coassociativity"] = check_coassociativity(structure)
    if "counit" in laws:
        out["counit"] = check_counit(structure)
    if "poisson-compat" in laws:
        out["poisson-compat"] = check_poisson_compat(structure)
    if "leibniz" in laws:
        out["leibniz"] = check_leibniz(structure)
    if "jacobi" in laws:
        out["jacobi"] = check_jacobi(structure)
    if "antipode" in laws and has_antipode:
        out["antipode"] = check_antipode_antimorphism(structure)
    return out


def artifact_int(desc: dict, key: str, least: int) -> int:
    value = desc.get(key)
    # bool is a subclass of int, but true is no budget
    if type(value) is not int or value < least:
        raise SpecParseError(f"artifact {key} must be an integer >= {least}")
    return value


def cmd_verify(args) -> int:
    try:
        with open(args.artifact, "r", encoding="utf-8") as fh:
            desc = json.load(fh)
    except json.JSONDecodeError as e:
        raise SpecParseError(
            f"JSON parse error in {args.artifact} at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    if not isinstance(desc, dict) or "construct" not in desc:
        raise SpecParseError("artifact must carry a construct field")
    laws = LAW_NAMES if args.laws == "all" else tuple(args.laws.split(","))
    unknown = set(laws) - set(LAW_NAMES)
    if unknown:
        raise SpecParseError(f"unknown laws: {sorted(unknown)}")
    construct = desc["construct"]
    if construct not in ("induce", "free-hopf", "coproduct"):
        raise SpecParseError(f"unknown construct {construct!r}")
    spec = desc.get("spec")
    if construct == "coproduct":
        if not (
            isinstance(spec, list) and len(spec) == 2 and all(isinstance(r, str) for r in spec)
        ):
            raise SpecParseError("coproduct artifact spec must be a list of two paths")
    elif not isinstance(spec, str):
        raise SpecParseError(f"{construct} artifact spec must be a path")
    degree = artifact_int(desc, "degree", 1)
    extra = {}
    if construct == "induce":
        structure = induce_bialgebra(resolve_spec(spec), degree)
        has_antipode = False
    elif construct == "free-hopf":
        stages = artifact_int(desc, "stages", 2)
        H = free_poisson_hopf(resolve_spec(spec), stages, degree)
        structure = H
        has_antipode = True
        extra["certificates"] = {k: report_obj(r) for k, r in sorted(H.certificates.items())}
        if "antipode" in laws:
            extra["antipode_residuals"] = report_obj(verify_antipode(H, depth=1))
    else:
        from .bialgebra import bialgebra_coproduct

        operands = [induce_bialgebra(resolve_spec(r), degree) for r in spec]
        structure = bialgebra_coproduct(operands, check=False).bialgebra
        has_antipode = False
    results = run_laws(structure, laws, has_antipode)
    obj = {
        "command": "verify",
        "artifact": args.artifact,
        "laws": {name: report_obj(r) for name, r in sorted(results.items())},
    }
    obj.update(extra)
    emit(args, obj)
    all_ok = all(r.ok for r in results.values())
    return 0 if all_ok else 3


def cmd_dims(args) -> int:
    spec = resolve_spec(args.spec)
    n = len(spec.basis)
    grouped = lyndon_words(n, args.degree) if n else {}
    lyndon_counts = [len(grouped.get(d, [])) for d in range(1, args.degree + 1)]
    B = induce_bialgebra(spec, args.degree)
    emit(
        args,
        {
            "command": "dims",
            "spec": args.spec,
            "degree": args.degree,
            "basis_size": n,
            "lyndon_counts_by_degree": lyndon_counts,
            "graded_dims": B.quotient.graded_dims(),
        },
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poissonhopf",
        description="Exact constructions and checks for free Poisson (bi/Hopf) algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_degree(p):
        p.add_argument("--degree", type=int, required=True, help="degree truncation budget")

    def add_out(p):
        p.add_argument("--out", help="write the JSON report to this path")

    p = sub.add_parser("validate", help="check coalgebra axioms of a spec file")
    p.add_argument("spec")
    add_out(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("induce", help="free Poisson bialgebra on a coalgebra")
    p.add_argument("spec")
    add_degree(p)
    add_out(p)
    p.set_defaults(func=cmd_induce)

    p = sub.add_parser("eval", help="evaluate an expression over the spec's generators")
    p.add_argument("spec")
    p.add_argument("expr")
    add_degree(p)
    add_out(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("coproduct", help="coproduct of two induced bialgebras")
    p.add_argument("spec_a")
    p.add_argument("spec_b")
    add_degree(p)
    add_out(p)
    p.set_defaults(func=cmd_coproduct)

    p = sub.add_parser("coequalize", help="coequalizer of two generator-image maps")
    p.add_argument("spec")
    p.add_argument("--map", dest="maps", action="append", default=[], help="map JSON file (twice)")
    add_degree(p)
    add_out(p)
    p.set_defaults(func=cmd_coequalize)

    p = sub.add_parser("free-hopf", help="free Poisson Hopf algebra on a coalgebra")
    p.add_argument("spec")
    p.add_argument("--stages", type=int, required=True, help="stage budget M >= 2")
    add_degree(p)
    add_out(p)
    p.set_defaults(func=cmd_free_hopf)

    p = sub.add_parser("verify", help="re-run a construction and check selected laws")
    p.add_argument("artifact", help="JSON descriptor: construct, spec, degree, stages")
    p.add_argument("--laws", default="all", help="all or comma-separated law names")
    add_out(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("dims", help="graded dimensions of the free object on a spec")
    p.add_argument("spec")
    add_degree(p)
    add_out(p)
    p.set_defaults(func=cmd_dims)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        sys.stderr.write(f"parse error: {e}\n")
        return 2
    except SpecParseError as e:
        sys.stderr.write(f"parse error: {e}\n")
        return 2
    except StageOverflowError as e:
        sys.stderr.write(f"overflow: {e}\n")
        return 4
    except SpecError as e:
        sys.stderr.write(f"validation error: {e}\n")
        return 3
    except FileNotFoundError as e:
        sys.stderr.write(f"missing file: {e}\n")
        return 2
    except ValueError as e:
        sys.stderr.write(f"validation error: {e}\n")
        return 3
    except RuntimeError as e:
        sys.stderr.write(f"internal error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
