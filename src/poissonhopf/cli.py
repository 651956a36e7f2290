"""Command-line surface: spec loading, pipelines, deterministic JSON reports.

Each artifact kind (``induce``, ``coproduct``, ``free-hopf``) has one
construction, ``construct``, which its command and ``verify`` both run.
Exit codes: 0 clean, 2 parse errors (expressions; spec, map and artifact
files, all read by ``read_json``; a ``--degree`` below 1; a law the artifact
has no structure for), 3 validation
failures (coalgebra laws, axiom violations, ill-defined morphisms, a map
file naming generators outside its source basis), 4 stage
or degree overflow (``eval`` of an expression with terms above the budget; a
free Hopf algebra with fewer than 2 stages or a degree budget below 2; a
budget whose ambient would hold more than ``AMBIENT_CAP``, 50,000 monomials;
a degree budget above ``DEGREE_CAP``, 64, which one letter reaches under the
ambient cap: its ``verify`` took 1.7 s at degree 64 and 21 s at 150),
1 unexpected internal failure, among them a construction whose own
certificate fails (``Report.require``).  A ``ValueError`` raised below the
CLI carries its own code as the class attribute ``exit_code`` (2 on
``ParseError`` and ``SpecParseError``, 4 on ``StageOverflowError``, 3 when
absent), which ``main`` reads, so mapping an error to its code loads no
construction module.
Importing this module loads no layer: each command imports the layers it
runs where it runs them.  ``induce``, ``coproduct``, ``dims``, ``validate``
and ``eval`` never load ``free_hopf``, and only ``eval`` and ``coequalize``
load the expression parser.
Reports are emitted with sorted keys and stable ordering, so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys


def resolve_spec(ref: str):
    from .coalgebra import builtin, load_spec

    if ref.startswith("builtin:"):
        return builtin(ref[len("builtin:"):])
    return load_spec(ref)


def emit(args, obj) -> None:
    text = json.dumps({"command": args.command, **obj}, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def reports(named: dict) -> dict:
    return {name: r.to_json_obj() for name, r in named.items()}


# the artifact kinds ``verify`` re-runs, each built by ``construct`` exactly as its command builds it
KINDS = ("induce", "coproduct", "free-hopf")

# the most ambient monomials ``construct`` builds; matrix-2 at M=2, N=5 (37,449)
# is the largest budget measured to finish
AMBIENT_CAP = 50_000

# the largest degree budget ``construct`` accepts; one letter passes the ambient
# cap up to degree 49,999, but its ``verify`` took 21 s at degree 150
DEGREE_CAP = 64


def ambient_size(letters: int, degree: int) -> int:
    """sum_{d <= N} k^d, the monomials on k letters by PBW, summed only until it passes the cap."""
    size, term = 0, 1
    # each step adds at least 1 while k >= 1, so the cap bounds the steps too
    for _ in range(min(degree, AMBIENT_CAP) + 1):
        size += term
        if size > AMBIENT_CAP:
            break
        term *= letters
    return size


def construct(kind: str, spec, degree: int, stages=None):
    """The one construction of an artifact kind; ``spec`` is a reference, or two for a coproduct.

    Once the specs resolve, a budget whose ambient would pass ``AMBIENT_CAP``
    is refused before any monomial is built, and so is a degree budget above
    ``DEGREE_CAP``.  The letters are dim C, summed over a coproduct's two, and
    times M on M stages.
    """
    from .poisson import StageOverflowError

    coalgebras = [resolve_spec(ref) for ref in (spec if kind == "coproduct" else [spec])]
    letters = sum(len(C.basis) for C in coalgebras) * (max(stages, 0) if kind == "free-hopf" else 1)
    if ambient_size(letters, degree) > AMBIENT_CAP:
        raise StageOverflowError(f"the ambient at degree budget {degree} on an alphabet of size {letters}"
                                 f" has more than {AMBIENT_CAP:,} monomials, the cap")
    if degree > DEGREE_CAP:
        raise StageOverflowError(f"the degree budget {degree} is above {DEGREE_CAP}, the cap")
    from .bialgebra import bialgebra_coproduct, induce_bialgebra

    if kind == "coproduct":
        return bialgebra_coproduct([induce_bialgebra(C, degree) for C in coalgebras]).bialgebra
    if kind == "free-hopf":
        from .free_hopf import free_poisson_hopf

        return free_poisson_hopf(coalgebras[0], stages, degree)
    return induce_bialgebra(coalgebras[0], degree)


# ---- command handlers -------------------------------------------------------


def cmd_validate(args) -> int:
    from .coalgebra import SpecError, SpecParseError, validate_coalgebra

    try:
        spec = resolve_spec(args.spec)
    except SpecParseError:
        raise
    except SpecError as e:
        # load_spec validates; surface the violation report deterministically
        emit(args, {"spec": args.spec, "error": str(e)})
        return 3
    report = validate_coalgebra(spec)
    emit(args, {"spec": args.spec, "basis": list(spec.basis), "report": report.to_json_obj()})
    return 0 if report.ok else 3


def emit_bialgebra(args, B, fields: dict) -> int:
    """The report tail of ``induce`` and ``coproduct``: the laws certified on the generators."""
    from .bialgebra import generator_certificate

    report = generator_certificate(B)
    emit(args, {**fields, "degree": args.degree, "graded_dims": B.quotient.graded_dims(),
                "report": report.to_json_obj()})
    return 0 if report.ok else 3


def cmd_induce(args) -> int:
    return emit_bialgebra(args, construct("induce", args.spec, args.degree), {"spec": args.spec})


def cmd_coproduct(args) -> int:
    specs = [args.spec_a, args.spec_b]
    B = construct("coproduct", specs, args.degree)
    return emit_bialgebra(args, B, {"specs": specs, "generators": list(B.ambient.alphabet)})


def cmd_eval(args) -> int:
    from .exprs import parse
    from .poisson import render

    B = construct("induce", args.spec, args.degree)
    elt = parse(args.expr, B.ambient)
    if elt.lossy:
        sys.stderr.write(
            f"overflow: {args.expr!r} has terms above the degree budget {args.degree}\n"
        )
        return 4
    value = render(elt)
    if args.out:
        emit(args, {"expr": args.expr, "value": value})
    else:
        sys.stdout.write(value + "\n")
    return 0


def load_map(path: str, expected_source=None):
    from .coalgebra import SpecError, SpecParseError, read_json

    obj = read_json(path)
    if not isinstance(obj, dict) or set(obj) - {"source_spec", "images"}:
        raise SpecParseError(f"map file {path} must carry source_spec and images")
    source_ref = obj.get("source_spec")
    images = obj.get("images")
    if not isinstance(source_ref, str) or not isinstance(images, dict):
        raise SpecParseError(f"map file {path}: bad field shapes")
    if not all(isinstance(v, str) for v in images.values()):
        raise SpecParseError(f"map file {path}: images must be expression strings")
    if expected_source is not None and source_ref != expected_source:
        raise SpecError("map files disagree on the source spec")
    return source_ref, images


def cmd_coequalize(args) -> int:
    from .bialgebra import bialgebra_coequalizer
    from .coalgebra import SpecError, SpecParseError
    from .colimits import MorphismTable
    from .exprs import parse

    if len(args.maps) != 2:
        raise SpecParseError("coequalize needs exactly two --map files")
    target = construct("induce", args.spec, args.degree)
    src_ref, images_f = load_map(args.maps[0])
    _, images_g = load_map(args.maps[1], expected_source=src_ref)
    source = construct("induce", src_ref, args.degree)
    tables = []
    for path, images in zip(args.maps, (images_f, images_g)):
        unknown = set(images) - set(source.ambient.alphabet)
        if unknown:
            raise SpecError(f"map file {path} gives images of unknown generators {sorted(unknown)}")
        resolved = {
            name: target.quotient.normal_form(parse(expr, target.ambient))
            for name, expr in sorted(images.items())
        }
        tables.append(MorphismTable(source, target, resolved))
    # a failed coideal certificate raises RuntimeError (exit 1)
    out = bialgebra_coequalizer(tables[0], tables[1])
    emit(
        args,
        {
            "spec": args.spec,
            "source_spec": src_ref,
            "degree": args.degree,
            "graded_dims": out.bialgebra.quotient.graded_dims(),
            "coideal_certificate": out.certificate.to_json_obj(),
        },
    )
    return 0


def cmd_free_hopf(args) -> int:
    from .free_hopf import verify_antipode

    # a failed certificate raises RuntimeError (exit 1); only the antipode law can fail here
    H = construct("free-hopf", args.spec, args.degree, args.stages)
    antipode = verify_antipode(H, depth=1)
    emit(
        args,
        {
            "spec": args.spec,
            "stages": args.stages,
            "degree": args.degree,
            "generators": list(H.ambient.alphabet),
            "filtration_dims": H.quotient.filtration_dims(),
            "graded_dims": H.quotient.graded_dims(),
            "certificates": reports(H.certificates),
            "antipode_residuals": antipode.to_json_obj(),
        },
    )
    return 0 if antipode.ok else 3


# the laws ``verify`` checks, in the order it runs them; only a free-hopf
# artifact has an antipode to check, so ``all`` leaves it out elsewhere and
# naming it elsewhere is refused
LAW_NAMES = ("coassociativity", "counit", "poisson-compat", "leibniz", "jacobi", "antipode")


def law_checkers() -> dict:
    """Law name -> checker, keyed by ``LAW_NAMES`` in its order."""
    from . import verify

    return dict(zip(LAW_NAMES, (verify.check_coassociativity, verify.check_counit, verify.check_poisson_compat,
                                verify.check_leibniz, verify.check_jacobi, verify.check_antipode)))


def artifact_int(desc: dict, key: str, least: int) -> int:
    from .coalgebra import SpecParseError

    value = desc.get(key)
    # bool is a subclass of int, but true is no budget
    if type(value) is not int or value < least:
        raise SpecParseError(f"artifact {key} must be an integer >= {least}")
    return value


def cmd_verify(args) -> int:
    from .coalgebra import SpecParseError, read_json

    desc = read_json(args.artifact)
    if not isinstance(desc, dict) or "construct" not in desc:
        raise SpecParseError("artifact must carry a construct field")
    laws = LAW_NAMES if args.laws == "all" else tuple(args.laws.split(","))
    unknown = set(laws) - set(LAW_NAMES)
    if unknown:
        raise SpecParseError(f"unknown laws: {sorted(unknown)}")
    kind = desc["construct"]
    if kind not in KINDS:
        raise SpecParseError(f"unknown construct {kind!r}")
    # only a free-hopf artifact carries a stage budget
    extra = set(desc) - {"construct", "spec", "degree"} - ({"stages"} if kind == "free-hopf" else set())
    if extra:
        raise SpecParseError(f"{kind} artifact has unknown fields: {sorted(extra)}")
    if kind != "free-hopf":
        if args.laws != "all" and "antipode" in laws:
            raise SpecParseError(f"law antipode needs a free-hopf artifact, not {kind}")
        laws = tuple(law for law in laws if law != "antipode")
    spec = desc.get("spec")
    if kind == "coproduct":
        if not (
            isinstance(spec, list) and len(spec) == 2 and all(isinstance(r, str) for r in spec)
        ):
            raise SpecParseError("coproduct artifact spec must be a list of two paths")
    elif not isinstance(spec, str):
        raise SpecParseError(f"{kind} artifact spec must be a path")
    degree = artifact_int(desc, "degree", 1)
    stages = artifact_int(desc, "stages", 2) if kind == "free-hopf" else None
    structure = construct(kind, spec, degree, stages)
    obj = {"artifact": args.artifact}
    if kind == "free-hopf":
        from .bialgebra import coideal_certificate
        from .free_hopf import s_prime_stability_certificate

        # the coideal and S'-stability certificates again, on every ideal row rather than the generators
        rows = structure.quotient.ideal.rows
        on_rows = {"coideal": coideal_certificate(structure, rows),
                   "sprime-stability": s_prime_stability_certificate(structure, rows)}
        obj["certificates"] = reports({**structure.certificates, **on_rows})
    results = {law: check(structure) for law, check in law_checkers().items() if law in laws}
    obj["laws"] = reports(results)
    emit(args, obj)
    return 0 if all(r.ok for r in results.values()) else 3


def cmd_dims(args) -> int:
    B = construct("induce", args.spec, args.degree)
    n = len(B.ambient.alphabet)
    lyndon_counts = [len(B.ambient.lyndon_basis(d)) for d in range(1, args.degree + 1)]
    emit(
        args,
        {
            "spec": args.spec,
            "degree": args.degree,
            "basis_size": n,
            "lyndon_counts_by_degree": lyndon_counts,
            "graded_dims": B.quotient.graded_dims(),
        },
    )
    return 0


# (name, handler, help, arguments); every command takes --out, and every one
# but validate and verify takes --degree after its own arguments
COMMANDS = (
    ("validate", cmd_validate, "check coalgebra axioms of a spec file", {"spec": {}}),
    ("induce", cmd_induce, "free Poisson bialgebra on a coalgebra", {"spec": {}}),
    ("eval", cmd_eval, "evaluate an expression over the spec's generators", {"spec": {}, "expr": {}}),
    ("coproduct", cmd_coproduct, "coproduct of two induced bialgebras", {"spec_a": {}, "spec_b": {}}),
    ("coequalize", cmd_coequalize, "coequalizer of two generator-image maps", {
        "spec": {},
        "--map": {"dest": "maps", "action": "append", "default": [], "help": "map JSON file (twice)"},
    }),
    ("free-hopf", cmd_free_hopf, "free Poisson Hopf algebra on a coalgebra", {
        "spec": {}, "--stages": {"type": int, "required": True, "help": "stage budget M >= 2"},
    }),
    ("verify", cmd_verify, "re-run a construction and check selected laws", {
        "artifact": {"help": "JSON descriptor: construct, spec, degree, stages"},
        "--laws": {"default": "all", "help": "all or comma-separated law names"},
    }),
    ("dims", cmd_dims, "graded dimensions of the free object on a spec", {"spec": {}}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poissonhopf",
        description="Exact constructions and checks for free Poisson (bi/Hopf) algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, arguments in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments.items():
            p.add_argument(flag, **options)
        if name not in ("validate", "verify"):
            p.add_argument("--degree", type=int, required=True, help="degree truncation budget")
        p.add_argument("--out", help="write the JSON report to this path")
        p.set_defaults(func=handler)
    return parser


# the stderr prefix of each exit code a ``ValueError`` carries
ERROR_KINDS = {2: "parse error", 3: "validation error", 4: "overflow"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the one check of the budget flag; an artifact's degree goes through artifact_int
    if getattr(args, "degree", 1) < 1:
        sys.stderr.write("parse error: --degree must be an integer >= 1\n")
        return 2
    try:
        return args.func(args)
    except FileNotFoundError as e:
        sys.stderr.write(f"missing file: {e}\n")
        return 2
    except ValueError as e:
        code = getattr(e, "exit_code", 3)
        sys.stderr.write(f"{ERROR_KINDS[code]}: {e}\n")
        return code
    except RuntimeError as e:
        sys.stderr.write(f"internal error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
