"""Finite-dimensional coalgebras by structure constants, with strict JSON I/O.

A spec lists a named basis, the comultiplication as triples (c1, c2, k) per
basis element, and the counit values.  Validation checks coassociativity
and both counit laws exactly; the builtin families cover the group-like,
matrix and trigonometric coalgebras used throughout the test surface.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from fractions import Fraction

from .linalg import SparseVec, exact
from .verify import Report, check_coassociativity, check_counit


class SpecError(ValueError):
    """Invalid coalgebra description (validation category)."""


class SpecParseError(SpecError):
    """Malformed spec file: JSON syntax, field shapes, scalar format."""

    exit_code = 2


class CoalgebraSpec(namedtuple("CoalgebraSpec", "basis delta epsilon")):
    """Coalgebra with named basis; delta and epsilon stored canonically.

    delta maps each name to a tuple of (left, right, coeff) triples sorted
    by (left, right); epsilon maps each name to its value.  Scalars are
    exact rationals, ``int`` when integral (see ``linalg.exact``).
    """

    __slots__ = ()

    @staticmethod
    def make(basis, delta: dict, epsilon: dict) -> "CoalgebraSpec":
        basis = tuple(basis)
        if len(set(basis)) != len(basis):
            raise SpecError("duplicate basis names")
        known = set(basis)
        delta_rows = []
        for name in basis:
            triples = delta.get(name, ())
            for left, right, _ in triples:
                if left not in known or right not in known:
                    raise SpecError(
                        f"delta of {name!r} references unknown name "
                        f"{left if left not in known else right!r}"
                    )
            merged = SparseVec(((l, r), c) for l, r, c in triples)
            delta_rows.append((name, tuple((l, r, c) for (l, r), c in sorted(merged.items()))))
        eps_rows = tuple((name, exact(epsilon.get(name, 0))) for name in basis)
        return CoalgebraSpec(basis=basis, delta=tuple(delta_rows), epsilon=eps_rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    # -- the members the coalgebra checks read (coassociativity, the counit laws and
    # the coalgebra-map law): labels are the basis names --

    def labels_upto(self):
        return self.basis

    def delta_label(self, label) -> SparseVec:
        for n, rows in self.delta:
            if n == label:
                return SparseVec({(l, r): c for l, r, c in rows})
        raise KeyError(label)

    def epsilon_label(self, label) -> int | Fraction:
        for n, value in self.epsilon:
            if n == label:
                return value
        raise KeyError(label)

    def render_label(self, label) -> str:
        return str(label)


def validate_coalgebra(spec: CoalgebraSpec) -> Report:
    """Empty report iff coassociativity and both counit laws hold exactly."""
    report = check_coassociativity(spec)
    report.merge(check_counit(spec))
    return report


def builtin(name: str) -> CoalgebraSpec:
    """Builtin families: grouplike-n, matrix-n, trig."""
    m = re.fullmatch(r"grouplike-(\d+)", name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise SpecError(f"bad builtin size in {name!r}")
        basis = ("g",) if n == 1 else tuple(f"g{i+1}" for i in range(n))
        return CoalgebraSpec.make(
            basis,
            {b: [(b, b, 1)] for b in basis},
            {b: 1 for b in basis},
        )
    m = re.fullmatch(r"matrix-(\d+)", name)
    if m:
        n = int(m.group(1))
        if n < 1:
            raise SpecError(f"bad builtin size in {name!r}")
        basis = tuple(f"e{i+1}{j+1}" for i in range(n) for j in range(n))
        delta = {
            f"e{i+1}{j+1}": [(f"e{i+1}{k+1}", f"e{k+1}{j+1}", 1) for k in range(n)]
            for i in range(n)
            for j in range(n)
        }
        epsilon = {f"e{i+1}{j+1}": 1 if i == j else 0 for i in range(n) for j in range(n)}
        return CoalgebraSpec.make(basis, delta, epsilon)
    if name == "trig":
        return CoalgebraSpec.make(
            ("c", "s"),
            {
                "c": [("c", "c", 1), ("s", "s", -1)],
                "s": [("s", "c", 1), ("c", "s", 1)],
            },
            {"c": 1, "s": 0},
        )
    raise SpecError(f"unknown builtin {name!r}")


# ---------------------------------------------------------------------------
# JSON spec files


_SCALAR_RE = re.compile(r"(-?\d+)(?:/(\d+))?")


def parse_scalar(text) -> Fraction:
    # bool is a subclass of int, but true is no scalar
    if type(text) is int:
        return Fraction(text)
    if not isinstance(text, str) or not _SCALAR_RE.fullmatch(text.strip()):
        raise SpecParseError(f"bad scalar {text!r}: expected 'p' or 'p/q'")
    m = _SCALAR_RE.fullmatch(text.strip())
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
    except ValueError as e:  # more digits than the interpreter converts
        raise SpecParseError(f"bad scalar: {e}") from None
    if den == 0:
        raise SpecParseError(f"bad scalar {text!r}: zero denominator")
    return Fraction(num, den)


_ALLOWED_FIELDS = {"basis", "delta", "epsilon"}


def spec_from_json_obj(obj) -> CoalgebraSpec:
    if not isinstance(obj, dict):
        raise SpecParseError("spec must be a JSON object")
    unknown = set(obj) - _ALLOWED_FIELDS
    if unknown:
        raise SpecParseError(f"unknown fields: {sorted(unknown)}")
    basis = obj.get("basis")
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise SpecParseError("basis must be an array of strings")
    delta_obj = obj.get("delta", {})
    epsilon_obj = obj.get("epsilon", {})
    if not isinstance(delta_obj, dict) or not isinstance(epsilon_obj, dict):
        raise SpecParseError("delta and epsilon must be objects")
    for key in list(delta_obj) + list(epsilon_obj):
        if key not in basis:
            raise SpecError(f"delta/epsilon references unknown name {key!r}")
    delta = {}
    for name, triples in delta_obj.items():
        if not isinstance(triples, list):
            raise SpecParseError(f"delta of {name!r} must be an array")
        rows = []
        for triple in triples:
            if not (isinstance(triple, list) and len(triple) == 3
                    and all(isinstance(x, str) for x in triple[:2])):
                raise SpecParseError(f"delta entry of {name!r} must be [name, name, scalar]")
            left, right, coeff = triple
            rows.append((left, right, parse_scalar(coeff)))
        delta[name] = rows
    epsilon = {name: parse_scalar(v) for name, v in epsilon_obj.items()}
    return CoalgebraSpec.make(basis, delta, epsilon)


def spec_to_json_obj(spec: CoalgebraSpec) -> dict:
    return {
        "basis": list(spec.basis),
        "delta": {
            name: [[l, r, str(c)] for l, r, c in rows]
            for name, rows in spec.delta
            if rows
        },
        "epsilon": {name: str(c) for name, c in spec.epsilon},
    }


def read_json(path):
    """The parsed contents of a JSON file (spec, map file or artifact).

    A file that cannot be read (a directory, no permission, a NUL byte in
    the path), is not UTF-8, or does not parse (bad syntax, too deep, an
    integer with more digits than the interpreter converts) raises
    ``SpecParseError`` with a one-line message; a missing file raises
    ``FileNotFoundError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (IsADirectoryError, PermissionError) as e:
        raise SpecParseError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise SpecParseError(f"{path} is not UTF-8 text") from None
    except json.JSONDecodeError as e:
        raise SpecParseError(
            f"JSON parse error in {path} at line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    except RecursionError:
        raise SpecParseError(f"JSON in {path} is nested too deeply") from None
    except ValueError as e:
        raise SpecParseError(f"cannot read {path!r}: {e}") from None


def load_spec(path) -> CoalgebraSpec:
    """Load and validate a spec file; raises SpecError on any problem."""
    spec = spec_from_json_obj(read_json(path))
    report = validate_coalgebra(spec)
    if not report.ok:
        raise SpecError("invalid coalgebra: " + "; ".join(report.lines()))
    return spec


def save_spec(spec: CoalgebraSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec_to_json_obj(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
