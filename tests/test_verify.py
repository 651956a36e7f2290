"""Checker failure paths on corrupted structures, and report format."""

import json

from poissonhopf.bialgebra import induce_bialgebra
from poissonhopf.coalgebra import builtin
from poissonhopf.free_hopf import free_poisson_hopf
from poissonhopf.linalg import unit_vec
from poissonhopf.lyndon import LyndonWord
from poissonhopf.poisson import PoissMonomial
from poissonhopf.verify import (
    Report,
    Skip,
    Violation,
    check_antipode_antimorphism,
    check_jacobi,
    check_leibniz,
    check_poisson_compat,
)


def gm(*letters):
    return PoissMonomial(tuple(LyndonWord(l) for l in letters))


class Corrupted:
    """Wrap a structure, overriding one protocol method."""

    def __init__(self, inner, **overrides):
        self._inner = inner
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._inner, name)


def test_corrupt_bracket_table_fails_leibniz():
    B = induce_bialgebra(builtin("grouplike-2"), 3)
    a, b = gm((0,)), gm((1,))

    def bad_bracket(x, y):
        if (x, y) == (a, b):
            return unit_vec(a)  # pretend {a, b} = a
        if (x, y) == (b, a):
            return unit_vec(a, -1)
        return B.bracket_labels(x, y)

    report = check_leibniz(Corrupted(B, bracket_labels=bad_bracket))
    assert not report.ok
    witnesses = {v.witnesses for v in report.violations}
    assert ("g1", "g2", "g2") in witnesses


def test_corrupt_bracket_fails_jacobi():
    # break antisymmetry in one orientation only; the Jacobi sum stops closing
    B = induce_bialgebra(builtin("grouplike-2"), 3)
    a, b = gm((0,)), gm((1,))

    def bad_bracket(x, y):
        if (x, y) == (a, b):
            return unit_vec(a)
        return B.bracket_labels(x, y)

    report = check_jacobi(Corrupted(B, bracket_labels=bad_bracket))
    assert not report.ok


def test_negated_delta_of_bracket_fails_poisson_compat():
    # flip the sign of the stored comultiplication of {g1,g2}: the two routes
    # of the compatibility law now disagree
    B = induce_bialgebra(builtin("grouplike-2"), 3)
    w = gm((0, 1))

    def bad_delta(m):
        out = B.delta_label(m)
        if m == w:
            return -out
        return out

    corrupted = Corrupted(B, delta_label=bad_delta)
    report = check_poisson_compat(corrupted)
    assert not report.ok
    assert all(v.law == "bracket-comultiplicativity" for v in report.violations)


def test_sign_flipped_antipode_entry_fails():
    H = free_poisson_hopf(builtin("grouplike-1"), 2, 4, check=False)
    g0 = gm((0,))

    def bad_antipode(m):
        out = H.antipode_label(m)
        if out is not None and m == g0:
            return -out
        return out

    corrupted = Corrupted(H, antipode_label=bad_antipode)
    report = check_antipode_antimorphism(corrupted)
    assert not report.ok


def test_zero_bracket_structures_pass_antipode_bracket_law():
    H = free_poisson_hopf(builtin("grouplike-1"), 2, 4, check=False)
    report = check_antipode_antimorphism(H)
    assert report.ok and report.checked > 0


def test_report_json_shape_and_lines():
    report = Report(
        violations=[Violation("leibniz", ("a", "b", "c"), "2*a")], checked=7
    )
    obj = report.to_json_obj()
    assert obj == {
        "checked": 7,
        "violations": [{"law": "leibniz", "witnesses": ["a", "b", "c"], "residual": "2*a"}],
    }
    assert json.dumps(obj)  # serializable
    assert "leibniz fails at (a, b, c)" in report.lines()[0]
    clean = Report(checked=3)
    assert clean.ok and clean.lines() == ["ok: 3 residuals, all zero"]
    assert "skipped" not in clean.to_json_obj()
    skip = Skip("coproduct-antipode", ("c_0_0",), "S(s_0_0) is undefined")
    partial = Report(checked=2).merge(Report(skipped=[skip]))
    assert partial.ok and partial.skipped == [skip]
    assert partial.to_json_obj() == {
        "checked": 2,
        "violations": [],
        "skipped": [
            {"law": "coproduct-antipode", "witnesses": ["c_0_0"], "reason": "S(s_0_0) is undefined"}
        ],
    }
    assert partial.lines() == [
        "ok: 2 residuals, all zero",
        "coproduct-antipode skipped at (c_0_0): S(s_0_0) is undefined",
    ]


def test_checker_results_independent_of_basis_order():
    B = induce_bialgebra(builtin("trig"), 3)
    reversed_labels = Corrupted(B, labels_upto=lambda: list(reversed(B.labels_upto())))
    fwd = check_poisson_compat(B)
    bwd = check_poisson_compat(reversed_labels)
    assert fwd.ok == bwd.ok
    assert fwd.checked == bwd.checked
