"""Checker failure paths on corrupted structures, and report format."""

import json

import pytest
from oracles import triple_expansion_coassociativity
from test_delta_label import twisted_trig

from poissonhopf.bialgebra import bialgebra_coproduct, induce_bialgebra
from poissonhopf.coalgebra import CoalgebraSpec, builtin
from poissonhopf.free_hopf import free_poisson_hopf
from poissonhopf.linalg import row_reduce, unit_vec
from poissonhopf.lyndon import LyndonWord
from poissonhopf.poisson import PoissMonomial
from poissonhopf.targets import sl2_hopf
from poissonhopf.verify import (
    Report,
    Skip,
    Violation,
    check_antipode,
    check_antipode_antimorphism,
    check_antipode_convolution,
    check_coassociativity,
    check_counit,
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


def test_jacobi_walks_the_budget_lists():
    # trig M=2 N=4 has 161 classes: walking the budget lists asks for a
    # degree per label and per label pair, never per triple
    H = free_poisson_hopf(builtin("trig"), 2, 4, check=False)
    calls = []

    def label_degree(l):
        calls.append(l)
        return H.label_degree(l)

    report = check_jacobi(Corrupted(H, label_degree=label_degree))
    assert report.ok and report.checked == 581
    assert len(calls) <= 2000


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


def test_corrupted_symmetric_hopf_reports_counit_and_jacobi_residuals():
    # the labels of S(g) are index tuples, and a residual over them renders
    # as a vector over single labels, not as a tensor
    S = sl2_hopf(3)

    def bad_epsilon(label):
        return 1 if label == (0,) else S.epsilon_label(label)

    counit = check_counit(Corrupted(S, epsilon_label=bad_epsilon))
    assert counit.checked == 40
    lines = counit.lines()
    assert lines[:2] == [
        "counit-left fails at (e): residual 1",
        "counit-right fails at (e): residual 1",
    ]
    assert "counit-left fails at (e*e): residual 2*e" in lines

    def bad_bracket(a, b):
        # [e, f] = e*f in one orientation only
        return unit_vec((0, 1)) if (a, b) == ((0,), (1,)) else S.bracket_labels(a, b)

    jacobi = check_jacobi(Corrupted(S, bracket_labels=bad_bracket))
    assert [(v.witnesses, v.residual) for v in jacobi.violations] == [
        (("e", "e", "f"), "2*e + 1*e*h"),
        (("e", "f", "f"), "-2*f + -1*f*h"),
        (("e", "f", "h"), "2*e*f + -2*h"),
    ]


def test_sign_flipped_antipode_entry_fails():
    H = free_poisson_hopf(builtin("grouplike-1"), 2, 4, check=False)
    g0 = gm((0,))

    corrupted = Corrupted(H, antipode_label=lambda m: -H.antipode_label(m) if m == g0 else H.antipode_label(m))
    report = check_antipode_antimorphism(corrupted)
    assert not report.ok


def test_wrong_antipode_of_a_letter_fails_the_convolution_laws():
    H = free_poisson_hopf(builtin("grouplike-1"), 2, 4, check=False)
    g0 = gm((0,))
    corrupted = Corrupted(H, antipode_label=lambda m: -H.antipode_label(m) if m == g0 else H.antipode_label(m))
    report = check_antipode(corrupted)
    # S(g_0) g_0 = -g_1 g_0 = -1, so both sides miss eps(g_0) 1 = 1 by -2
    convolution = [v for v in report.violations if v.law.startswith("antipode-convolution")]
    assert convolution == [
        Violation("antipode-convolution-left", ("g_0",), "-2"),
        Violation("antipode-convolution-right", ("g_0",), "-2"),
    ]
    assert check_antipode(H).ok


def test_convolution_skips_classes_past_half_the_budget():
    # Delta(g_0^3) = g_0^3 (x) g_0^3, and S(g_0^3) g_0^3 has degree 6 > N = 4
    H = free_poisson_hopf(builtin("grouplike-1"), 2, 4, check=False)
    cube = gm((0,), (0,), (0,))
    assert cube in H.labels_upto()
    report = check_antipode_convolution(H, [cube], H.antipode_label, "antipode-convolution")
    assert report.checked == 0 and report.ok
    assert report.skipped == [
        Skip("antipode-convolution", ("1 labels",), "2*deg > N, so S(a)*b may leave the budget")
    ]
    # formed anyway, the truncated product drops S(g_0^3) g_0^3 = 1 and a
    # true law reads as a violation: the guard must stay
    naive = check_antipode_convolution(Corrupted(H, truncation=8), [cube], H.antipode_label, "naive")
    assert naive.violations == [
        Violation("naive-left", ("g_0*g_0*g_0",), "-1"),
        Violation("naive-right", ("g_0*g_0*g_0",), "-1"),
    ]


def test_symmetric_lie_hopf_passes_the_convolution_laws_without_a_stage_skip():
    S = sl2_hopf(4)
    report = check_antipode(S)
    assert report.ok and report.checked > 0
    assert [s.reason for s in report.skipped] == ["2*deg > N, so S(a)*b may leave the budget"]
    convolution = check_antipode_convolution(S, S.labels_upto(), S.antipode_label, "antipode-convolution")
    # the unit and every label of degree <= 2, two sides each
    assert convolution.checked == 2 * sum(1 for l in S.labels_upto() if len(l) <= 2)


def test_zero_bracket_structures_pass_antipode_bracket_law():
    H = free_poisson_hopf(builtin("grouplike-1"), 2, 4, check=False)
    report = check_antipode_antimorphism(H)
    assert report.ok and report.checked > 0


def test_antipode_antimorphism_records_its_skipped_pairs():
    # S is total, on the free Hopf quotient as on a symmetric Lie Hopf
    # algebra: both laws are formed on every label pair, and none is skipped
    for structure in (free_poisson_hopf(builtin("trig"), 2, 3), sl2_hopf(3)):
        labels = structure.labels_upto()
        pairs = sum(1 for a in labels for b in labels
                    if structure.label_degree(a) + structure.label_degree(b) <= structure.truncation)
        report = check_antipode_antimorphism(structure)
        assert report == Report(checked=2 * pairs)


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
    skip = Skip("antipode-convolution", ("1 labels",), "2*deg > N, so S(a)*b may leave the budget")
    partial = Report(checked=2).merge(Report(skipped=[skip]))
    assert partial.ok and partial.skipped == [skip]
    assert partial.to_json_obj() == {
        "checked": 2,
        "violations": [],
        "skipped": [
            {"law": "antipode-convolution", "witnesses": ["1 labels"],
             "reason": "2*deg > N, so S(a)*b may leave the budget"}
        ],
    }
    assert partial.lines() == [
        "ok: 2 residuals, all zero",
        "antipode-convolution skipped at (1 labels): 2*deg > N, so S(a)*b may leave the budget",
    ]


def test_report_defaults_are_fresh_and_constructors_name_their_fields():
    assert Report().violations is not Report().violations
    assert Report().skipped is not Report().skipped
    violation = Violation("leibniz", ("a", "b", "c"), "2*a")
    skip = Skip("antipode-convolution", ("1 labels",), "2*deg > N, so S(a)*b may leave the budget")
    positional = Report([violation])
    assert positional.violations == [violation] and positional.checked == 0
    assert not positional.skipped and positional == Report(violations=[violation])
    counted = Report(checked=3)
    assert counted.checked == 3 and not counted.violations and not counted.skipped
    skipping = Report(skipped=[skip])
    assert skipping.skipped == [skip] and not skipping.violations and skipping.checked == 0
    assert repr(counted) == "Report(violations=[], checked=3, skipped=[])"


@pytest.mark.parametrize(
    "record, field",
    [
        (Violation("leibniz", ("a",), "1"), "law"),
        (Skip("antipode", ("a",), "why"), "reason"),
        (builtin("trig"), "basis"),
        (row_reduce([unit_vec("a")]), "rows"),
    ],
)
def test_value_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    hash(record)  # and they stay hashable


def test_checker_results_independent_of_basis_order():
    B = induce_bialgebra(builtin("trig"), 3)
    reversed_labels = Corrupted(B, labels_upto=lambda: list(reversed(B.labels_upto())))
    for check in (check_poisson_compat, check_jacobi):
        fwd = check(B)
        bwd = check(reversed_labels)
        assert fwd.ok == bwd.ok
        assert fwd.checked == bwd.checked


# ---- coassociativity against the triple expansion ----------------------------


def broken_spec():
    # delta(g) = g (x) g + h (x) h with h group-like is not coassociative
    return CoalgebraSpec.make(
        ("g", "h"),
        {"g": [("g", "g", 1), ("h", "h", 1)], "h": [("h", "h", 1)]},
        {"g": 1, "h": 1},
    )


def one_sided_spec(left_heavy):
    # delta(g) = g (x) h, or h (x) g, with delta(h) = 0: only one side of the
    # law has a term, so the check must compare the sides' sizes too
    pair = ("g", "h") if left_heavy else ("h", "g")
    return CoalgebraSpec.make(("g", "h"), {"g": [(*pair, 1)]}, {"g": 1})


def corrupted_trig():
    # perturb the coproduct of several labels; every label whose coproduct
    # reaches a victim through one of its slots fails
    B = induce_bialgebra(builtin("trig"), 3)
    victims = set(list(B.labels_upto())[1:9:2])

    def bad_delta(m):
        out = B.delta_label(m)
        return out + unit_vec((m, m), 2) if m in victims else out

    return Corrupted(B, delta_label=bad_delta)


COASSOCIATIVITY_CASES = {
    "trig-N3": lambda: induce_bialgebra(builtin("trig"), 3),
    "trig-with-twisted-trig-N3": lambda: bialgebra_coproduct(
        [induce_bialgebra(builtin("trig"), 3), induce_bialgebra(twisted_trig(), 3)]
    ).bialgebra,
    "sl2-hopf-4": lambda: sl2_hopf(4),
    "spec-matrix-2": lambda: builtin("matrix-2"),
    "spec-broken": broken_spec,
    "spec-left-heavy": lambda: one_sided_spec(True),
    "spec-right-heavy": lambda: one_sided_spec(False),
    "corrupted-trig-N3": corrupted_trig,
}


NOT_COASSOCIATIVE = {"spec-broken", "spec-left-heavy", "spec-right-heavy", "corrupted-trig-N3"}


@pytest.mark.parametrize("name", sorted(COASSOCIATIVITY_CASES))
def test_coassociativity_matches_triple_expansion(name):
    structure = COASSOCIATIVITY_CASES[name]()
    report = check_coassociativity(structure)
    assert report.to_json_obj() == triple_expansion_coassociativity(structure).to_json_obj()
    assert report.checked == len(list(structure.labels_upto()))
    assert report.ok == (name not in NOT_COASSOCIATIVE)
    if name == "corrupted-trig-N3":
        assert len(report.violations) > 1
