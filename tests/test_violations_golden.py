"""Golden failure reports: every checker and certificate on a corrupted structure.

``tests/golden/violations.json`` holds, per case, the ``to_json_obj()`` of
one checker or certificate run on a structure broken on purpose: a
corrupted label map, a wrong antipode, an ideal with rows dropped, a map
that is no morphism.  The laws, witnesses, residual strings, counts and
skips, and their order, must keep every byte.  Regenerate (only for an
intended output change) with

    PYTHONPATH=src python tests/test_violations_golden.py
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import class_report
from test_free_hopf import left_relations_hopf
from test_verify import Corrupted, broken_spec, corrupted_trig, gm, one_sided_spec

from poissonhopf.bialgebra import (
    CoalgebraMapError,
    PresentedPoissonBialgebra,
    coideal_certificate,
    factor_through_free,
    induce_bialgebra,
)
from poissonhopf.coalgebra import CoalgebraSpec, builtin, validate_coalgebra
from poissonhopf.colimits import (
    MorphismTable,
    TruncatedQuotient,
    fixpoint_certificate,
    free_quotient,
    quotient,
)
from poissonhopf.free_hopf import (
    TruncatedHopf,
    free_poisson_hopf,
    s_prime_stability_certificate,
    staged_coproduct,
    verify_antipode,
)
from poissonhopf.linalg import SubspaceBasis, unit_vec
from poissonhopf.poisson import FreePoissonAlgebra
from poissonhopf.targets import GroupAlgebra, sl2_hopf
from poissonhopf.verify import (
    check_antipode,
    check_antipode_antimorphism,
    check_antipode_convolution,
    check_coassociativity,
    check_counit,
    check_jacobi,
    check_leibniz,
    check_poisson_compat,
)

GOLDEN = Path(__file__).parent / "golden" / "violations.json"


# ---- corrupted structures ---------------------------------------------------


def bad_grouplike_2_bracket(both_orientations):
    # {g1, g2} = g1, in one orientation or in both
    B = induce_bialgebra(builtin("grouplike-2"), 3)
    a, b = gm((0,)), gm((1,))

    def bracket(x, y):
        if (x, y) == (a, b):
            return unit_vec(a)
        if both_orientations and (x, y) == (b, a):
            return unit_vec(a, -1)
        return B.bracket_labels(x, y)

    return Corrupted(B, bracket_labels=bracket)


def negated_bracket_delta():
    B = induce_bialgebra(builtin("grouplike-2"), 3)
    w = gm((0, 1))
    return Corrupted(B, delta_label=lambda m: -B.delta_label(m) if m == w else B.delta_label(m))


def grouplike_delta_into_the_unit():
    # Delta g = g (x) 1 breaks the left counit law
    B = induce_bialgebra(builtin("grouplike-1"), 2)
    g = gm((0,))
    one = gm()
    return Corrupted(B, delta_label=lambda m: unit_vec((g, one)) if m == g else B.delta_label(m))


def sl2_with(corrupted):
    # sl2_hopf(3) with one label map replaced
    S = sl2_hopf(3)
    maps = {
        # eps(e) = 1
        "epsilon_label": lambda l: 1 if l == (0,) else S.epsilon_label(l),
        # [e, f] = e*f in one orientation only
        "bracket_labels": lambda a, b: unit_vec((0, 1)) if (a, b) == ((0,), (1,)) else S.bracket_labels(a, b),
    }
    return Corrupted(S, **{corrupted: maps[corrupted]})


def grouplike_hopf_negating_s_of(m0):
    H = free_poisson_hopf(builtin("grouplike-1"), 2, 4)
    return Corrupted(H, antipode_label=lambda m: -H.antipode_label(m) if m == m0 else H.antipode_label(m))


def naive_convolution():
    # the budget guard lifted: a true law reads as a violation
    H = free_poisson_hopf(builtin("grouplike-1"), 2, 4)
    cube = gm((0,), (0,), (0,))
    return check_antipode_convolution(Corrupted(H, truncation=8), [cube], H.antipode_label, "naive")


def empty_ideal_hopf():
    staged = staged_coproduct(induce_bialgebra(builtin("grouplike-1"), 4), 2)
    return TruncatedHopf(staged, quotient(staged.ambient, []))


def counit_breaking_spec():
    return CoalgebraSpec.make(("g", "h"), {"g": [("g", "h", 1)], "h": [("h", "h", 1)]}, {"g": 1, "h": 1})


def rejected_pre_check():
    T = GroupAlgebra(1)
    half = Fraction(1, 2)
    images = {"c": half * T.gen(0) + half * T.gen(0, -1), "s": half * T.gen(0) - half * T.gen(0, -1)}
    try:
        factor_through_free(builtin("trig"), images, T, 3)
    except CoalgebraMapError as err:
        return err.report
    raise AssertionError("the letter certificate accepted a non-coalgebra map")


def missing_image_pre_check():
    try:
        factor_through_free(builtin("trig"), {"c": GroupAlgebra(1).one()}, GroupAlgebra(1), 3)
    except CoalgebraMapError as err:
        return err.report
    raise AssertionError("the letter certificate accepted a partial map")


def non_grouplike_factorization():
    T = GroupAlgebra(1)
    spec = builtin("grouplike-1")
    B = induce_bialgebra(spec, 2)
    return class_report(MorphismTable(B, T, {"g": T.gen(0) + T.one()}))


def grouplike_morphism(image, target="trig", scale=1):
    src = induce_bialgebra(builtin("grouplike-1"), 3)
    tgt = induce_bialgebra(builtin(target), 3)
    table = MorphismTable(src, tgt, {"g": scale * tgt.quotient.normal_form(tgt.ambient.gen(image))})
    return table.bialgebra_report()


def no_coideal(rows):
    # g1 = g2 + 1 is a Poisson ideal of grouplike-2 but no coideal
    B = induce_bialgebra(builtin("grouplike-2"), 3)
    amb = B.ambient
    q = quotient(amb, [amb.gen("g1") - amb.gen("g2") - amb.one()])
    bad = PresentedPoissonBialgebra(q, B.delta_table, B.epsilon_table)
    return coideal_certificate(bad, q.ideal.rows if rows else (g.vec for g in q.generators))


def hopf_with_dropped_rows():
    # every other ideal row of grouplike-1 at M=3 N=3 dropped
    H = free_poisson_hopf(builtin("grouplike-1"), 3, 3)
    ideal = H.quotient.ideal
    kept = SubspaceBasis(ideal.rows[::2], ideal.pivots[::2])
    return TruncatedHopf(H.staged, TruncatedQuotient(H.ambient, kept, H.quotient.generators))


def sprime_stability(H, rows):
    q = H.quotient
    return s_prime_stability_certificate(H, q.ideal.rows if rows else (g.vec for g in q.generators))


def line_morphism(image):
    # x |-> image(y) out of Q[x]/(x^2) into Q[y], at budget 2; no image when None
    src_amb = FreePoissonAlgebra(("x",), 2)
    x = src_amb.gen("x")
    source = quotient(src_amb, [x * x])
    target = free_quotient(FreePoissonAlgebra(("y",), 2))
    images = {} if image is None else {"x": image(target.ambient.gen("y"))}
    return MorphismTable(source, target, images).well_defined_report()


CASES = {
    "coassociativity/corrupted-trig-N3": lambda: check_coassociativity(corrupted_trig()),
    "coassociativity/spec-broken": lambda: check_coassociativity(broken_spec()),
    "coassociativity/spec-left-heavy": lambda: check_coassociativity(one_sided_spec(True)),
    "validate/counit-breaking-spec": lambda: validate_coalgebra(counit_breaking_spec()),
    "counit/grouplike-1-delta-into-the-unit": lambda: check_counit(grouplike_delta_into_the_unit()),
    "counit/sl2-bad-epsilon": lambda: check_counit(sl2_with("epsilon_label")),
    "poisson-compat/grouplike-2-negated-bracket-delta": lambda: check_poisson_compat(negated_bracket_delta()),
    "leibniz/grouplike-2-bad-bracket": lambda: check_leibniz(bad_grouplike_2_bracket(True)),
    "jacobi/grouplike-2-one-sided-bracket": lambda: check_jacobi(bad_grouplike_2_bracket(False)),
    "jacobi/sl2-one-sided-bracket": lambda: check_jacobi(sl2_with("bracket_labels")),
    "antipode-antimorphism/grouplike-1-negated-s-g0": lambda: check_antipode_antimorphism(
        grouplike_hopf_negating_s_of(gm((0,)))
    ),
    "antipode/grouplike-1-negated-s-g0": lambda: check_antipode(grouplike_hopf_negating_s_of(gm((0,)))),
    "antipode/empty-ideal": lambda: verify_antipode(empty_ideal_hopf()),
    "antipode-convolution/naive-budget": naive_convolution,
    "coalgebra-map/rejected-pre-check": rejected_pre_check,
    "coalgebra-map/missing-image": missing_image_pre_check,
    "coalgebra-map/non-grouplike-factorization": non_grouplike_factorization,
    "morphism/grouplike-to-c": lambda: grouplike_morphism("c"),
    "morphism/grouplike-to-twice-g": lambda: grouplike_morphism("g", "grouplike-1", 2),
    "coideal/generators": lambda: no_coideal(False),
    "coideal/rows": lambda: no_coideal(True),
    "fixpoint/dropped-rows-M3": lambda: fixpoint_certificate(hopf_with_dropped_rows().quotient),
    "sprime-stability/dropped-rows-M3": lambda: sprime_stability(hopf_with_dropped_rows(), True),
    "sprime-stability/matrix-2-left-relations": lambda: sprime_stability(left_relations_hopf(), False),
    "well-defined/lossy-image": lambda: line_morphism(lambda y: y * y),
    "well-defined/non-vanishing-image": lambda: line_morphism(lambda y: y),
    "well-defined/missing-image": lambda: line_morphism(None),
}


def render_golden() -> str:
    reports = {name: make().to_json_obj() for name, make in CASES.items()}
    return json.dumps(reports, indent=2, sort_keys=True) + "\n"


def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_holds_one_failing_report_per_case():
    reports = golden()
    assert sorted(reports) == sorted(CASES)
    assert all(r["violations"] or r.get("skipped") for r in reports.values())


@pytest.mark.parametrize("name", sorted(CASES))
def test_failure_report_matches_golden(name):
    assert CASES[name]().to_json_obj() == golden()[name]


if __name__ == "__main__":
    GOLDEN.write_text(render_golden(), encoding="utf-8")
