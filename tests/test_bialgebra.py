"""Free Poisson bialgebras on coalgebras, factorization, and their colimits."""

from fractions import Fraction

import pytest
from oracles import class_report
from test_violations_golden import grouplike_delta_into_the_unit

from poissonhopf.bialgebra import (
    CoalgebraMapError,
    PresentedPoissonBialgebra,
    bialgebra_coequalizer,
    bialgebra_coproduct,
    check_bialgebra,
    coideal_certificate,
    factor_through_free,
    generator_certificate,
    induce_bialgebra,
    op_cop,
)
from poissonhopf.coalgebra import CoalgebraSpec, builtin
from poissonhopf.colimits import MorphismTable, fixpoint_certificate, quotient
from poissonhopf.linalg import SparseVec, unit_vec
from poissonhopf.lyndon import LyndonWord
from poissonhopf.poisson import PoissMonomial
from poissonhopf.targets import GroupAlgebra, sl2_hopf
from poissonhopf.verify import Report, Violation, check_counit


def gm(*letters):
    """Monomial from letter tuples."""
    return PoissMonomial(tuple(LyndonWord(l) for l in letters))


def test_grouplike_square_is_grouplike():
    B = induce_bialgebra(builtin("grouplike-1"), 3)
    g2 = gm((0,), (0,))
    assert B.delta_of_monomial(g2) == unit_vec((g2, g2))
    assert B.epsilon_label(g2) == 1


def test_delta_of_bracket_of_grouplikes():
    # Delta{g,h} = gh (x) {g,h} + {g,h} (x) hg, and hg = gh by commutativity
    B = induce_bialgebra(builtin("grouplike-2"), 3)
    w = gm((0, 1))
    gh = gm((0,), (1,))
    assert B.delta_of_monomial(w) == SparseVec({(gh, w): 1, (w, gh): 1})
    assert B.epsilon_label(w) == 0


def test_trig_delta_of_product():
    B = induce_bialgebra(builtin("trig"), 3)
    cs = gm((0,), (1,))
    cc, ss = gm((0,), (0,)), gm((1,), (1,))
    expected = SparseVec({(cs, cc): 1, (cc, cs): 1, (ss, cs): -1, (cs, ss): -1})
    assert B.delta_of_monomial(cs) == expected


@pytest.mark.parametrize(
    "name,n",
    [
        ("grouplike-1", 4),
        ("grouplike-2", 4),
        ("trig", 4),
        ("matrix-2", 2),
        ("matrix-2", 3),
    ],
)
def test_induced_bialgebra_satisfies_axioms(name, n):
    B = induce_bialgebra(builtin(name), n)
    report = check_bialgebra(B)
    assert report.ok, report.lines()


def matrix_2_with_e12_squared():
    # Delta e12 gains e12 (x) e12: eps(e12) = 0 keeps both counit laws, but
    # coassociativity breaks
    B = induce_bialgebra(builtin("matrix-2"), 2)
    e12 = gm((1,))
    table = {**B.delta_table, "e12": B.delta_table["e12"] + unit_vec((e12, e12))}
    return PresentedPoissonBialgebra(B.quotient, table, B.epsilon_table)


@pytest.mark.parametrize(
    "corrupted, law",
    [(grouplike_delta_into_the_unit, "counit-left"), (matrix_2_with_e12_squared, "coassociativity")],
)
def test_generator_certificate_fails_with_check_bialgebra(corrupted, law):
    B = corrupted()
    for report in (generator_certificate(B), check_bialgebra(B)):
        assert {v.law for v in report.violations} == {law}, report.lines()


def test_corrupted_delta_fails_counit():
    B = induce_bialgebra(builtin("grouplike-1"), 2)
    g = gm((0,))
    B.delta_table["g"] = unit_vec((g, PoissMonomial(())))
    B._delta_ambient.words.clear()
    B._delta_ambient.monomials.clear()
    report = check_counit(B)
    assert not report.ok


# ---- universal factorization ----


def test_factor_grouplike_into_group_algebra():
    T = GroupAlgebra(1)
    spec = builtin("grouplike-1")
    fac = factor_through_free(spec, {"g": T.gen(0)}, T, 4)
    for n in range(5):
        power = gm(*([(0,)] * n)) if n else PoissMonomial(())
        assert fac.image(power) == T.gen(0, n)
    assert class_report(fac).ok


def test_factor_grouplike_into_symmetric_hopf():
    T = sl2_hopf(4)
    spec = builtin("grouplike-1")
    # a primitive image is not group-like: rejected
    with pytest.raises(CoalgebraMapError):
        factor_through_free(spec, {"g": T.gen(0)}, T, 3)
    # the unit is the only group-like, and collapses everything
    fac = factor_through_free(spec, {"g": T.one()}, T, 3)
    assert fac.image(gm((0,), (0,))) == T.one()
    assert class_report(fac).ok


def test_factor_trig_into_group_algebra():
    T = GroupAlgebra(1)
    spec = builtin("trig")
    gamma, gamma_inv = T.gen(0), T.gen(0, -1)
    half = Fraction(1, 2)
    cos_like = half * gamma + half * gamma_inv
    sin_like = half * gamma - half * gamma_inv
    # the rational attempt at the circle embedding fails the delta law
    with pytest.raises(CoalgebraMapError) as err:
        factor_through_free(spec, {"c": cos_like, "s": sin_like}, T, 3)
    assert any(v.law == "morphism-delta" for v in err.value.report.violations)
    # the counit-like assignment works and kills all brackets
    fac = factor_through_free(spec, {"c": T.one(), "s": T.zero()}, T, 3)
    assert class_report(fac).ok
    assert not fac.image(PoissMonomial((LyndonWord((0, 1)),)))


def test_factorization_agrees_with_any_split():
    # generator determination: the extension is multiplicative however you
    # group the factors
    T = GroupAlgebra(1)
    fac = factor_through_free(builtin("grouplike-2"), {"g1": T.gen(0), "g2": T.gen(0, 2)}, T, 4)
    for m in fac.source.labels_upto():
        whole = fac.image(m)
        for cut in range(1, len(m.factors)):
            left = PoissMonomial(m.factors[:cut])
            right = PoissMonomial(m.factors[cut:])
            assert whole == T.product(fac.image(left), fac.image(right))


def violations_at(report):
    return [(v.law, v.witnesses) for v in report.violations]


def test_coalgebra_map_reports_pin_their_counts():
    # two residuals, delta and counit, per source label
    T, S = GroupAlgebra(1), sl2_hopf(3)
    cases = [
        (builtin("grouplike-1"), {"g": T.gen(0)}, T, 4, 10),
        (builtin("trig"), {"c": T.one(), "s": T.zero()}, T, 3, 30),
        (builtin("grouplike-1"), {"g": S.one()}, S, 3, 8),
    ]
    for spec, images, target, n, checked in cases:
        report = class_report(factor_through_free(spec, images, target, n))
        assert report.ok and report.checked == checked


def test_rejected_pre_check_and_morphism_report_pin_their_witnesses():
    T = GroupAlgebra(1)
    half = Fraction(1, 2)
    cos_like = half * T.gen(0) + half * T.gen(0, -1)
    sin_like = half * T.gen(0) - half * T.gen(0, -1)
    with pytest.raises(CoalgebraMapError) as err:
        factor_through_free(builtin("trig"), {"c": cos_like, "s": sin_like}, T, 3)
    assert err.value.report.checked == 4
    assert violations_at(err.value.report) == [("morphism-delta", ("c",))]

    src = induce_bialgebra(builtin("grouplike-1"), 3)
    tgt = induce_bialgebra(builtin("trig"), 3)
    f = MorphismTable(src, tgt, {"g": tgt.quotient.normal_form(tgt.ambient.gen("c"))})
    report = f.bialgebra_report()
    assert report.checked == 2
    assert [(v.law, v.witnesses, v.residual) for v in report.violations] == [
        ("morphism-delta", ("g",), "-1*s (x) s")
    ]


def test_direct_factorization_with_non_coalgebra_image_fails_its_report():
    # g |-> 1 + t1 is not group-like; built without the letter certificate
    T = GroupAlgebra(1)
    fac = MorphismTable(induce_bialgebra(builtin("grouplike-1"), 2), T, {"g": T.gen(0) + T.one()})
    report = class_report(fac)
    assert report.checked == 6
    assert violations_at(report) == [
        ("factorization-delta", ("g",)),
        ("factorization-counit", ("g",)),
        ("factorization-delta", ("g*g",)),
        ("factorization-counit", ("g*g",)),
    ]
    assert report.violations[0].residual == "-1*1 (x) t1^1 + -1*t1^1 (x) 1"
    assert [v.residual for v in report.violations[1::2]] == ["1", "3"]


# ---- op-cop twist ----


def test_op_cop_is_involutive_and_negates_bracket():
    B = induce_bialgebra(builtin("grouplike-2"), 3)
    B2 = op_cop(B)
    B4 = op_cop(B2)
    assert B4.bracket_sign == B.bracket_sign
    assert B4.delta_table == B.delta_table
    g1, g2 = B.ambient.gen("g1"), B.ambient.gen("g2")
    assert B2.bracket(g1, g2) == -B.bracket(g1, g2)
    assert check_bialgebra(B2).ok


def test_op_cop_trig_delta_unchanged_matrix_changed():
    Btrig = op_cop(induce_bialgebra(builtin("trig"), 2))
    c_pairs = Btrig.delta_table["c"]
    cc, ss = gm((0,), (0,)), gm((1,), (1,))
    assert c_pairs == SparseVec({(gm((0,)), gm((0,))): 1, (gm((1,)), gm((1,))): -1})
    Bmat = induce_bialgebra(builtin("matrix-2"), 2)
    Bmat2 = op_cop(Bmat)
    assert Bmat2.delta_table["e12"] != Bmat.delta_table["e12"]
    assert check_bialgebra(Bmat2).ok


@pytest.mark.parametrize("twist_source", [False, True])
@pytest.mark.parametrize("twist_target", [False, True])
def test_morphism_table_reads_the_bracket_twist_off_source_and_target(twist_source, twist_target):
    # the identity on letters from matrix-2 or its twist to matrix-2 or its
    # twist is a Poisson map: when exactly one side is twisted it negates
    # the bracket of two letters
    B, C = (induce_bialgebra(builtin("matrix-2"), 2) for _ in range(2))
    source = op_cop(B) if twist_source else B
    target = op_cop(C) if twist_target else C
    f = MorphismTable(source, target, {n: C.ambient.gen(n) for n in B.ambient.alphabet})
    x, y = B.ambient.gen("e11"), B.ambient.gen("e12")
    assert f.apply(source.bracket(x, y)) == target.bracket(f.apply(x), f.apply(y))


# ---- coproducts ----


def test_coproduct_of_two_grouplike_lines():
    B = induce_bialgebra(builtin("grouplike-1"), 3)
    cp = bialgebra_coproduct([B, B])
    amb = cp.bialgebra.ambient
    assert amb.alphabet == ("g_0", "g_1")
    for name in amb.alphabet:
        mono = PoissMonomial((LyndonWord((amb.index(name),)),))
        assert cp.bialgebra.delta_table[name] == unit_vec((mono, mono))
    assert check_bialgebra(cp.bialgebra).ok


def test_coproduct_with_initial_bialgebra_is_identity():
    B = induce_bialgebra(builtin("trig"), 3)
    K = induce_bialgebra(CoalgebraSpec.make((), {}, {}), 3)
    cp = bialgebra_coproduct([B, K])
    assert cp.bialgebra.quotient.graded_dims() == B.quotient.graded_dims()
    assert check_bialgebra(cp.bialgebra).ok


def test_coproduct_trig_grouplike_axioms():
    cp = bialgebra_coproduct(
        [induce_bialgebra(builtin("trig"), 3), induce_bialgebra(builtin("grouplike-1"), 3)]
    )
    assert check_bialgebra(cp.bialgebra).ok
    assert cp.bialgebra.quotient.graded_dims() == [1, 3, 9, 27]


def test_coproduct_with_twisted_operand_is_still_a_bialgebra():
    B = induce_bialgebra(builtin("matrix-2"), 2)
    cp = bialgebra_coproduct([B, op_cop(B)])
    assert check_bialgebra(cp.bialgebra).ok
    inj = cp.injections[1]
    # the injection respects the twisted bracket
    amb = B.ambient
    x, y = amb.gen("e11"), amb.gen("e12")
    twisted = op_cop(B).bracket(x, y)
    assert inj.apply(twisted) == cp.bialgebra.bracket(inj.apply(x), inj.apply(y))


# ---- coequalizers ----


def test_coequalizer_identifies_grouplikes():
    src = induce_bialgebra(builtin("grouplike-1"), 3)
    tgt = induce_bialgebra(builtin("grouplike-2"), 3)
    f = MorphismTable(src, tgt, {"g": tgt.quotient.normal_form(tgt.ambient.gen("g1"))})
    g = MorphismTable(src, tgt, {"g": tgt.quotient.normal_form(tgt.ambient.gen("g2"))})
    out = bialgebra_coequalizer(f, g)
    assert out.certificate.ok
    assert out.bialgebra.quotient.graded_dims() == [1, 1, 1, 1]
    # the surviving generator class is group-like
    report = check_bialgebra(out.bialgebra)
    assert report.ok
    # epsilon vanishes on every ideal row
    for row in out.bialgebra.quotient.ideal.rows:
        assert out.bialgebra.epsilon(out.bialgebra.ambient.elt(row)) == 0


def test_coideal_certificate_fails_on_an_ideal_that_is_no_coideal():
    # g1 = g2 + 1 is a Poisson ideal of grouplike-2, but Delta(g1 - g2 - 1)
    # = g2 (x) 1 + 1 (x) g2 in the quotient and epsilon(g1 - g2 - 1) = -1
    B = induce_bialgebra(builtin("grouplike-2"), 3)
    amb = B.ambient
    q = quotient(amb, [amb.gen("g1") - amb.gen("g2") - amb.one()])
    assert fixpoint_certificate(q).ok and q.ideal.rank == 11
    bad = PresentedPoissonBialgebra(q, B.delta_table, B.epsilon_table)
    on_generators = coideal_certificate(bad, (g.vec for g in q.generators))
    assert on_generators.checked == 2
    assert [v.law for v in on_generators.violations] == ["coideal-delta", "coideal-counit"]
    assert on_generators.violations[1].residual == "-1"
    on_rows = coideal_certificate(bad, q.ideal.rows)
    assert on_rows.checked == 22 and len(on_rows.violations) == 12


def test_coequalizer_checks_each_morphism_once(monkeypatch):
    src = induce_bialgebra(builtin("grouplike-1"), 4)
    tgt = induce_bialgebra(builtin("grouplike-2"), 4)
    f, g = (
        MorphismTable(src, tgt, {"g": tgt.quotient.normal_form(tgt.ambient.gen(name))})
        for name in ("g1", "g2")
    )
    checked = []
    original = MorphismTable.well_defined_report

    def counted(table):
        checked.append(table)
        return original(table)

    monkeypatch.setattr(MorphismTable, "well_defined_report", counted)
    out = bialgebra_coequalizer(f, g)
    assert out.certificate.ok
    assert len(checked) == 2 and checked[0] is f and checked[1] is g


def test_generator_certificate_stops_at_an_ideal_that_is_no_coideal():
    # the class loops cannot see that Delta is ill-defined on this quotient;
    # the certificate checks the coideal first and stops there
    B = induce_bialgebra(builtin("grouplike-2"), 3)
    amb = B.ambient
    q = quotient(amb, [amb.gen("g1") - amb.gen("g2") - amb.one()])
    bad = PresentedPoissonBialgebra(q, B.delta_table, B.epsilon_table)
    assert check_bialgebra(bad).ok
    report = generator_certificate(bad)
    assert {v.law for v in report.violations} == {"coideal-delta", "coideal-counit"}


def test_coequalizer_needs_the_fixpoint_certificate_first(monkeypatch):
    import poissonhopf.bialgebra as bialgebra

    src = induce_bialgebra(builtin("grouplike-1"), 3)
    tgt = induce_bialgebra(builtin("grouplike-2"), 3)
    f, g = (
        MorphismTable(src, tgt, {"g": tgt.quotient.normal_form(tgt.ambient.gen(name))})
        for name in ("g1", "g2")
    )
    failing = Report(violations=[Violation("ideal-product-closure", ("g1", "g1 - g2"), "g1^2")])
    coideal_runs = []
    monkeypatch.setattr(bialgebra, "fixpoint_certificate", lambda q: failing)
    monkeypatch.setattr(bialgebra, "coideal_certificate", lambda B, vectors: coideal_runs.append(B))
    with pytest.raises(RuntimeError, match="fixpoint certificate failed"):
        bialgebra_coequalizer(f, g)
    assert coideal_runs == []


def test_coequalizer_of_equal_maps_is_identity():
    src = induce_bialgebra(builtin("grouplike-1"), 3)
    tgt = induce_bialgebra(builtin("grouplike-2"), 3)
    f = MorphismTable(src, tgt, {"g": tgt.quotient.normal_form(tgt.ambient.gen("g1"))})
    out = bialgebra_coequalizer(f, f)
    assert out.bialgebra.quotient.ideal.rank == 0
    assert out.bialgebra.quotient.graded_dims() == tgt.quotient.graded_dims()


def test_coequalizer_rejects_non_coalgebra_map():
    src = induce_bialgebra(builtin("grouplike-1"), 3)
    tgt = induce_bialgebra(builtin("trig"), 3)
    # c is not group-like in P(trig)
    f = MorphismTable(src, tgt, {"g": tgt.quotient.normal_form(tgt.ambient.gen("c"))})
    with pytest.raises(ValueError, match="not a bialgebra morphism"):
        bialgebra_coequalizer(f, f)


def test_morphism_report_flags_counit():
    src = induce_bialgebra(builtin("grouplike-1"), 2)
    tgt = induce_bialgebra(builtin("grouplike-1"), 2)
    f = MorphismTable(src, tgt, {"g": 2 * tgt.quotient.normal_form(tgt.ambient.gen("g"))})
    report = f.bialgebra_report()
    assert any(v.law in ("morphism-delta", "morphism-counit") for v in report.violations)
