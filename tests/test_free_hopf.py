"""Staged construction: shift map, convolution relations, Hopf quotients."""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from poissonhopf import free_hopf
from poissonhopf.bialgebra import bialgebra_coequalizer, check_bialgebra, induce_bialgebra, op_cop
from poissonhopf.coalgebra import builtin
from poissonhopf.colimits import MorphismTable, quotient
from poissonhopf.free_hopf import (
    StageOverflowError,
    TruncatedHopf,
    free_poisson_hopf,
    hopf_coproduct_antipode,
    free_poisson_hopf_on_bialgebra,
    hopf_ideal_generators,
    s_prime_stability_certificate,
    staged_coproduct,
    verify_antipode,
)
from poissonhopf.linalg import SparseVec
from poissonhopf.poisson import extend_letters, poiss_bracket, poiss_product
from poissonhopf.exprs import parse
from poissonhopf.verify import Report, Violation

from oracles import flip_bracket, hopf_relations_oracle, rename_letters


def test_staged_coproduct_grouplike_two_stages():
    B = induce_bialgebra(builtin("grouplike-1"), 4)
    staged = staged_coproduct(B, 2)
    amb = staged.ambient
    assert amb.alphabet == ("g_0", "g_1")
    for name in amb.alphabet:
        pairs = staged.bialgebra.delta_table[name]
        assert len(pairs) == 1  # still group-like after the cop twist


def test_staged_requires_two_stages():
    B = induce_bialgebra(builtin("grouplike-1"), 3)
    with pytest.raises(StageOverflowError):
        staged_coproduct(B, 1)


def test_stage_one_bracket_is_negated():
    # the stage-0 injection embeds the base bracket element as +{c_0,s_0};
    # the stage-1 injection carries the op twist, so the same element of the
    # base lands on -{c_1,s_1}
    B = induce_bialgebra(builtin("trig"), 3)
    staged = staged_coproduct(B, 2)
    from poissonhopf.bialgebra import bialgebra_coproduct, op_cop

    cp = bialgebra_coproduct([B, op_cop(B)])
    amb = staged.ambient
    base_bracket = poiss_bracket(B.ambient.gen("c"), B.ambient.gen("s"))
    img0 = cp.injections[0].apply(base_bracket)
    img1 = cp.injections[1].apply(base_bracket)
    c0s0 = poiss_bracket(amb.gen("c_0"), amb.gen("s_0"))
    c1s1 = poiss_bracket(amb.gen("c_1"), amb.gen("s_1"))
    assert img0 == c0s0
    assert img1 == -c1s1


def test_s_prime_on_generators_products_brackets():
    B = induce_bialgebra(builtin("grouplike-2"), 4)
    staged = staged_coproduct(B, 2)
    amb = staged.ambient
    g0, h0 = amb.gen("g1_0"), amb.gen("g2_0")
    g1, h1 = amb.gen("g1_1"), amb.gen("g2_1")
    assert staged.s_prime(g0) == g1
    assert staged.s_prime(poiss_product(g0, h0)) == poiss_product(g1, h1)
    # anti-morphism on the bracket: S'({a,b}) = {S'b, S'a} = -{S'a, S'b}
    assert staged.s_prime(poiss_bracket(g0, h0)) == -poiss_bracket(g1, h1)


@functools.cache
def _staged_m3_n4(name):
    return staged_coproduct(induce_bialgebra(builtin(name), 4), 3)


def _coefficients():
    return st.integers(-3, 3).filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["grouplike-2", "trig"]), st.data())
def test_s_prime_matches_the_renaming_oracle(name, data):
    # below the last stage the stage map preserves letter order, so there S'
    # is the order-preserving renaming after the bracket flip; the fold-back
    # of the last stage does not preserve it, so those monomials are left out
    staged = _staged_m3_n4(name)
    amb = staged.ambient
    last = set(staged.letter_maps[-1].values())
    below_last = [m for m in amb.monomials_upto() if not any(i in last for f in m.factors for i in f.letters)]
    entries = data.draw(st.dictionaries(st.sampled_from(below_last), _coefficients(), max_size=6))
    elt = amb.elt(SparseVec(entries))
    assert staged.s_prime(elt) == amb.elt(rename_letters(flip_bracket(elt.vec), staged.shift))


def test_stage_swap_extends_to_a_bracket_antimorphism():
    # at M=2 the stage map is the stage-0 <-> stage-1 swap; it reverses letter
    # order, so no order-preserving renaming expresses it; its extension is an
    # algebra map and a bracket anti-morphism on every in-budget pair, and an
    # involution
    n = 4
    staged = staged_coproduct(induce_bialgebra(builtin("trig"), n), 2)
    amb = staged.ambient
    lm0, lm1 = staged.letter_maps
    swap = {**{lm0[i]: lm1[i] for i in lm0}, **{lm1[i]: lm0[i] for i in lm0}}
    assert staged.shift == swap
    c0c1 = poiss_bracket(amb.gen("c_0"), amb.gen("c_1"))
    with pytest.raises(ValueError, match="not a Lyndon word"):
        rename_letters(c0c1.vec, swap)
    S = extend_letters(lambda letter: amb.gen(amb.alphabet[swap[letter]]), amb, -1)
    monomials = amb.monomials_upto()
    image = {m: S.monomial(m) for m in monomials}
    assert not any(x.lossy for x in image.values())
    pairs = 0
    for a, b in itertools.product(monomials, repeat=2):
        if a.degree + b.degree > n:
            continue
        ea, eb = amb.monomial_elt(a), amb.monomial_elt(b)
        assert S.apply(poiss_product(ea, eb), amb) == poiss_product(image[a], image[b])
        assert S.apply(poiss_bracket(ea, eb), amb) == poiss_bracket(image[b], image[a])
        pairs += 1
    assert pairs > 1000
    assert all(S.apply(image[m], amb) == amb.monomial_elt(m) for m in monomials)


def left_relations_hopf():
    # matrix-2 M=2 N=3 quotiented by the left convolution relations alone
    staged = staged_coproduct(induce_bialgebra(builtin("matrix-2"), 3), 2)
    left = [staged.convolution_relation(base, 0, "left") for base in staged.base.ambient.alphabet]
    return TruncatedHopf(staged, quotient(staged.ambient, [*staged.bialgebra.quotient.generators, *left]))


@pytest.mark.parametrize("name, n, rank", [("trig", 4, 180), ("matrix-2", 3, 111)])
def test_two_stage_hopf_ideal_is_closed_under_the_stage_swap(name, n, rank):
    # S' is the stage-0 <-> stage-1 swap at M=2: each ideal row, not only each
    # generator, swaps back into the ideal
    H = free_poisson_hopf(builtin(name), 2, n)
    on_rows = s_prime_stability_certificate(H, H.quotient.ideal.rows)
    assert H.quotient.ideal.rank == rank == on_rows.checked and on_rows.ok


def test_left_convolution_relations_alone_are_not_closed_under_the_stage_swap():
    # negative control: the swap sends a left relation to a right one, so the
    # ideal of the left relations alone is not swap-stable on matrix-2, whose
    # two sides differ; the certificate fails on the generators and on the rows
    H = left_relations_hopf()
    on_generators = s_prime_stability_certificate(H, (g.vec for g in H.quotient.generators))
    on_rows = s_prime_stability_certificate(H, H.quotient.ideal.rows)
    assert (len(on_generators.violations), on_generators.checked) == (4, 4)
    assert (len(on_rows.violations), on_rows.checked) == (64, 68)


def test_fold_back_stage_map_keeps_the_three_stage_ideal():
    # at M=3 S' sends stage 2 to stage 1 and every other stage one stage up
    H = free_poisson_hopf(builtin("trig"), 3, 4)
    on_rows = s_prime_stability_certificate(H, H.quotient.ideal.rows)
    assert H.quotient.ideal.rank == 1394 == on_rows.checked and on_rows.ok


@pytest.mark.parametrize("stages", [2, 3, 4])
@pytest.mark.parametrize("name", ["grouplike-1", "grouplike-2", "trig", "matrix-2"])
def test_shift_moves_each_letter_one_stage_up(name, stages):
    # ...and folds the last stage back to stage M-2
    staged = staged_coproduct(induce_bialgebra(builtin(name), 2), stages)
    alphabet = staged.ambient.alphabet

    def parsed(letter):  # the oracle reads a staged letter's name as "<base>_<stage>"
        base, _, stage = alphabet[letter].rpartition("_")
        return base, int(stage)

    assert sorted(staged.shift) == list(range(len(alphabet)))
    for j, up in staged.shift.items():
        base, stage = parsed(j)
        assert parsed(up) == (base, stage + 1 if stage < stages - 1 else stages - 2)


def test_hopf_ideal_generators_grouplike():
    B = induce_bialgebra(builtin("grouplike-1"), 4)
    staged = staged_coproduct(B, 2)
    gens = hopf_ideal_generators(staged)
    assert len(gens) == 2 * 1 * 1
    expected = parse("g_1*g_0 - 1", staged.ambient)
    assert all(g == expected for g in gens)


def test_hopf_ideal_generators_trig_expansion():
    B = induce_bialgebra(builtin("trig"), 3)
    staged = staged_coproduct(B, 2)
    gens = hopf_ideal_generators(staged)
    assert len(gens) == 2 * 2 * 1
    left_c = staged.convolution_relation("c", 0, "left")
    assert left_c == parse("c_1*c_0 - s_1*s_0 - 1", staged.ambient)


def test_hopf_ideal_generator_count_three_stages():
    B = induce_bialgebra(builtin("trig"), 2)
    staged = staged_coproduct(B, 3)
    assert len(hopf_ideal_generators(staged)) == 2 * 2 * 2


@pytest.mark.parametrize("stages", [2, 3])
@pytest.mark.parametrize("name", ["grouplike-1", "grouplike-2", "trig", "matrix-2"])
def test_hopf_relations_match_the_element_oracle(name, stages):
    # the antipode law's residuals at the staged letters, with S' for S, are
    # the relations that element arithmetic on the coproduct table gives
    staged = staged_coproduct(induce_bialgebra(builtin(name), 3), stages)
    gens = hopf_ideal_generators(staged)
    assert gens == hopf_relations_oracle(staged)
    assert all(not g.is_zero() for g in gens)


def test_free_hopf_raises_before_any_coideal_residual_when_the_fixpoint_fails(monkeypatch):
    failing = Report(violations=[Violation("ideal-product-closure", ("g_0", "g_1*g_0 - 1"), "g_0^2")])
    coideal_runs = []
    monkeypatch.setattr(free_hopf, "fixpoint_certificate", lambda q: failing)
    monkeypatch.setattr(free_hopf, "coideal_certificate", lambda B, vectors: coideal_runs.append(B))
    with pytest.raises(RuntimeError, match="fixpoint certificate failed.*ideal-product-closure fails at"):
        free_poisson_hopf_on_bialgebra(induce_bialgebra(builtin("grouplike-1"), 3), 2)
    assert coideal_runs == []


# ---- the flagship instances ----


def test_free_hopf_grouplike_laurent_shape():
    H = free_poisson_hopf(builtin("grouplike-1"), 2, 4)
    assert all(r.ok for r in H.certificates.values())
    # filtration dims 2N+1: Laurent polynomials truncated symmetrically
    assert H.quotient.filtration_dims() == [1, 3, 5, 7, 9]
    # basis classes are powers of g_0 and g_1, bracket identically zero
    basis = H.quotient.basis_monomials()
    for a, b in itertools.product(basis, repeat=2):
        if a.degree + b.degree <= 4 and a.degree >= 1 and b.degree >= 1:
            assert not H.bracket_labels(a, b), (a, b)
    # g_0 * g_1 = 1 in the quotient
    amb = H.ambient
    assert H.quotient.product(amb.gen("g_0"), amb.gen("g_1")) == H.quotient.one()


def test_free_hopf_grouplike_antipode_residuals():
    H = free_poisson_hopf(builtin("grouplike-1"), 2, 4)
    report = verify_antipode(H, depth=1)
    assert report.ok, report.lines()
    g0 = H.ambient.gen("g_0")
    assert H.antipode(g0) == H.quotient.normal_form(H.ambient.gen("g_1"))


def test_free_hopf_three_stages_identifies_double_shift():
    H = free_poisson_hopf(builtin("grouplike-1"), 3, 4)
    amb = H.ambient
    diff = amb.gen("g_2") - amb.gen("g_0")
    assert H.quotient.normal_form(diff).is_zero()
    assert H.quotient.filtration_dims()[-1] == 9


@pytest.mark.parametrize("stages,n", [(2, 4), (2, 5), (3, 4), (3, 5), (4, 4), (4, 5)])
def test_laurent_filtration_dimensions(stages, n):
    H = free_poisson_hopf(builtin("grouplike-1"), stages, n, check=False)
    assert H.quotient.filtration_dims()[-1] == 2 * n + 1
    for a in H.quotient.basis_monomials():
        for b in H.quotient.basis_monomials():
            if 1 <= a.degree and 1 <= b.degree and a.degree + b.degree <= n:
                assert not H.bracket_labels(a, b)


@pytest.mark.parametrize(
    "name,stages,budgets",
    [
        ("grouplike-1", 2, range(2, 6)),
        ("trig", 2, range(3, 5)),
        ("grouplike-2", 2, range(2, 5)),
        ("matrix-2", 2, range(2, 4)),
        ("trig", 3, range(2, 4)),
    ],
)
def test_raising_the_budget_only_lowers_filtration_dims(name, stages, budgets):
    # every derivation within budget N is within N+1, so I_N lies in I_{N+1}
    # and each printed dimension is an upper bound at its budget
    dims = [free_poisson_hopf(builtin(name), stages, n).quotient.filtration_dims() for n in budgets]
    for low, high in zip(dims, dims[1:]):
        assert all(h <= l for l, h in zip(low, high)), (low, high)


def test_two_agreeing_budgets_do_not_show_stability():
    # grouplike-1 M=2 in degree 2: graded dim 3 at N=2 and N=3, then 2 at N=4
    graded = [free_poisson_hopf(builtin("grouplike-1"), 2, n).quotient.graded_dims() for n in (2, 3, 4)]
    assert [g[2] for g in graded] == [3, 3, 2]


@pytest.mark.parametrize(
    "n, graded",
    [(4, [1, 4, 12, 36, 108]), (5, [1, 4, 12, 36, 108, 324]), (6, [1, 4, 12, 36, 107, 320, 956])],
)
def test_trig_ladder_pins_the_truncation_artefact(n, graded):
    # trig M=2 in degree 4: 108 at budgets 4 and 5, then 107 once budget 6 derives
    # one more ideal element; each graded dim is an upper bound at its budget
    assert free_poisson_hopf(builtin("trig"), 2, n).quotient.graded_dims() == graded


@pytest.mark.parametrize("n, filtration", [(3, [1, 3, 6, 10]), (4, [1, 3, 5, 7, 9])])
def test_reflection_keeps_the_relations_of_a_non_free_bialgebra(n, filtration):
    # B = coequalizer of g -> g1 and g -> g2 is the free bialgebra on
    # grouplike-1, so H(B) must be H(grouplike-1), not H(grouplike-2)
    src = induce_bialgebra(builtin("grouplike-1"), n)
    tgt = induce_bialgebra(builtin("grouplike-2"), n)
    f, g = (
        MorphismTable(src, tgt, {"g": tgt.quotient.normal_form(tgt.ambient.gen(name))})
        for name in ("g1", "g2")
    )
    H = free_poisson_hopf_on_bialgebra(bialgebra_coequalizer(f, g).bialgebra, 2)
    assert all(r.ok for r in H.certificates.values())
    assert H.quotient.filtration_dims() == filtration
    assert filtration == free_poisson_hopf(builtin("grouplike-1"), 2, n).quotient.filtration_dims()


def test_free_hopf_trig_certificates():
    H = free_poisson_hopf(builtin("trig"), 2, 3)
    assert all(r.ok for r in H.certificates.values())
    report = verify_antipode(H, depth=1)
    assert report.ok, report.lines()


def test_free_hopf_trig_three_stages_depth_two():
    H = free_poisson_hopf(builtin("trig"), 3, 2, check=False)
    report = verify_antipode(H, depth=2)
    assert report.ok, report.lines()


def test_corrupted_ideal_shows_nonzero_residual():
    B = induce_bialgebra(builtin("grouplike-1"), 4)
    staged = staged_coproduct(B, 2)
    gens = hopf_ideal_generators(staged)
    from poissonhopf.colimits import quotient as q_of

    # drop every generator: the convolution relations no longer reduce to zero
    H = TruncatedHopf(staged, q_of(staged.ambient, []))
    report = verify_antipode(H, depth=1)
    assert not report.ok


def test_shift_identity_on_relations():
    # S' of the left relation at stage n is the right relation at stage n+1
    for name in ("grouplike-1", "trig"):
        B = induce_bialgebra(builtin(name), 3)
        staged = staged_coproduct(B, 3)
        for base in B.ambient.alphabet:
            shifted = staged.s_prime(staged.convolution_relation(base, 0, "left"))
            assert shifted == staged.convolution_relation(base, 1, "right")


def test_shift_identity_lands_in_ideal():
    H = free_poisson_hopf(builtin("grouplike-1"), 3, 4, check=False)
    staged = H.staged
    for base in staged.base.ambient.alphabet:
        shifted = staged.s_prime(staged.convolution_relation(base, 0, "left"))
        assert H.quotient.ideal.contains(shifted.vec)


def test_verify_antipode_depth_overflow():
    H = free_poisson_hopf(builtin("grouplike-1"), 2, 3, check=False)
    with pytest.raises(StageOverflowError):
        verify_antipode(H, depth=2)


# ---- coproducts of Hopf quotients ----


def test_hopf_coproduct_transports_antipodes():
    H = free_poisson_hopf(builtin("grouplike-1"), 2, 3, check=False)
    out = hopf_coproduct_antipode([H, H])
    assert out.report.ok, out.report.lines()
    amb = out.bialgebra.ambient
    assert set(out.antipode_images) == {"g_0_0", "g_0_1", "g_1_0", "g_1_1"}
    # S(g_0 of copy 1) is the inverse class g_1 of copy 1
    img = out.antipode_images["g_0_0"]
    assert img == out.bialgebra.quotient.normal_form(amb.gen("g_1_0"))
    prod = out.bialgebra.quotient.product(amb.gen("g_0_0"), img)
    assert prod == out.bialgebra.quotient.one()


def test_single_operand_hopf_coproduct_matches_operand():
    H = free_poisson_hopf(builtin("grouplike-1"), 2, 3, check=False)
    out = hopf_coproduct_antipode([H])
    assert out.report.ok
    assert out.bialgebra.quotient.graded_dims() == H.quotient.graded_dims()


def test_hopf_coproduct_of_hopf_quotients_passes_both_convolution_sides():
    H = free_poisson_hopf(builtin("trig"), 2, 3)
    report = hopf_coproduct_antipode([H, H]).report
    # c_0, s_0, c_1 and s_1 of each copy carry an antipode image, each with two sides
    assert report.ok and report.checked == 16 and not report.skipped


@pytest.mark.parametrize("name, checked", [("grouplike-1", 8), ("trig", 16), ("matrix-2", 32)])
def test_hopf_coproduct_with_the_op_cop_twist_keeps_the_antipode(name, checked):
    # the op-cop twist of a commutative Hopf algebra is Hopf with the same S
    H = free_poisson_hopf(builtin(name), 2, 3)
    twisted = op_cop(H)
    assert twisted.antipode_table == H.antipode_table
    assert all(twisted.antipode_label(m) == H.antipode_label(m) for m in H.labels_upto())
    for operands in ([H, H], [H, twisted]):
        report = hopf_coproduct_antipode(operands).report
        assert report.ok and report.checked == checked and not report.skipped, report.lines()


def test_empty_ideal_fails_the_convolution_laws():
    staged = staged_coproduct(induce_bialgebra(builtin("grouplike-1"), 4), 2)
    from poissonhopf.colimits import quotient as q_of

    # without the Hopf relations S(g_0) g_0 = g_1 g_0 is not 1
    report = verify_antipode(TruncatedHopf(staged, q_of(staged.ambient, [])), depth=1)
    assert ("antipode-convolution-left", ("g_0",), "-1 + 1*g_0*g_1") in [tuple(v) for v in report.violations]


@pytest.mark.parametrize(
    "name,stages,n",
    [
        ("grouplike-1", 2, 3),
        ("grouplike-1", 2, 4),
        ("grouplike-1", 3, 3),
        ("grouplike-1", 3, 4),
        ("grouplike-2", 2, 4),
        ("matrix-2", 2, 2),
        ("trig", 2, 3),
        ("trig", 3, 2),
        ("trig", 3, 3),
    ],
)
def test_staged_coproduct_satisfies_bialgebra_axioms(name, stages, n):
    # constructions do not re-check the staged coproduct; the checker layer does
    staged = staged_coproduct(induce_bialgebra(builtin(name), n), stages)
    report = check_bialgebra(staged.bialgebra)
    assert report.ok, report.lines()
    assert report.checked > 0


def test_free_hopf_check_raises_on_bialgebra_violation(monkeypatch):
    seen = []

    def failing_check(B):
        seen.append(B)
        return Report(violations=[Violation("coassociativity", ("g_0",), "1*g_0")], checked=1)

    monkeypatch.setattr(free_hopf, "check_bialgebra", failing_check)
    with pytest.raises(RuntimeError, match="coassociativity fails at"):
        free_poisson_hopf(builtin("grouplike-1"), 2, 3, check=True)
    assert [B.ambient.alphabet for B in seen] == [("g_0", "g_1")]  # the staged coproduct
    free_poisson_hopf(builtin("grouplike-1"), 2, 3)  # the default does not check
    assert len(seen) == 1


def test_hopf_coproduct_rejects_non_hopf_operand():
    B = induce_bialgebra(builtin("grouplike-1"), 3)
    with pytest.raises(ValueError, match="missing antipode"):
        hopf_coproduct_antipode([B])


def test_staged_odd_copy_uses_flipped_delta():
    # matrix-2 is not cocommutative, so the stage-1 comultiplication must be
    # the flip of the stage-0 one
    from poissonhopf.lyndon import LyndonWord
    from poissonhopf.poisson import PoissMonomial

    B = induce_bialgebra(builtin("matrix-2"), 2)
    staged = staged_coproduct(B, 2)
    amb = staged.ambient

    def mono(name):
        return PoissMonomial((LyndonWord((amb.index(name),)),))

    def pairs(letter):
        return {
            (amb.alphabet[a.factors[0].letters[0]], amb.alphabet[b.factors[0].letters[0]]): c
            for (a, b), c in staged.bialgebra.delta_table[letter].items()
        }

    stage0 = pairs("e12_0")
    stage1 = pairs("e12_1")
    assert stage0 == {("e11_0", "e12_0"): 1, ("e12_0", "e22_0"): 1}
    assert stage1 == {("e12_1", "e11_1"): 1, ("e22_1", "e12_1"): 1}


def test_coefficients_stay_exact_rationals():
    from fractions import Fraction

    H = free_poisson_hopf(builtin("trig"), 2, 3)
    verify_antipode(H, depth=1)
    assert check_bialgebra(H.staged.bialgebra).ok  # fills the staged delta caches
    vectors = [
        *H.quotient.ideal.rows,
        *H.quotient._nf_cache.values(),
        *H._delta_quotient.words.values(),
        *H._delta_quotient.monomials.values(),
        *H.staged.bialgebra._delta_quotient.words.values(),
        *H.staged.bialgebra._delta_quotient.monomials.values(),
    ]
    assert H.quotient._nf_cache and H._delta_quotient.monomials and H._delta_quotient.words
    assert H.staged.bialgebra._delta_quotient.words and H.staged.bialgebra._delta_quotient.monomials
    kinds = {type(c) for v in vectors for _, c in v.items()}
    assert kinds <= {int, Fraction}, kinds
    # integral values are stored as ints, so a true fraction is the only Fraction
    assert all(c.denominator != 1 for v in vectors for _, c in v.items() if type(c) is Fraction)


@pytest.mark.parametrize("stages, degree, checked", [(2, 3, 4), (3, 2, 8)])
def test_sprime_stability_checks_the_generators(stages, degree, checked):
    # both convolution relations of each base letter at each stage but the last
    H = free_poisson_hopf(builtin("trig"), stages, degree)
    cert = H.certificates["sprime-stability"]
    assert cert == Report(checked=checked)
