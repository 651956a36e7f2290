"""Staged construction: shift map, convolution relations, Hopf quotients."""

import itertools

import pytest

from poissonhopf.bialgebra import induce_bialgebra
from poissonhopf.coalgebra import builtin
from poissonhopf.free_hopf import (
    StageOverflowError,
    TruncatedHopf,
    free_poisson_hopf,
    hopf_coproduct_antipode,
    hopf_ideal_generators,
    staged_coproduct,
    verify_antipode,
)
from poissonhopf.poisson import poiss_bracket, poiss_product
from poissonhopf.exprs import parse


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

    cp = bialgebra_coproduct([B, op_cop(B)], check=False)
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


def test_s_prime_overflow():
    B = induce_bialgebra(builtin("grouplike-1"), 3)
    staged = staged_coproduct(B, 2)
    with pytest.raises(StageOverflowError, match="overflow"):
        staged.s_prime(staged.ambient.gen("g_1"))


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


# ---- the flagship instances ----


def test_free_hopf_grouplike_laurent_shape():
    H = free_poisson_hopf(builtin("grouplike-1"), 2, 4)
    assert H.certificates_ok()
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


def test_free_hopf_trig_certificates():
    H = free_poisson_hopf(builtin("trig"), 2, 3)
    assert H.certificates_ok()
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
    from poissonhopf.bialgebra import PresentedPoissonBialgebra

    # drop every generator: the convolution relations no longer reduce to zero
    empty = q_of(staged.ambient, [])
    bial = PresentedPoissonBialgebra(
        empty, staged.bialgebra.delta_table, staged.bialgebra.epsilon_table, 1, None
    )
    H = TruncatedHopf(staged, bial, [], {}, None)
    report = verify_antipode(H, depth=1)
    assert not report.ok


def test_shift_identity_on_relations():
    # S' of the left relation at stage n is the right relation at stage n+1
    for name in ("grouplike-1", "trig"):
        B = induce_bialgebra(builtin(name), 3)
        staged = staged_coproduct(B, 3, check=False)
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


def test_antipode_is_partial():
    H = free_poisson_hopf(builtin("grouplike-1"), 2, 4)
    top_stage = H.ambient.gen("g_1")
    with pytest.raises(StageOverflowError):
        H.antipode(top_stage)


# ---- coproducts of Hopf quotients ----


def test_hopf_coproduct_transports_antipodes():
    H = free_poisson_hopf(builtin("grouplike-1"), 2, 3, check=False)
    out = hopf_coproduct_antipode([H, H], check=False)
    assert out.report.ok, out.report.lines()
    amb = out.bialgebra.ambient
    assert set(out.antipode_images) == {"g_0_0", "g_0_1"}
    # S(g_0 of copy 1) is the inverse class g_1 of copy 1
    img = out.antipode_images["g_0_0"]
    assert img == out.bialgebra.quotient.normal_form(amb.gen("g_1_0"))
    prod = out.bialgebra.quotient.product(amb.gen("g_0_0"), img)
    assert prod == out.bialgebra.quotient.one()


def test_single_operand_hopf_coproduct_matches_operand():
    H = free_poisson_hopf(builtin("grouplike-1"), 2, 3, check=False)
    out = hopf_coproduct_antipode([H], check=False)
    assert out.report.ok
    assert out.bialgebra.quotient.graded_dims() == H.quotient.graded_dims()


def test_hopf_coproduct_counts_only_formed_residuals(monkeypatch):
    H = free_poisson_hopf(builtin("trig"), 2, 2, check=False)
    full = H.antipode_table()
    assert hopf_coproduct_antipode([H], check=False).report.checked == 2
    monkeypatch.setattr(H, "antipode_table", lambda: {k: v for k, v in full.items() if k != "s_0"})
    out = hopf_coproduct_antipode([H], check=False)
    # delta(c) = c (x) c - s (x) s: without S(s_0) the residual of c_0 cannot be formed
    assert set(out.antipode_images) == {"c_0_0"}
    assert out.report.checked == 0
    assert out.report.ok


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
    staged = staged_coproduct(B, 2, check=False)
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
