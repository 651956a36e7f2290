"""Saturation against a brute-force closure oracle; quotients and (co)limits."""

import pytest

from poissonhopf.bialgebra import induce_bialgebra
from poissonhopf.coalgebra import CoalgebraSpec, builtin, validate_coalgebra
from poissonhopf.colimits import (
    MorphismTable,
    PoissonDirectProduct,
    factorize_coproduct,
    free_quotient,
    ideal_saturate,
    poisson_coequalizer,
    poisson_coproduct,
    poisson_equalizer,
    quotient,
)
from poissonhopf.free_hopf import hopf_ideal_generators, staged_coproduct
from poissonhopf.lyndon import LyndonWord
from poissonhopf.poisson import (
    FreePoissonAlgebra,
    PoissMonomial,
    poiss_bracket,
    poiss_product,
)
from poissonhopf.verify import check_jacobi, check_leibniz


from oracles import brute_force_saturation


def mono(algebra, *words):
    return PoissMonomial(tuple(LyndonWord(w) for w in words))


def test_saturate_single_letter_generator():
    P = FreePoissonAlgebra(("a", "b"), 2)
    basis = ideal_saturate(P, [P.gen("a")])
    got = {m for row in basis.rows for m in row}
    assert basis.rank == 4
    # degree 1: a; degree 2: a*a, a*b, [a,b]
    expected = {
        mono(P, (0,)),
        mono(P, (0,), (0,)),
        mono(P, (0,), (1,)),
        mono(P, (0, 1)),
    }
    assert got == expected


def test_saturate_unit_gives_everything():
    P = FreePoissonAlgebra(("a", "b"), 2)
    basis = ideal_saturate(P, [P.one()])
    assert basis.rank == len(P.monomials_upto())


def test_saturate_empty_is_zero():
    P = FreePoissonAlgebra(("a", "b"), 3)
    assert ideal_saturate(P, []).rank == 0


@pytest.mark.parametrize(
    "gens",
    [
        ["a"],
        ["a - b"],
        ["a*b - 1"],
        ["{a,b}"],
        ["a", "b"],
        ["a*a - b", "{a,b} - a"],
        ["1 - a", "b*b"],
        ["2*a + 3*b*b - 1"],
        # a row of top degree n whose degree-n part a later row rewrites
        ["b - a*a - [a,b]", "-1 + [a,b]"],
        ["a*a - 2*b*b", "-b - 2*b*b"],
    ],
)
@pytest.mark.parametrize("n", [2, 3])
def test_saturation_matches_brute_force_closure(gens, n):
    from poissonhopf.exprs import parse

    P = FreePoissonAlgebra(("a", "b"), n)
    elts = [parse(text, P) for text in gens]
    if any(e.top_degree() > n for e in elts):
        pytest.skip("generator beyond budget")
    fast = ideal_saturate(P, elts)
    slow = brute_force_saturation(P, elts, n)
    assert fast == slow


def _twisted_grouplike_2():
    # grouplike-2 in the basis y1 = g1 + g2, y2 = g2
    return CoalgebraSpec.make(
        ("y1", "y2"),
        {
            "y1": [("y1", "y1", 1), ("y1", "y2", -1), ("y2", "y1", -1), ("y2", "y2", 2)],
            "y2": [("y2", "y2", 1)],
        },
        {"y1": 2, "y2": 1},
    )


@pytest.mark.parametrize(
    "name, stages, n",
    [
        ("grouplike-1", 3, 4),
        ("grouplike-1", 4, 4),
        ("grouplike-2", 2, 4),
        ("trig", 2, 4),
        ("matrix-2", 2, 2),
        ("twisted-grouplike-2", 2, 4),
    ],
)
def test_saturation_matches_brute_force_on_hopf_relations(name, stages, n):
    if name == "twisted-grouplike-2":
        spec = _twisted_grouplike_2()
        assert validate_coalgebra(spec).ok
    else:
        spec = builtin(name)
    staged = staged_coproduct(induce_bialgebra(spec, n), stages, check=False)
    relations = hopf_ideal_generators(staged)
    fast = ideal_saturate(staged.ambient, relations)
    assert fast == brute_force_saturation(staged.ambient, relations, n)


def test_saturation_soundness_closure_property():
    P = FreePoissonAlgebra(("a", "b"), 4)
    from poissonhopf.exprs import parse

    ideal = ideal_saturate(P, [parse("a*b - 1", P), parse("{a,b} - b", P)])
    rows = [P.elt(r) for r in ideal.rows]
    monos = [P.monomial_elt(m) for m in P.monomials_upto(2) if m.degree >= 1]
    for w in rows:
        for m in monos:
            prod = poiss_product(m, w)
            if not prod.lossy:
                assert ideal.contains(prod.vec)
            br = poiss_bracket(m, w)
            if not br.lossy and br.top_degree() <= 4:
                assert ideal.contains(br.vec)


def test_quotient_of_free_is_polynomial_ring():
    P = FreePoissonAlgebra(("x",), 4)
    q = free_quotient(P)
    assert q.graded_dims() == [1, 1, 1, 1, 1]
    x = P.gen("x")
    assert q.bracket(x, x).is_zero()


def test_quotient_identifying_generators():
    P = FreePoissonAlgebra(("x", "y"), 2)
    q = quotient(P, [P.gen("x") - P.gen("y")])
    assert q.graded_dims()[2] == 1
    assert q.ideal.rank == 4


def test_quotient_by_one_minus_x_at_degree_one():
    # the ideal (1 - x) is proper: the quotient is k, presented by one class
    P = FreePoissonAlgebra(("x",), 1)
    q = quotient(P, [P.one() - P.gen("x")])
    assert not q.degenerate
    assert sum(q.graded_dims()) == 1
    assert q.normal_form(P.one()) == q.normal_form(P.gen("x"))


def test_degenerate_quotient_is_flagged():
    P = FreePoissonAlgebra(("x",), 2)
    q = quotient(P, [P.gen("x"), P.one() - P.gen("x")])
    assert q.degenerate
    assert q.normal_form(P.one()).is_zero()
    assert sum(q.graded_dims()) == 0


def test_quotient_operations_satisfy_poisson_laws():
    from poissonhopf.exprs import parse

    P = FreePoissonAlgebra(("a", "b"), 4)
    q = quotient(P, [parse("a*b - 1", P)])
    assert check_leibniz(q, 4).ok
    assert check_jacobi(q, 4).ok


def test_normal_form_is_projection():
    P = FreePoissonAlgebra(("x", "y"), 3)
    q = quotient(P, [P.gen("x") - P.gen("y")])
    v = poiss_product(P.gen("x"), P.gen("x")) + P.gen("y")
    nf = q.normal_form(v)
    assert q.normal_form(nf) == nf
    assert q.contains(v - nf)


# ---- coproducts ----


def test_coproduct_of_two_lines_is_free_on_two_letters():
    A = free_quotient(FreePoissonAlgebra(("x",), 2))
    B = free_quotient(FreePoissonAlgebra(("y",), 2))
    cp = poisson_coproduct([A, B])
    # NOT k[x,y]: the bracket class {x,y} counts too
    assert cp.quotient.graded_dims() == [1, 2, 4]


def test_coproduct_with_initial_object_is_identity():
    A = free_quotient(FreePoissonAlgebra(("x", "y"), 3))
    K = free_quotient(FreePoissonAlgebra((), 3))
    cp = poisson_coproduct([A, K])
    assert cp.quotient.graded_dims() == A.graded_dims()
    inj = cp.injections[0]
    assert inj.is_well_defined()


@pytest.mark.parametrize("n1,n2", [(1, 1), (1, 2), (2, 1)])
def test_coproduct_of_free_is_free_on_sum(n1, n2):
    N = 4
    A = free_quotient(FreePoissonAlgebra(tuple(f"x{i}" for i in range(n1)), N))
    B = free_quotient(FreePoissonAlgebra(tuple(f"y{i}" for i in range(n2)), N))
    cp = poisson_coproduct([A, B])
    dims = cp.quotient.graded_dims()
    n = n1 + n2
    assert dims == [n**d for d in range(0, N + 1)]


def test_coproduct_lifts_relations():
    P = FreePoissonAlgebra(("x", "y"), 3)
    A = quotient(P, [P.gen("x") - P.gen("y")])
    B = free_quotient(FreePoissonAlgebra(("z",), 3))
    cp = poisson_coproduct([A, B])
    amb = cp.quotient.ambient
    assert cp.quotient.contains(amb.gen("x_0") - amb.gen("y_0"))
    for inj in cp.injections:
        assert inj.is_well_defined()


def test_coproduct_couniversal_factorization():
    A = free_quotient(FreePoissonAlgebra(("x",), 3))
    B = free_quotient(FreePoissonAlgebra(("y",), 3))
    cp = poisson_coproduct([A, B])
    Q = free_quotient(FreePoissonAlgebra(("z",), 3))
    z = Q.normal_form(Q.ambient.gen("z"))
    u1 = MorphismTable(A, Q, {"x": z})
    u2 = MorphismTable(B, Q, {"y": 2 * z})
    u = factorize_coproduct(cp, [u1, u2])
    assert u.is_well_defined()
    # u restricted along each injection reproduces the legs on generators
    for leg, inj in ((u1, cp.injections[0]), (u2, cp.injections[1])):
        for name in leg.source.ambient.alphabet:
            gen = leg.source.ambient.gen(name)
            assert u.apply(inj.apply(gen)) == leg.apply(gen)
    # uniqueness: any generator-agreeing table is the same table
    other = MorphismTable(cp.quotient, Q, dict(u.images))
    sample = cp.quotient.ambient.monomials_upto(3)
    for m in sample:
        e = cp.quotient.ambient.monomial_elt(m)
        assert other.apply(e) == u.apply(e)


def test_coproduct_truncation_mismatch():
    A = free_quotient(FreePoissonAlgebra(("x",), 2))
    B = free_quotient(FreePoissonAlgebra(("y",), 3))
    with pytest.raises(ValueError, match="truncation mismatch"):
        poisson_coproduct([A, B])


def test_literal_symmetric_algebra_construction_cross_check():
    """Desk-scale comparison with the construction on the whole underlying space.

    Generators: one letter per basis class of each operand up to degree 2.
    Relations: unit identification, product collapsing, bracket collapsing.
    The presented coproduct and the literal one are canonically isomorphic,
    witnessed by mutually inverse generator maps.
    """
    N = 2
    A = free_quotient(FreePoissonAlgebra(("x",), N))
    B = free_quotient(FreePoissonAlgebra(("y",), N))
    cp = poisson_coproduct([A, B])

    # letters z1_x for the class of 1 in A, zx, zxx, and likewise for B
    L = FreePoissonAlgebra(("u1", "ux", "uxx", "v1", "vy", "vyy"), N)
    from poissonhopf.exprs import parse as pp

    relations = [
        pp("u1 - 1", L),
        pp("v1 - 1", L),
        pp("ux*ux - uxx", L),
        pp("vy*vy - vyy", L),
        pp("u1*ux - ux", L),
        pp("u1*u1 - u1", L),
        pp("v1*vy - vy", L),
        pp("v1*v1 - v1", L),
        # brackets inside one operand vanish: k[x] is abelian
        pp("{ux, uxx}", L),
        pp("{u1, ux}", L),
        pp("{u1, uxx}", L),
        pp("{vy, vyy}", L),
        pp("{v1, vy}", L),
        pp("{v1, vyy}", L),
    ]
    relations = [r for r in relations if r.top_degree() <= N]
    literal = quotient(L, relations)

    amb = cp.quotient.ambient  # letters x_0, y_1
    phi = MorphismTable(
        cp.quotient,
        literal,
        {"x_0": literal.normal_form(L.gen("ux")), "y_1": literal.normal_form(L.gen("vy"))},
    )
    psi = MorphismTable(
        literal,
        cp.quotient,
        {
            "u1": cp.quotient.one(),
            "ux": cp.quotient.normal_form(amb.gen("x_0")),
            "uxx": cp.quotient.normal_form(poiss_product(amb.gen("x_0"), amb.gen("x_0"))),
            "v1": cp.quotient.one(),
            "vy": cp.quotient.normal_form(amb.gen("y_1")),
            "vyy": cp.quotient.normal_form(poiss_product(amb.gen("y_1"), amb.gen("y_1"))),
        },
    )
    assert phi.is_well_defined()
    assert psi.is_well_defined()
    for name in ("x_0", "y_1"):
        gen = amb.gen(name)
        assert psi.apply(phi.apply(gen)) == cp.quotient.normal_form(gen)
    for name in L.alphabet:
        gen = L.gen(name)
        assert phi.apply(psi.apply(gen)) == literal.normal_form(gen)


# ---- coequalizers ----


def test_coequalizer_identifies_generators():
    # f, g : P(x) -> P(x,y) with x -> x and x -> y
    S = free_quotient(FreePoissonAlgebra(("x",), 3))
    T = free_quotient(FreePoissonAlgebra(("x", "y"), 3))
    f = MorphismTable(S, T, {"x": T.normal_form(T.ambient.gen("x"))})
    g = MorphismTable(S, T, {"x": T.normal_form(T.ambient.gen("y"))})
    coeq, proj = poisson_coequalizer(f, g)
    assert coeq.graded_dims() == [1, 1, 1, 1]
    for name in S.ambient.alphabet:
        gen = S.ambient.gen(name)
        lhs = proj.apply(f.apply(gen))
        rhs = proj.apply(g.apply(gen))
        assert lhs == rhs


def test_coequalizer_of_equal_maps_is_isomorphism():
    S = free_quotient(FreePoissonAlgebra(("x",), 3))
    T = free_quotient(FreePoissonAlgebra(("x", "y"), 3))
    f = MorphismTable(S, T, {"x": T.normal_form(T.ambient.gen("x"))})
    coeq, proj = poisson_coequalizer(f, f)
    assert coeq.ideal.rank == 0
    assert coeq.graded_dims() == T.graded_dims()


def test_coequalizer_on_empty_source_is_identity():
    S = free_quotient(FreePoissonAlgebra((), 3))
    T = free_quotient(FreePoissonAlgebra(("x",), 3))
    f = MorphismTable(S, T, {})
    coeq, _ = poisson_coequalizer(f, f)
    assert coeq.graded_dims() == T.graded_dims()


def test_coequalizer_rejects_ill_defined_morphisms():
    P = FreePoissonAlgebra(("x",), 2)
    S = quotient(P, [P.gen("x") * P.gen("x")])
    T = free_quotient(FreePoissonAlgebra(("y",), 2))
    bad = MorphismTable(S, T, {"x": T.normal_form(T.ambient.gen("y"))})
    with pytest.raises(ValueError, match="ill-defined"):
        poisson_coequalizer(bad, bad)


# ---- products and equalizers ----


def test_direct_product_componentwise():
    A = free_quotient(FreePoissonAlgebra(("x",), 3))
    B = free_quotient(FreePoissonAlgebra(("y",), 3))
    prod = PoissonDirectProduct(A, B)
    assert prod.graded_dims() == [2, 2, 2, 2]
    u = prod.pair(A.ambient.gen("x"), B.ambient.gen("y"))
    v = prod.product(u, u)
    assert prod.project_left(v) == A.normal_form(A.ambient.gen("x") * A.ambient.gen("x"))
    assert prod.bracket(u, u).left.is_zero()


def test_equalizer_of_identical_maps_is_everything():
    A = free_quotient(FreePoissonAlgebra(("x",), 3))
    f = MorphismTable(A, A, {"x": A.normal_form(A.ambient.gen("x"))})
    res = poisson_equalizer(f, f)
    assert len(res.rows) == len(A.basis_monomials())
    assert res.closure.ok


def test_equalizer_of_sign_flip_is_even_part():
    A = free_quotient(FreePoissonAlgebra(("x",), 4))
    f = MorphismTable(A, A, {"x": A.normal_form(A.ambient.gen("x"))})
    g = MorphismTable(A, A, {"x": -A.normal_form(A.ambient.gen("x"))})
    res = poisson_equalizer(f, g)
    degrees = sorted(e.top_degree() for e in res.rows)
    assert degrees == [0, 2, 4]
    assert res.closure.ok
