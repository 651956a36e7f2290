"""Saturation against a brute-force closure oracle; quotients, coproducts, coequalizers."""

import pytest
from hypothesis import given, settings, strategies as st

from poissonhopf import colimits
from poissonhopf.bialgebra import (
    PresentedPoissonBialgebra,
    bialgebra_coequalizer,
    bialgebra_coproduct,
    induce_bialgebra,
    op_cop,
)
from poissonhopf.coalgebra import CoalgebraSpec, builtin, validate_coalgebra
from poissonhopf.colimits import (
    MorphismTable,
    factorize_coproduct,
    fixpoint_certificate,
    free_quotient,
    exact_letters,
    ideal_saturate,
    letter_bracket,
    poisson_coequalizer,
    poisson_coproduct,
    quotient,
    row_product,
)
from poissonhopf.free_hopf import (
    free_poisson_hopf,
    hopf_ideal_generators,
    s_prime_stability_certificate,
    staged_coproduct,
)
from poissonhopf.linalg import EchelonBasis, SparseVec, linear
from poissonhopf.lyndon import LyndonWord
from poissonhopf.poisson import (
    FreePoissonAlgebra,
    PoissMonomial,
    poiss_bracket,
    poiss_product,
)
from poissonhopf.verify import check_jacobi, check_leibniz


from oracles import brute_force_saturation, flip_bracket, rename_letters
from test_delta_label import grouplike_coequalizer


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
        ("grouplike-2", 3, 3),
        ("trig", 2, 4),
        ("trig", 3, 3),
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
    staged = staged_coproduct(induce_bialgebra(spec, n), stages)
    relations = hopf_ideal_generators(staged)
    fast = ideal_saturate(staged.bialgebra.ambient, relations)
    assert fast == brute_force_saturation(staged.bialgebra.ambient, relations, n)


def laurent_relations():
    staged = staged_coproduct(induce_bialgebra(builtin("grouplike-1"), 4), 4)
    return staged.bialgebra.ambient, [*staged.bialgebra.quotient.generators, *hopf_ideal_generators(staged)]


def test_saturation_expands_each_row_of_the_laurent_ideal_once(monkeypatch):
    # every expansion reads the row's exact letters once;
    # queueing row snapshots instead of pivots made 762 expansions here
    ambient, relations = laurent_relations()
    reads = []

    def counting(vec, n, letters):
        reads.append(vec)
        return exact_letters(vec, n, letters)

    monkeypatch.setattr(colimits, "exact_letters", counting)
    ideal = ideal_saturate(ambient, relations)
    assert ideal.rank == 332
    assert len(reads) == 332


@pytest.mark.parametrize("name, stages, n, rewrites", [("grouplike-1", 4, 4, 212), ("trig", 2, 4, 141)])
def test_saturation_takes_the_lowest_pivot_degree_first(monkeypatch, name, stages, n, rewrites):
    # the back-substitutions pin the worklist order: one FIFO over every
    # degree made 343 and 194 here
    staged = staged_coproduct(induce_bialgebra(builtin(name), n), stages)
    relations = [*staged.bialgebra.quotient.generators, *hopf_ideal_generators(staged)]
    counts = []
    insert = EchelonBasis.insert

    def counting(self, vec):
        out = insert(self, vec)
        counts.append(len(self.rewritten))
        return out

    monkeypatch.setattr(EchelonBasis, "insert", counting)
    ideal_saturate(staged.bialgebra.ambient, relations)
    assert sum(counts) == rewrites


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


def _kernels_against_general_operations(ambient, vectors):
    # row_product is poiss_product where that is exact, letter_bracket is
    # poiss_bracket on every exact letter, and exact_letters are the letters
    # whose poiss_bracket is not lossy; each kernel runs twice, the first
    # call filling the ambient's step tables where a step is new and the
    # second reading them
    n = ambient.truncation
    letters = ambient.lyndon_basis(1)
    variables = [w for d in range(1, n) for w in ambient.lyndon_basis(d)]
    outcomes = set()
    for vec in vectors:
        elt = ambient.elt(vec)
        for u in variables:
            prod = poiss_product(ambient.monomial_elt(PoissMonomial((u,))), elt)
            if not prod.lossy:
                assert row_product(ambient, u, vec) == prod.vec
                assert row_product(ambient, u, vec) == prod.vec
        exact = exact_letters(vec, n, letters)
        for x in letters:
            br = poiss_bracket(ambient.monomial_elt(PoissMonomial((x,))), elt)
            assert (x in exact) == (not br.lossy)
            if x in exact:
                assert letter_bracket(ambient, x, vec) == br.vec
                assert letter_bracket(ambient, x, vec) == br.vec
            outcomes.add(x in exact)
    return outcomes


@pytest.mark.parametrize(
    "name, stages, n",
    [("grouplike-1", 4, 4), ("grouplike-2", 2, 4), ("trig", 2, 4), ("matrix-2", 2, 3)],
)
def test_letter_bracket_pretest_matches_lossy_flag_on_ideal_rows(name, stages, n):
    q = free_poisson_hopf(builtin(name), stages, n, check=False).quotient
    assert _kernels_against_general_operations(q.ambient, q.ideal.rows) == {True, False}


_P2_4 = FreePoissonAlgebra(("a", "b"), 4)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(_P2_4.monomials_upto()),
        st.integers(-3, 3).filter(bool) | st.fractions(-3, 3, max_denominator=4).filter(bool),
        max_size=6,
    )
)
def test_letter_bracket_pretest_matches_lossy_flag_on_random_vectors(entries):
    _kernels_against_general_operations(_P2_4, [SparseVec(entries)])


def test_saturation_and_fixpoint_form_no_lossy_letter_bracket(monkeypatch):
    ambient, relations = laurent_relations()
    agreed = []

    def compared(ambient, x, vec):
        out = letter_bracket(ambient, x, vec)
        br = poiss_bracket(ambient.monomial_elt(PoissMonomial((x,))), ambient.elt(vec))
        agreed.append(not br.lossy and out == br.vec)
        return out

    monkeypatch.setattr(colimits, "letter_bracket", compared)
    q = quotient(ambient, relations)
    assert len(agreed) == 312 and all(agreed)
    agreed.clear()
    report = fixpoint_certificate(q)
    assert report.ok
    assert len(agreed) == 312 and all(agreed)


def test_step_tables_belong_to_their_ambient():
    a, b = FreePoissonAlgebra(("x", "y"), 3), FreePoissonAlgebra(("x", "y"), 3)
    assert a == b
    for ambient in (a, b):
        assert not ambient.variable_products and not ambient.letter_brackets
    x, y = a.lyndon_basis(1)
    vec = SparseVec({PoissMonomial((y,)): 2, PoissMonomial((x, y)): -1})
    for ambient in (a, b):
        assert row_product(ambient, x, vec) == poiss_product(ambient.gen("x"), ambient.elt(vec)).vec
        assert letter_bracket(ambient, x, vec) == poiss_bracket(ambient.gen("x"), ambient.elt(vec)).vec
    assert b.variable_products.keys() == a.variable_products.keys() == {x}
    assert b.letter_brackets.keys() == a.letter_brackets.keys() == {x}
    for name in ("variable_products", "letter_brackets"):
        ta, tb = getattr(a, name)[x], getattr(b, name)[x]
        assert ta is not tb and ta == tb and len(ta) == 2
    assert not FreePoissonAlgebra(("x", "y"), 3).variable_products


def test_laurent_closure_forms_each_step_once():
    # saturation and the fixpoint certificate form 1,114 products and 860
    # letter brackets of single monomials between them
    ambient = free_poisson_hopf(builtin("grouplike-1"), 4, 4).ambient
    assert sum(map(len, ambient.variable_products.values())) == 546
    assert sum(map(len, ambient.letter_brackets.values())) == 340


def test_rank_0_normal_form_is_the_input(monkeypatch):
    H = free_poisson_hopf(builtin("trig"), 3, 3)
    staged_quotient = H.staged.bialgebra.quotient
    assert staged_quotient.ideal.rank == 0
    for row in H.quotient.ideal.rows:
        assert staged_quotient.nf_vec(row) is row
    reports = {**H.certificates, "rows": s_prime_stability_certificate(H, H.quotient.ideal.rows)}
    assert reports["rows"].checked == H.quotient.ideal.rank
    # the same reports when every normal form sums the images of its monomials
    monkeypatch.setattr(colimits.TruncatedQuotient, "nf_vec", lambda q, vec: linear(q.nf_label, vec))
    H = free_poisson_hopf(builtin("trig"), 3, 3)
    assert {**H.certificates, "rows": s_prime_stability_certificate(H, H.quotient.ideal.rows)} == reports


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
    assert check_leibniz(q).ok
    assert check_jacobi(q).ok


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
    assert inj.well_defined_report().ok


_TRIG = induce_bialgebra(builtin("trig"), 4)


def _trig_vectors(min_size):
    monomials = [m for m in _TRIG.ambient.monomials_upto() if m.degree >= 1]
    return st.dictionaries(st.sampled_from(monomials), st.integers(-3, 3).filter(bool),
                           min_size=min_size, max_size=4).map(SparseVec)


@settings(max_examples=25, deadline=None)
@given(st.lists(_trig_vectors(1), min_size=1, max_size=2), _trig_vectors(0), st.sampled_from([1, -1]))
def test_coproduct_lifts_relations_and_elements_as_the_renaming_oracle(relations, vec, sign):
    # the second operand carries random relations, op-cop twisted when sign is -1:
    # its relations and its injection go through the bracket flip, then the
    # order-preserving renaming onto its letters
    B, amb = _TRIG, _TRIG.ambient
    operand = PresentedPoissonBialgebra(quotient(amb, [amb.elt(r) for r in relations]),
                                        B.delta_table, B.epsilon_table)
    if sign == -1:
        operand = op_cop(operand)
    cp = poisson_coproduct([B, operand])
    target, lm = cp.quotient.ambient, cp.letter_maps[1]

    def oracle(v):
        return target.elt(rename_letters(flip_bracket(v) if sign == -1 else v, lm))

    assert list(cp.quotient.generators) == [oracle(r) for r in relations]
    assert cp.injections[1].apply(amb.elt(vec)) == cp.quotient.normal_form(oracle(vec))


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
        assert inj.well_defined_report().ok


def test_coproduct_couniversal_factorization():
    A = free_quotient(FreePoissonAlgebra(("x",), 3))
    B = free_quotient(FreePoissonAlgebra(("y",), 3))
    cp = poisson_coproduct([A, B])
    Q = free_quotient(FreePoissonAlgebra(("z",), 3))
    z = Q.normal_form(Q.ambient.gen("z"))
    u1 = MorphismTable(A, Q, {"x": z})
    u2 = MorphismTable(B, Q, {"y": 2 * z})
    u = factorize_coproduct(cp, [u1, u2])
    assert u.well_defined_report().ok
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
    assert phi.well_defined_report().ok
    assert psi.well_defined_report().ok
    for name in ("x_0", "y_1"):
        gen = amb.gen(name)
        assert psi.apply(phi.apply(gen)) == cp.quotient.normal_form(gen)
    for name in L.alphabet:
        gen = L.gen(name)
        assert phi.apply(psi.apply(gen)) == literal.normal_form(gen)


@pytest.mark.parametrize(
    "build",
    [lambda: free_poisson_hopf(builtin("trig"), 2, 3).quotient, lambda: grouplike_coequalizer().quotient],
    ids=["trig-hopf-M2-N3", "grouplike-2-coequalizer-N4"],
)
def test_identity_extension_is_the_normal_form(build):
    # the normal form is a Poisson map on in-budget pairs, so extending the
    # normalized letters must rebuild it on every ambient monomial; a wrong
    # factor order or standard factorization breaks this
    q = build()
    assert q.ideal.rank > 0
    identity = MorphismTable(q, q, {x: q.normal_form(q.ambient.gen(x)) for x in q.ambient.alphabet})
    for m in q.ambient.monomials_upto():
        elt = q.ambient.monomial_elt(m)
        assert identity.apply(elt) == q.normal_form(elt), m


def _twisted_hopf_injections():
    H = free_poisson_hopf(builtin("trig"), 2, 3)
    return bialgebra_coproduct([H, op_cop(H)]).injections


def _coequalizer_projection():
    # g -> g1 and g -> g1*g2 identify g1 with g1*g2, the pivot: the
    # projection fixes both letters, but not their product
    src = induce_bialgebra(builtin("grouplike-1"), 4)
    tgt = induce_bialgebra(builtin("grouplike-2"), 4)
    g1, g2 = tgt.ambient.gen("g1"), tgt.ambient.gen("g2")
    f, g = (MorphismTable(src, tgt, {"g": image}) for image in (g1, poiss_product(g1, g2)))
    return [bialgebra_coequalizer(f, g).projection]


@pytest.mark.parametrize("maps", [_twisted_hopf_injections, _coequalizer_projection],
                         ids=["trig-hopf-and-op-cop-injections", "grouplike-2-coequalizer-projection"])
def test_morphism_images_are_normal_forms(maps):
    # apply extends the normalized letter images over the target quotient's
    # product and bracket and projects nothing after: a second normal form
    # must leave the image of every source monomial, basis or not, as it is
    for f in maps():
        tq = f.target_quotient
        assert tq.ideal.rank > 0
        for m in f.source.ambient.monomials_upto():
            image = f.apply(f.source.ambient.monomial_elt(m))
            assert tq.normal_form(image) == image, m


def test_morphism_carries_a_lossy_letter_image():
    src = induce_bialgebra(builtin("grouplike-1"), 2)
    tgt = induce_bialgebra(builtin("grouplike-2"), 2)
    g1 = tgt.ambient.gen("g1")
    f = MorphismTable(src, tgt, {"g": poiss_product(poiss_product(g1, g1), g1)})
    image = f.apply(src.ambient.gen("g"))
    assert image.lossy and image.is_zero()
    # g1^3 is group-like, but its truncation 0 is not the map that was given: both certificates refuse it
    for report in (f.well_defined_report(), f.bialgebra_report()):
        assert [(v.law, v.witnesses) for v in report.violations] == [("morphism-exact", ("g",))]


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
