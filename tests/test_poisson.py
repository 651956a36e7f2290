"""Free Poisson algebra: product, bracket, grading, dimension law, printing."""

import copy
import itertools
import pickle
from fractions import Fraction

import pytest

from poissonhopf import poisson
from poissonhopf.linalg import unit_vec
from poissonhopf.lyndon import LyndonWord, bracket_words, lyndon_words
from poissonhopf.poisson import (
    FreePoissonAlgebra,
    PoissMonomial,
    _monomial_table,
    graded_dimension,
    poiss_bracket,
    poiss_product,
    render,
)


@pytest.fixture
def P2():
    return FreePoissonAlgebra(("a", "b"), 5)


def w(*letters):
    return LyndonWord(tuple(letters))


def test_generator_product_is_sorted_monomial(P2):
    a, b = P2.gen("a"), P2.gen("b")
    ab = a * b
    assert ab.vec == unit_vec(PoissMonomial((w(0), w(1))))
    assert a * b == b * a


def test_unit_law_preserves_lossy(P2):
    a = P2.gen("a")
    assert P2.one() * a == a
    lossy = poiss_product(P2.gen("a"), P2.gen("b"))
    lossy.lossy = True
    out = P2.one() * lossy
    assert out == lossy and out.lossy


def test_product_associative_and_truncating():
    P = FreePoissonAlgebra(("a", "b"), 2)
    a, b = P.gen("a"), P.gen("b")
    cube = (a * a) * b
    assert cube.is_zero() and cube.lossy
    assert (a * b) * P.one() == a * b


def test_defining_brackets(P2):
    a, b = P2.gen("a"), P2.gen("b")
    assert poiss_bracket(a, b).vec == unit_vec(PoissMonomial((w(0, 1),)))
    # {a, a*b} = a*[a,b]
    assert poiss_bracket(a, a * b).vec == unit_vec(PoissMonomial((w(0), w(0, 1))))
    # {[a,b], a} = -[a,[a,b]]
    assert poiss_bracket(P2.elt(unit_vec(PoissMonomial((w(0, 1),)))), a).vec == unit_vec(
        PoissMonomial((w(0, 0, 1),)), -1
    )


def test_bracket_bilinear_antisymmetric(P2):
    a, b = P2.gen("a"), P2.gen("b")
    x = 2 * a + (a * b)
    y = b - 3 * (a * a)
    assert poiss_bracket(x, y) == -poiss_bracket(y, x)
    lhs = poiss_bracket(x + y, a)
    assert lhs == poiss_bracket(x, a) + poiss_bracket(y, a)


def sample_monomials(algebra, max_degree):
    out = []
    for d in range(1, max_degree + 1):
        out.extend(algebra.monomial_elt(m) for m in algebra.monomials(d))
    return out


def test_jacobi_identity_exhaustive_truncation_five():
    P = FreePoissonAlgebra(("a", "b"), 5)
    elts = sample_monomials(P, 3)
    for x, y, z in itertools.combinations_with_replacement(elts, 3):
        if x.top_degree() + y.top_degree() + z.top_degree() > 5:
            continue
        j = (
            poiss_bracket(x, poiss_bracket(y, z))
            + poiss_bracket(y, poiss_bracket(z, x))
            + poiss_bracket(z, poiss_bracket(x, y))
        )
        assert j.is_zero(), (x, y, z)


def test_leibniz_identity_exhaustive_truncation_five():
    P = FreePoissonAlgebra(("a", "b"), 5)
    elts = sample_monomials(P, 2)
    for p, q, r in itertools.product(elts, repeat=3):
        if p.top_degree() + q.top_degree() + r.top_degree() > 5:
            continue
        lhs = poiss_bracket(p, q * r)
        rhs = poiss_bracket(p, q) * r + q * poiss_bracket(p, r)
        assert lhs == rhs, (p, q, r)


def test_degree_additivity_and_losslessness():
    P = FreePoissonAlgebra(("a", "b"), 5)
    for d1 in range(1, 3):
        for d2 in range(1, 3):
            for m1 in P.monomials(d1):
                for m2 in P.monomials(d2):
                    u, v = P.monomial_elt(m1), P.monomial_elt(m2)
                    prod = u * v
                    br = poiss_bracket(u, v)
                    assert not prod.lossy and not br.lossy
                    for m in prod.vec:
                        assert m.degree == d1 + d2
                    for m in br.vec:
                        assert m.degree == d1 + d2


def test_single_generator_dimension_is_one():
    for d in range(1, 7):
        assert graded_dimension(1, d) == 1


def test_two_generators_degree_three_enumeration():
    # aaa, aab, abb, bbb, a[ab], b[ab], [a[ab]], [[ab]b]
    P = FreePoissonAlgebra(("a", "b"), 3)
    assert len(P.monomials(3)) == 8
    assert graded_dimension(2, 3) == 8


from oracles import generating_function_dims


def poisson_series(n, max_degree):
    counts = {d: len(ws) for d, ws in lyndon_words(n, max_degree).items()}
    return generating_function_dims(counts, max_degree)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dimension_law_matches_generating_function_and_closed_form(n):
    # graded_dimension is the closed form; the series and the enumeration are its oracles
    series = poisson_series(n, 6)
    P = FreePoissonAlgebra(tuple(f"x{i}" for i in range(n)), 6)
    for d in range(1, 7):
        dim = graded_dimension(n, d)
        assert dim == series[d]
        assert dim == n**d
        assert dim == len(P.monomials(d))


@pytest.mark.parametrize("letters, n", [(1, 5), (2, 5), (3, 4), (3, 5)])
def test_monomials_are_the_multisets_of_lyndon_words(letters, n):
    from oracles import brute_force_monomials

    P = FreePoissonAlgebra(tuple(f"x{i}" for i in range(letters)), n)
    for d in range(n + 1):
        assert P.monomials(d) == brute_force_monomials(P, d)


def test_monomials_reach_a_long_budget_without_recursion():
    P = FreePoissonAlgebra(("g",), 1500)
    assert [m.factors for m in P.monomials(1500)] == [(w(0),) * 1500]
    assert len(P.monomials_upto()) == 1501


def test_an_ambient_groups_its_lyndon_words_once(monkeypatch):
    from poissonhopf import poisson

    calls = []

    def counting(*args):
        calls.append(args)
        return lyndon_words(*args)

    monkeypatch.setattr(poisson, "lyndon_words", counting)
    P = FreePoissonAlgebra(("p", "q", "r"), 4)
    P.monomials_upto()
    for _ in range(3):
        assert [len(P.lyndon_basis(d)) for d in range(6)] == [0, 3, 3, 8, 18, 0]
    assert calls == [(3, 4)]


def test_render_examples():
    P = FreePoissonAlgebra(("a", "b"), 4)
    a, b = P.gen("a"), P.gen("b")
    assert render(a) == "a"
    assert render(poiss_bracket(a, b)) == "[a,b]"
    assert render(a * poiss_bracket(a, b)) == "a*[a,b]"
    e = Fraction(2, 3) * a + b - P.one()
    assert render(e) == "-1 + 2/3*a + b"
    assert render(P.zero()) == "0"
    deep = poiss_bracket(a, poiss_bracket(a, b))
    assert render(deep) == "[a,[a,b]]"


def test_alphabet_mismatch_errors():
    P = FreePoissonAlgebra(("a", "b"), 3)
    Q = FreePoissonAlgebra(("x", "y"), 3)
    with pytest.raises(ValueError, match="alphabet mismatch"):
        P.gen("a") * Q.gen("x")
    R = FreePoissonAlgebra(("a", "b"), 4)
    with pytest.raises(ValueError, match="truncation mismatch"):
        poiss_bracket(P.gen("a"), R.gen("b"))


def test_permuted_factors_give_the_same_monomial():
    factors = (w(0), w(0, 1), w(1), w(0))
    monomials = {PoissMonomial(p) for p in itertools.permutations(factors)}
    assert len(monomials) == 1
    (m,) = monomials
    assert m is PoissMonomial(tuple(sorted(factors, key=lambda f: f.sort_key)))
    assert m.degree == 5
    assert m.sort_key == (5, tuple(f.sort_key for f in m.factors))
    assert type(m).__hash__ is object.__hash__
    assert all(hash(PoissMonomial(p)) == hash(m) for p in itertools.permutations(factors))
    assert pickle.loads(pickle.dumps(m)) is m
    assert copy.deepcopy(m) is m


def test_monomial_products_are_interned(P2):
    a, b = P2.gen("a"), P2.gen("b")
    (ab,) = poiss_product(a, b).vec
    (ba,) = poiss_product(b, a).vec
    assert ab is ba


def test_interned_monomials_are_immutable():
    with pytest.raises(AttributeError):
        PoissMonomial((w(0),)).factors = ()


def test_interning_under_racing_threads():
    import sys
    import threading

    # fresh letters, so every thread races to insert new table keys
    letter_sets = [(90 + k, 91 + k) for k in range(0, 400, 2)]
    results = [[] for _ in range(4)]
    barrier = threading.Barrier(len(results))

    def build(out):
        barrier.wait()
        for letters in letter_sets:
            word = LyndonWord(letters)
            out.append((word, PoissMonomial((word, LyndonWord(letters[:1])))))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for out in results[1:]:
        assert len(out) == len(results[0])
        assert all(a is b for pa, pb in zip(out, results[0]) for a, b in zip(pa, pb))


def test_monomials_under_racing_threads():
    import sys
    import threading

    P = FreePoissonAlgebra(("a", "b", "c"), 5)
    results = [None] * 4
    barrier = threading.Barrier(len(results))

    def build(k):
        barrier.wait()
        results[k] = [P.monomials(d) for d in (5, 2, 4, 0)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    # every thread reads the one kept list of each degree, 3^d monomials long
    for out in results:
        assert [len(ms) for ms in out] == [243, 9, 81, 1]
        assert all(a is b for a, b in zip(out, results[0]))
    assert [len(P.monomials(d)) for d in range(6)] == [1, 3, 9, 27, 81, 243]


def test_lossy_bracket_interns_no_monomial_above_the_budget():
    # letters no other test uses, so the degree-3 terms are new to the table
    P = FreePoissonAlgebra(tuple(f"x{i}" for i in range(12)), 2)
    x10, x11 = P.gen("x10"), P.gen("x11")
    before = set(_monomial_table.values())
    out = poiss_bracket(x10, x11 * x11)
    assert out.lossy and out.is_zero()
    assert all(m.degree <= 2 for m in set(_monomial_table.values()) - before)


def test_one_letter_bracket_calls_no_word_bracket(monkeypatch):
    # every factor pair of g^3 and g^2 is the word g twice, which commutes with itself
    calls = []

    def counted(u, v):
        calls.append((u, v))
        return bracket_words(u, v)

    monkeypatch.setattr(poisson, "bracket_words", counted)
    g = FreePoissonAlgebra(("g",), 5).gen("g")
    assert poiss_bracket(g * g * g, g * g).is_zero()
    assert calls == []
    # the wrapper is the one the bracket calls: two letters make one call
    a, b = FreePoissonAlgebra(("a", "b"), 2).gens()
    assert not poiss_bracket(a, b).is_zero()
    assert calls == [(w(0), w(1))]
