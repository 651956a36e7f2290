"""Lyndon enumeration vs exhaustive rotation checks; brackets vs the tensor oracle."""

import itertools

import pytest

from poissonhopf.linalg import SparseVec, unit_vec
from poissonhopf.lyndon import (
    LieElt,
    LyndonWord,
    bracket_words,
    lie_bracket,
    lie_generator,
    lie_word,
    lyndon_letters,
    lyndon_words,
    standard_factorization,
)


from oracles import brute_force_lyndon, lie_to_tensor, witt_number


def test_two_letter_enumeration_matches_spec():
    grouped = lyndon_words(2, 3)
    assert [w.letters for w in grouped[1]] == [(0,), (1,)]
    assert [w.letters for w in grouped[2]] == [(0, 1)]
    assert [w.letters for w in grouped[3]] == [(0, 0, 1), (0, 1, 1)]


def test_single_letter_alphabet():
    grouped = lyndon_words(1, 4)
    assert [w.letters for w in grouped[1]] == [(0,)]
    assert grouped[2] == [] and grouped[3] == [] and grouped[4] == []


def test_three_letters_degree_two_count():
    assert len(lyndon_words(3, 2)[2]) == 3


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_counts_match_witt_formula_and_brute_force(n, d):
    words = lyndon_words(n, d)[d]
    assert len(words) == witt_number(n, d)
    assert [w.letters for w in words] == brute_force_lyndon(n, d)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_duval_generates_lexicographic_order(size):
    # lyndon_words keeps this order per degree without sorting
    for n in range(1, 9):
        letters = lyndon_letters(size, n)
        assert list(letters) == sorted(letters)
    for words in lyndon_words(size, 4).values():
        assert [w.letters for w in words] == sorted(w.letters for w in words)


def test_lyndon_word_rejects_non_lyndon():
    with pytest.raises(ValueError):
        LyndonWord((1, 0))
    with pytest.raises(ValueError):
        LyndonWord((0, 1, 0, 1))


def test_standard_factorization_uses_longest_lyndon_suffix():
    u, v = standard_factorization(LyndonWord((0, 0, 1)))
    assert (u.letters, v.letters) == ((0,), (0, 1))
    u, v = standard_factorization(LyndonWord((0, 1, 1)))
    assert (u.letters, v.letters) == ((0, 1), (1,))
    u, v = standard_factorization(LyndonWord((0, 0, 1, 1)))
    assert (u.letters, v.letters) == ((0,), (0, 1, 1))


def test_basic_brackets():
    a, b = lie_generator(2, 0), lie_generator(2, 1)
    ab = lie_bracket(a, b)
    assert ab.vec == unit_vec(LyndonWord((0, 1)))
    assert lie_bracket(b, a).vec == -ab.vec
    # [[a,b],a] = -[a,[a,b]] = -s(aab)
    assert lie_bracket(ab, a).vec == unit_vec(LyndonWord((0, 0, 1)), -1)


def test_tensor_expansion_examples():
    a = lie_generator(2, 0)
    assert lie_to_tensor(a).vec == unit_vec((0,))
    w_ab = lie_word(2, (0, 1))
    assert lie_to_tensor(w_ab).vec == SparseVec({(0, 1): 1, (1, 0): -1})
    w_aab = lie_word(2, (0, 0, 1))
    assert lie_to_tensor(w_aab).vec == SparseVec(
        {(0, 0, 1): 1, (0, 1, 0): -2, (1, 0, 0): 1}
    )


def all_words_upto(n, dmax):
    out = []
    grouped = lyndon_words(n, dmax)
    for d in range(1, dmax + 1):
        out.extend(grouped[d])
    return out


def test_bracket_matches_tensor_commutator_to_degree_five():
    words = all_words_upto(2, 4)
    for u in words:
        for v in words:
            if u.degree + v.degree > 5:
                continue
            lhs = lie_to_tensor(LieElt(2, bracket_words(u, v)))
            tu = lie_to_tensor(LieElt(2, unit_vec(u)))
            tv = lie_to_tensor(LieElt(2, unit_vec(v)))
            assert lhs.vec == tu.commutator(tv).vec, (u, v)


def test_bracket_result_degree_is_additive():
    for u in all_words_upto(2, 3):
        for v in all_words_upto(2, 3):
            out = bracket_words(u, v)
            for w in out:
                assert w.degree == u.degree + v.degree


def test_antisymmetry_and_jacobi_on_generator_triples():
    gens3 = [lie_generator(3, i) for i in range(3)]
    words = all_words_upto(3, 2)
    elts = [LieElt(3, unit_vec(w)) for w in words]
    for x in elts:
        assert lie_bracket(x, x).is_zero()
    for x, y, z in itertools.product(elts, repeat=3):
        degs = sum(next(iter(e.vec)).degree for e in (x, y, z))
        if degs > 6:
            continue
        j = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        assert j.is_zero(), (x, y, z)
    assert all(lie_bracket(g, g).is_zero() for g in gens3)


def test_alphabet_mismatch_raises():
    with pytest.raises(ValueError, match="alphabet mismatch"):
        lie_bracket(lie_generator(2, 0), lie_generator(3, 0))


def test_words_are_interned():
    assert LyndonWord((0, 1)) is LyndonWord((0, 1))
    assert LyndonWord((0, 0, 1)) is standard_factorization(LyndonWord((0, 0, 0, 1)))[1]
    # interned, so the identity hash is the whole contract: no Python-level __hash__
    assert type(LyndonWord((0, 1))).__hash__ is object.__hash__
    assert hash(LyndonWord((0, 1))) == hash(LyndonWord((0, 1)))


def test_non_lyndon_word_raises_on_every_attempt():
    LyndonWord((0, 1))  # valid words interned first must not let (1, 0) in
    for _ in range(3):
        with pytest.raises(ValueError):
            LyndonWord((1, 0))


def test_interned_words_are_immutable():
    with pytest.raises(AttributeError):
        LyndonWord((0, 1)).letters = (0, 2)


@pytest.mark.parametrize("letters, total", [(2, 9), (3, 7), (4, 6)])
def test_brackets_of_words_vanish_only_on_equal_words(letters, total):
    # the theorem behind the factor-identity exactness tests in colimits and poisson
    grouped = lyndon_words(letters, total - 1)
    words = [w for d in sorted(grouped) for w in grouped[d]]
    pairs = 0
    for u in words:
        for v in words:
            if u.degree + v.degree <= total:
                assert (not bracket_words(u, v)) == (u is v), (u, v)
                pairs += 1
    assert pairs > len(words)
