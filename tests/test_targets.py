"""The closed-form targets' operations on vectors against the pair-loop oracles.

Each target is given by its label maps, and ``mul``, ``bracket`` and
``delta`` extend them to vectors; the oracles in ``tests/oracles.py`` loop
over label pairs directly.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from poissonhopf.linalg import SparseVec
from poissonhopf.targets import GroupAlgebra, SymmetricLieHopf, sl2_hopf

from oracles import (
    _symmetric_lie_bracket_terms,
    group_algebra_delta,
    group_algebra_mul,
    symmetric_lie_bracket,
    symmetric_lie_delta,
    symmetric_lie_delta_label,
    symmetric_lie_mul,
)

scalars = st.one_of(st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=3))


def vectors(labels):
    return st.dictionaries(st.sampled_from(labels), scalars, max_size=5).map(SparseVec)


@pytest.mark.parametrize("target, labels", [
    (sl2_hopf(4), 35),
    (SymmetricLieHopf(("x", "y"), {}, 5), 21),
], ids=["sl2-N4", "abelian-2-N5"])
def test_symmetric_lie_delta_label_matches_the_binomial_splits(target, labels):
    # the fold of the tensor-square product over x (x) 1 + 1 (x) x, on every label
    assert len(target.labels_upto()) == labels
    for label in target.labels_upto():
        assert target.delta_label(label) == symmetric_lie_delta_label(label), label


@pytest.mark.parametrize("n", [2, 3, 4])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_symmetric_lie_ops_match_the_pair_loops(n, data):
    T = sl2_hopf(n)
    u, v = (data.draw(vectors(T.labels_upto())) for _ in range(2))
    assert T.product(u, v) == symmetric_lie_mul(T, u, v)
    assert T.bracket(u, v) == symmetric_lie_bracket(T, u, v)
    assert T.delta(u) == symmetric_lie_delta(u)


@pytest.mark.parametrize("n", [2, 3, 4])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_symmetric_lie_bracket_labels_match_the_pair_loop(n, data):
    T = sl2_hopf(n)
    a, b = (data.draw(st.sampled_from(T.labels_upto())) for _ in range(2))
    assert T.bracket_labels(a, b) == SparseVec(_symmetric_lie_bracket_terms(T, a, b))


GROUP_LABELS = list(itertools.product(range(-2, 3), repeat=2))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(vectors(GROUP_LABELS), vectors(GROUP_LABELS))
def test_group_algebra_ops_match_the_pair_loops(u, v):
    T = GroupAlgebra(2)
    assert T.product(u, v) == group_algebra_mul(u, v)
    assert not T.bracket(u, v)
    assert T.delta(u) == group_algebra_delta(u)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(vectors(GROUP_LABELS), vectors(GROUP_LABELS))
def test_group_algebra_antipode_counit_and_bracket_keep_their_closed_forms(u, v):
    # the exponents negated, the sum of the coefficients, and zero
    T = GroupAlgebra(2)
    assert T.antipode(u) == SparseVec({tuple(-x for x in a): c for a, c in u.items()})
    assert T.epsilon(u) == sum(c for _, c in u.items())
    assert T.bracket(u, v) == SparseVec()
