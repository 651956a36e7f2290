"""Row reduction against a fraction-free integer oracle."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from poissonhopf.linalg import (
    EchelonBasis,
    SparseVec,
    lincomb,
    member,
    normal_form,
    row_reduce,
    unit_vec,
)


def vec(*coords):
    return SparseVec({i: Fraction(c) for i, c in enumerate(coords) if c})


from oracles import bareiss_rank


def test_already_echelon_identity():
    basis = row_reduce([vec(1, 0), vec(0, 1)])
    assert basis.rank == 2
    assert basis.rows == (vec(1, 0), vec(0, 1))


def test_zero_vector_gives_empty_basis():
    basis = row_reduce([vec(0, 0)])
    assert basis.rank == 0
    assert basis.rows == ()


def test_hand_gaussian_example():
    # [(2,4),(1,2),(1,3)] reduces to the identity rows, rank 2
    basis = row_reduce([vec(2, 4), vec(1, 2), vec(1, 3)])
    assert basis.rank == 2
    assert basis.rows == (vec(1, 0), vec(0, 1))


def test_row_reduce_idempotent():
    basis = row_reduce([vec(3, 1, 4), vec(1, 5, 9), vec(2, 6, 5)])
    again = row_reduce(basis.rows)
    assert again == basis


def test_normal_form_examples():
    basis = row_reduce([vec(1, 0)])
    assert normal_form(basis, vec(3, 5)) == vec(0, 5)
    empty = row_reduce([])
    v = vec(7, -2)
    assert normal_form(empty, v) == v
    span = row_reduce([vec(1, 2), vec(0, 1)])
    assert normal_form(span, vec(4, 9)) == SparseVec()


def test_member_examples():
    assert member(row_reduce([vec(1, 2)]), vec(1, 2))
    assert not member(row_reduce([vec(0, 1)]), vec(1, 0))
    assert member(row_reduce([vec(2, 0), vec(0, 3)]), vec(1, 1))


def test_normal_form_idempotent_and_pivot_free():
    basis = row_reduce([vec(1, 1, 0), vec(0, 2, 2)])
    v = vec(5, 4, 3)
    r = normal_form(basis, v)
    assert normal_form(basis, r) == r
    for p in basis.pivots:
        assert r.get(p) == 0


small_int = st.integers(min_value=-6, max_value=6)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    st.lists(
        st.lists(small_int, min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    )
)
def test_rank_matches_fraction_free_oracle(matrix):
    basis = row_reduce([vec(*row) for row in matrix])
    assert basis.rank == bareiss_rank(matrix)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.lists(small_int, min_size=3, max_size=3), min_size=1, max_size=3),
    st.lists(small_int, min_size=3, max_size=3),
    st.lists(small_int, min_size=3, max_size=3),
)
def test_normal_form_is_linear(matrix, xs, ys):
    basis = row_reduce([vec(*row) for row in matrix])
    v, w = vec(*xs), vec(*ys)
    assert normal_form(basis, v + w) == normal_form(basis, v) + normal_form(basis, w)


def test_incremental_insert_matches_batch():
    rows = [vec(1, 2, 3), vec(0, 1, 1), vec(1, 3, 4), vec(2, 0, 1)]
    acc = EchelonBasis()
    for r in rows:
        acc.insert(r)
    assert acc.freeze() == row_reduce(rows)


def test_lincomb_matches_axpy_chain():
    terms = [
        (Fraction(2), vec(1, 0, 3)),
        (Fraction(-1, 2), vec(4, 5, 0)),
        (Fraction(0), vec(7, 7, 7)),
    ]
    chain = SparseVec()
    for c, v in terms:
        chain = chain.axpy(c, v)
    assert lincomb(terms) == chain
    # label 0 cancels and is not stored
    cancelled = lincomb([(Fraction(1), vec(2, 1)), (Fraction(-2), vec(1))])
    assert cancelled == vec(0, 1)
    assert list(cancelled.labels()) == [1]
    assert lincomb([]) == SparseVec()
    assert not lincomb([])


def test_unit_vec_zero_coeff_is_zero():
    assert not unit_vec("a", 0)


def test_scalar_is_always_reduced():
    from poissonhopf.linalg import Scalar

    c = Scalar(6, -4)
    assert (c.numerator, c.denominator) == (-3, 2)
    assert Scalar(0, 7) == Scalar(0, 1)
    assert Scalar(2, 3).denominator > 0


def test_subspace_basis_invariants():
    basis = row_reduce([vec(2, 4, 1), vec(0, 3, 5), vec(1, 2, 3)])
    pivots = list(basis.pivots)
    assert pivots == sorted(pivots)
    for row, pivot in zip(basis.rows, basis.pivots):
        assert row.get(pivot) == 1
        for other in basis.rows:
            if other is not row:
                assert other.get(pivot) == 0
