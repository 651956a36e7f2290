"""Row reduction against a fraction-free integer oracle."""

import copy
import pickle
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from poissonhopf.linalg import (
    EchelonBasis,
    SparseVec,
    bilinear,
    functional,
    label_key,
    lincomb,
    row_reduce,
    unit_vec,
)


def vec(*coords):
    return SparseVec({i: Fraction(c) for i, c in enumerate(coords) if c})


from oracles import ScanEchelonBasis, bareiss_rank


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
    assert basis.reduce(vec(3, 5)) == vec(0, 5)
    empty = row_reduce([])
    v = vec(7, -2)
    assert empty.reduce(v) == v
    span = row_reduce([vec(1, 2), vec(0, 1)])
    assert span.reduce(vec(4, 9)) == SparseVec()


def test_member_examples():
    assert row_reduce([vec(1, 2)]).contains(vec(1, 2))
    assert not row_reduce([vec(0, 1)]).contains(vec(1, 0))
    assert row_reduce([vec(2, 0), vec(0, 3)]).contains(vec(1, 1))


def test_normal_form_idempotent_and_pivot_free():
    basis = row_reduce([vec(1, 1, 0), vec(0, 2, 2)])
    v = vec(5, 4, 3)
    r = basis.reduce(v)
    assert basis.reduce(r) == r
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
    assert basis.reduce(v + w) == basis.reduce(v) + basis.reduce(w)


def test_incremental_insert_matches_batch():
    rows = [vec(1, 2, 3), vec(0, 1, 1), vec(1, 3, 4), vec(2, 0, 1)]
    acc = EchelonBasis()
    for r in rows:
        acc.insert(r)
    assert acc.freeze() == row_reduce(rows)


def _assert_inserts_match_full_scan(vectors, key=label_key) -> int:
    """Insert the stream into both bases; returns how many rows were rewritten."""
    indexed, scan = EchelonBasis(key=key), ScanEchelonBasis(key=key)
    rewrites = 0
    for v in vectors:
        assert indexed.insert(v) == scan.insert(v)
        assert indexed.pivot == scan.pivot
        assert indexed.rewritten == scan.rewritten
        assert indexed.freeze() == scan.freeze()
        rewrites += len(scan.rewritten)
    return rewrites


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.dictionaries(
            st.integers(0, 7),
            st.fractions(min_value=-3, max_value=3, max_denominator=3),
            max_size=5,
        ),
        max_size=12,
    ),
    st.booleans(),
)
def test_column_index_matches_full_scan(entries, descending):
    key = (lambda l: -l) if descending else label_key
    _assert_inserts_match_full_scan([SparseVec(e) for e in entries], key)


def test_column_index_matches_full_scan_on_trig_saturation(monkeypatch):
    from poissonhopf import colimits
    from poissonhopf.bialgebra import induce_bialgebra
    from poissonhopf.coalgebra import builtin
    from poissonhopf.free_hopf import hopf_ideal_generators, staged_coproduct

    staged = staged_coproduct(induce_bialgebra(builtin("trig"), 4), 2)
    relations = [*staged.bialgebra.quotient.generators, *hopf_ideal_generators(staged)]
    stream = []

    class Recording(EchelonBasis):
        def insert(self, v):
            stream.append(v)
            return super().insert(v)

    monkeypatch.setattr(colimits, "EchelonBasis", Recording)
    ideal = colimits.ideal_saturate(staged.bialgebra.ambient, relations)
    assert _assert_inserts_match_full_scan(stream, colimits.quotient_key) > 0
    assert row_reduce(stream, key=colimits.quotient_key) == ideal


scalars = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)
raw_vecs = st.dictionaries(st.integers(0, 7), scalars, max_size=6)


def _dict_oracle(terms):
    """Sum of c * d over (scalar, plain dict) pairs in Fraction arithmetic, zeros dropped."""
    acc = {}
    for c, d in terms:
        for label, x in d.items():
            acc[label] = acc.get(label, Fraction(0)) + Fraction(c) * Fraction(x)
    return {label: x for label, x in acc.items() if x}


def _assert_canonical(v, expected):
    entries = dict(v.items())
    assert entries == expected
    assert all(entries.values()), "a zero entry is stored"
    for x in entries.values():
        assert type(x) is (int if Fraction(x).denominator == 1 else Fraction), entries


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(scalars, raw_vecs), max_size=5), raw_vecs, raw_vecs, scalars)
# label 0 cancels; two halves sum to an integral Fraction
@example(terms=[(1, {0: 2, 1: 1}), (-2, {0: 1})], a={}, b={}, c=0)
@example(terms=[(Fraction(1, 2), {0: 1}), (Fraction(1, 2), {0: 1})], a={0: Fraction(1, 2)},
         b={0: Fraction(1, 2)}, c=Fraction(3))
# a scalar sum of two halves that is integral
@example(terms=[], a={0: Fraction(1, 2), 1: Fraction(1, 2)}, b={0: 1, 1: 1}, c=0)
def test_lincomb_matches_dict_oracle(terms, a, b, c):
    vecs = [(k, SparseVec(d)) for k, d in terms]
    _assert_canonical(lincomb(vecs), _dict_oracle(terms))
    chain = SparseVec()
    for k, v in vecs:
        chain = chain.axpy(k, v)
    _assert_canonical(chain, _dict_oracle(terms))
    u, v = SparseVec(a), SparseVec(b)
    _assert_canonical(u.axpy(c, v), _dict_oracle([(1, a), (c, b)]))
    _assert_canonical(u + v, _dict_oracle([(1, a), (1, b)]))
    _assert_canonical(u - v, _dict_oracle([(1, a), (-1, b)]))
    _assert_canonical(u.scaled(c), _dict_oracle([(c, a)]))
    # functional, the scalar-valued twin of linear, with the label map b
    scalar = functional(lambda label: b.get(label, 0), u)
    assert scalar == sum(_dict_oracle([(b.get(label, 0), {0: x}) for label, x in a.items()]).values())
    assert type(scalar) is (int if Fraction(scalar).denominator == 1 else Fraction)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), raw_vecs, max_size=8),
       st.dictionaries(st.integers(0, 3), scalars, max_size=4),
       st.dictionaries(st.integers(0, 3), scalars, max_size=4))
# two label pairs whose images cancel; two halves that sum to an integral Fraction
@example(table={(0, 0): {5: 1}, (0, 1): {5: 1}}, a={0: 1}, b={0: 1, 1: -1})
@example(table={(0, 0): {5: Fraction(1, 2)}}, a={0: 1}, b={0: 2})
def test_bilinear_matches_double_sum_oracle(table, a, b):
    def op(x, y):
        return SparseVec(table.get((x, y), {}))

    expected = _dict_oracle([(Fraction(ca) * Fraction(cb), table.get((x, y), {}))
                             for x, ca in a.items() for y, cb in b.items()])
    _assert_canonical(bilinear(op, SparseVec(a), SparseVec(b)), expected)


def test_unit_vec_zero_coeff_is_zero():
    assert not unit_vec("a", 0)


def test_subspace_basis_invariants():
    basis = row_reduce([vec(2, 4, 1), vec(0, 3, 5), vec(1, 2, 3)])
    pivots = list(basis.pivots)
    assert pivots == sorted(pivots)
    for row, pivot in zip(basis.rows, basis.pivots):
        assert row.get(pivot) == 1
        for other in basis.rows:
            if other is not row:
                assert other.get(pivot) == 0


def test_subspace_basis_equality_is_equality_of_subspaces():
    basis = row_reduce([vec(1, 2, 0), vec(0, 1, 1)])
    other_span = row_reduce([vec(1, 3, 1), vec(2, 5, 1), vec(0, 2, 2)])
    assert basis == other_span and hash(basis) == hash(other_span)
    assert basis != row_reduce([vec(1, 2, 0)])
    assert basis != row_reduce([vec(1, 0, 0), vec(0, 1, 0)])
    assert repr(basis) == f"SubspaceBasis(rows={basis.rows!r}, pivots={basis.pivots!r})"
    assert copy.copy(basis) == basis and pickle.loads(pickle.dumps(basis)) == basis


def test_integral_coefficients_are_ints():
    v = unit_vec("m", 2)
    assert type(v.get("m")) is int and v.get("m") == 2
    assert type(unit_vec("m", Fraction(4, 2)).get("m")) is int
    assert type(SparseVec({"m": True}).get("m")) is int
    half = SparseVec({"m": Fraction(1, 2), "n": Fraction(3, 2)})
    assert type((2 * half).get("m")) is int
    assert type(lincomb([(1, half), (1, half)]).get("n")) is int
    assert type(half.axpy(Fraction(1, 2), unit_vec("m", 1)).get("m")) is int


def test_pivot_three_normalizes_to_a_fraction():
    acc = EchelonBasis()
    row = acc.insert(SparseVec({0: 3, 1: 1}))
    assert row.get(0) == 1
    assert row.get(1) == Fraction(1, 3) and type(row.get(1)) is Fraction


def test_int_and_fraction_coefficients_compare_and_hash_alike():
    a, b = SparseVec({"m": 1}), SparseVec({"m": Fraction(1)})
    assert a == b
    assert hash(a) == hash(b)
    assert str(a.get("m")) == str(Fraction(1))
