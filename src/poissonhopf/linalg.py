"""Exact linear algebra over Q on sparse vectors with orderable labels.

Everything is a value: vectors are immutable, a basis is built once and then
only queried.  Labels may be any hashable objects; the global order used for
pivoting comes from ``label_key``, which is degree-lexicographic for the
algebra label types defined elsewhere and plain ordering for ints, strings
and tuples.  All arithmetic is in ``fractions.Fraction``, so every result is
bit-exact and canonical forms are decidable by structural equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

Scalar = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def label_key(label):
    """Sort key realizing the global total order on basis labels."""
    sk = getattr(label, "sort_key", None)
    if sk is not None:
        return sk
    if isinstance(label, tuple):
        return tuple(label_key(c) for c in label)
    return label


class SparseVec:
    """Finitely supported map from labels to nonzero rationals.

    No zero entry is ever stored, so equality is plain entrywise equality.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries=()):
        data = {}
        items = entries.items() if isinstance(entries, dict) else entries
        for label, coeff in items:
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if c:
                c = data.get(label, _ZERO) + c
                if c:
                    data[label] = c
                else:
                    del data[label]
        self._entries = data

    @classmethod
    def _raw(cls, data: dict) -> "SparseVec":
        # trusted constructor: data already has no zeros and is owned
        v = object.__new__(cls)
        v._entries = data
        return v

    def items(self):
        return self._entries.items()

    def labels(self):
        return self._entries.keys()

    def get(self, label) -> Fraction:
        return self._entries.get(label, _ZERO)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator:
        return iter(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVec):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __add__(self, other: "SparseVec") -> "SparseVec":
        return self.axpy(_ONE, other)

    def __sub__(self, other: "SparseVec") -> "SparseVec":
        return self.axpy(-_ONE, other)

    def __neg__(self) -> "SparseVec":
        return SparseVec._raw({l: -c for l, c in self._entries.items()})

    def scaled(self, c) -> "SparseVec":
        c = c if isinstance(c, Fraction) else Fraction(c)
        if not c:
            return SparseVec._raw({})
        return SparseVec._raw({l: c * v for l, v in self._entries.items()})

    def __rmul__(self, c) -> "SparseVec":
        return self.scaled(c)

    def axpy(self, c: Fraction, other: "SparseVec") -> "SparseVec":
        """self + c * other, in one pass."""
        if not c:
            return self
        data = dict(self._entries)
        for label, v in other._entries.items():
            s = data.get(label, _ZERO) + c * v
            if s:
                data[label] = s
            else:
                data.pop(label, None)
        return SparseVec._raw(data)

    def leading(self, key=label_key):
        """(label, coeff) at the smallest label, or None if zero."""
        if not self._entries:
            return None
        label = min(self._entries, key=key)
        return label, self._entries[label]

    def map_terms(self, fn) -> "SparseVec":
        """Rebuild through ``fn(label, coeff) -> iterable of (label, coeff)``."""
        return SparseVec(term for label, c in self._entries.items() for term in fn(label, c))

    def sorted_items(self, key=label_key):
        return sorted(self._entries.items(), key=lambda kv: key(kv[0]))

    def __repr__(self) -> str:
        body = ", ".join(f"{l!r}: {c}" for l, c in self.sorted_items())
        return f"SparseVec({{{body}}})"


def lincomb(terms) -> SparseVec:
    """Sum of c * v over ``(c, v)`` pairs, accumulated in a single dict."""
    data = {}
    get = data.get
    for c, v in terms:
        if not c:
            continue
        for label, x in v._entries.items():
            s = get(label, _ZERO) + c * x
            if s:
                data[label] = s
            else:
                del data[label]
    return SparseVec._raw(data)


def outer(left: SparseVec, right: SparseVec) -> SparseVec:
    """Tensor product of two vectors, over (left label, right label) pairs."""
    return SparseVec._raw(
        {(a, b): ca * cb for a, ca in left._entries.items() for b, cb in right._entries.items()}
    )


def map_pairs(t: SparseVec, f) -> SparseVec:
    """Apply the linear map with label images ``f(label)`` to both tensor slots."""
    return lincomb((c, outer(f(a), f(b))) for (a, b), c in t.items())


def _reduce_by_pivots(rows: dict, v: SparseVec) -> SparseVec:
    # rows are mutually reduced, so the pivot coefficients of v are final and
    # one combination clears every pivot label
    hits = [(-c, rows[l]) for l, c in v._entries.items() if l in rows]
    return lincomb([(_ONE, v), *hits]) if hits else v


def unit_vec(label, coeff=1) -> SparseVec:
    c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
    return SparseVec._raw({label: c}) if c else SparseVec._raw({})


class EchelonBasis:
    """Mutable reduced-row-echelon accumulator for a growing span.

    Rows are kept fully reduced: every pivot coefficient is 1 and pivot
    labels do not occur in any other row.  ``freeze`` returns the immutable
    canonical ``SubspaceBasis``.  ``rewritten`` holds the new versions of
    the rows that the last ``insert`` back-substituted into.
    """

    def __init__(self, key=label_key):
        self.key = key
        self._rows: dict = {}  # pivot label -> SparseVec
        self.rewritten: list = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduce(self, v: SparseVec) -> SparseVec:
        return _reduce_by_pivots(self._rows, v)

    def insert(self, v: SparseVec):
        """Add v to the span; returns the new normalized row, or None."""
        self.rewritten = []
        r = self.reduce(v)
        if not r:
            return None
        pivot, c = r.leading(self.key)
        r = r.scaled(1 / c)
        for p, row in list(self._rows.items()):
            cp = row.get(pivot)
            if cp:
                self._rows[p] = row = row.axpy(-cp, r)
                self.rewritten.append(row)
        self._rows[pivot] = r
        return r

    def contains(self, v: SparseVec) -> bool:
        return not self.reduce(v)

    def rows_by_pivot(self):
        return sorted(self._rows.items(), key=lambda kv: self.key(kv[0]))

    def freeze(self) -> "SubspaceBasis":
        rows = tuple(r for _, r in self.rows_by_pivot())
        pivots = tuple(p for p, _ in self.rows_by_pivot())
        return SubspaceBasis(rows=rows, pivots=pivots)


@dataclass(frozen=True)
class SubspaceBasis:
    """Reduced row-echelon basis of a subspace, rows ordered by pivot.

    The representation is canonical, so two equal subspaces built from any
    spanning sets compare equal structurally.
    """

    rows: tuple
    pivots: tuple
    _by_pivot: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_pivot", dict(zip(self.pivots, self.rows)))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: SparseVec) -> SparseVec:
        return _reduce_by_pivots(self._by_pivot, v)

    def contains(self, v: SparseVec) -> bool:
        return not self.reduce(v)

    def pivot_set(self) -> frozenset:
        return frozenset(self.pivots)


def row_reduce(vectors: Iterable[SparseVec], key=label_key) -> SubspaceBasis:
    """Unique reduced row-echelon basis of the span of the inputs."""
    acc = EchelonBasis(key=key)
    for v in vectors:
        acc.insert(v)
    return acc.freeze()


def normal_form(basis: SubspaceBasis, v: SparseVec) -> SparseVec:
    """v minus its projection onto span(basis); linear and idempotent."""
    return basis.reduce(v)


def member(basis: SubspaceBasis, v: SparseVec) -> bool:
    return basis.contains(v)
