"""Exact linear algebra over Q on sparse vectors with orderable labels.

Everything is a value: vectors are immutable, a basis is built once and then
only queried.  ``lincomb`` is the one loop that sums scaled vectors,
``linear`` the one extension of a label map to vectors, ``functional`` that
of a scalar-valued label map (the counits) and ``bilinear`` that of a
label-pair map: targets, quotients, coalgebras and the free Lie algebra
are given by their label maps, and only the free Poisson product and bracket
keep loops, to track truncation loss.
``EchelonBasis``, the growing span, keeps a column index (label -> rows
holding it) so that an insert back-substitutes without scanning every row.
Its rows are mutually reduced, so a pivot label cancels exactly: reductions
and back-substitution subtract only row tails, in place (``_subtract_tail``).
Labels may be any hashable objects; the global order used for pivoting
comes from ``label_key``, which is degree-lexicographic for the algebra
label types defined elsewhere and plain ordering for ints, strings and
tuples.  Scalars are exact rationals: ``int`` when integral,
``Fraction`` otherwise, so integer structure constants stay in machine-word
``int`` arithmetic until a true fraction appears.  Every result is
bit-exact and canonical forms are decidable by structural equality, since
``1 == Fraction(1)`` and both hash alike.
"""

from __future__ import annotations

from fractions import Fraction

_ONE = 1


def exact(c) -> int | Fraction:
    """The coefficient as an exact rational: int when integral, else Fraction."""
    if type(c) is not int:
        c = c if type(c) is Fraction else Fraction(c)
        if c.denominator == 1:
            return c.numerator
    return c


def _exact_values(data: dict) -> dict:
    # sums and products of fractions can be integral again; store those as int
    for label, c in data.items():
        if type(c) is Fraction and c.denominator == 1:
            data[label] = c.numerator
    return data


def label_key(label):
    """Sort key realizing the global total order on basis labels."""
    sk = getattr(label, "sort_key", None)
    if sk is not None:
        return sk
    if isinstance(label, tuple):
        return tuple(label_key(c) for c in label)
    return label


class SparseVec:
    """Finitely supported map from labels to nonzero exact rationals.

    No zero entry is ever stored, so equality is plain entrywise equality.
    Integral coefficients are stored as ``int``: a vector built from ints
    stays in int arithmetic, and the accumulators below turn integral
    ``Fraction`` results back into ints.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries=()):
        data = {}
        get = data.get
        fractions = False
        items = entries.items() if isinstance(entries, dict) else entries
        for label, c in items:
            if type(c) is not int:
                c = exact(c)
                fractions = True
            if c:
                c = get(label, 0) + c
                if c:
                    data[label] = c
                else:
                    del data[label]
        # sums of ints are ints, so only fractional input needs the pass
        self._entries = _exact_values(data) if fractions else data

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

    def get(self, label) -> int | Fraction:
        return self._entries.get(label, 0)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVec):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __add__(self, other: "SparseVec") -> "SparseVec":
        return lincomb(((_ONE, self), (_ONE, other)))

    def __sub__(self, other: "SparseVec") -> "SparseVec":
        return lincomb(((_ONE, self), (-_ONE, other)))

    def __neg__(self) -> "SparseVec":
        return SparseVec._raw({l: -c for l, c in self._entries.items()})

    def scaled(self, c) -> "SparseVec":
        c = exact(c)
        if not c:
            return SparseVec._raw({})
        return SparseVec._raw(_exact_values({l: c * v for l, v in self._entries.items()}))

    def __rmul__(self, c) -> "SparseVec":
        return self.scaled(c)

    def axpy(self, c: int | Fraction, other: "SparseVec") -> "SparseVec":
        """self + c * other."""
        return lincomb(((_ONE, self), (c, other)))

    def leading(self, key=label_key):
        """(label, coeff) at the smallest label, or None if zero."""
        if not self._entries:
            return None
        label = min(self._entries, key=key)
        return label, self._entries[label]

    def sorted_items(self):
        return sorted(self._entries.items(), key=lambda kv: label_key(kv[0]))

    def __repr__(self) -> str:
        body = ", ".join(f"{l!r}: {c}" for l, c in self.sorted_items())
        return f"SparseVec({{{body}}})"


def lincomb(terms) -> SparseVec:
    """Sum of c * v over ``(c, v)`` pairs: the one loop that sums scaled vectors.

    The first term with a nonzero scalar seeds the dict (a plain copy when
    the scalar is 1); only the entries the later terms update can become an
    integral ``Fraction``, and those are stored as ``int`` as they are formed.
    """
    terms = iter(terms)
    for c, v in terms:
        if c:
            data = dict(v._entries) if c == 1 else v.scaled(c)._entries
            break
    else:
        return SparseVec._raw({})
    get = data.get
    for c, v in terms:
        if not c:
            continue
        for label, x in v._entries.items():
            s = get(label, 0) + c * x
            if type(s) is Fraction and s.denominator == 1:
                s = s.numerator
            if s:
                data[label] = s
            else:
                del data[label]
    return SparseVec._raw(data)


def linear(f, v: SparseVec) -> SparseVec:
    """Sum of c * f(a) over the entries (a, c) of v."""
    return lincomb((c, f(a)) for a, c in v._entries.items())


def relabel(f, v: SparseVec) -> SparseVec:
    """``linear`` for an injective f from labels to labels: no entries merge, so one dict pass."""
    return SparseVec._raw({f(a): c for a, c in v._entries.items()})


def functional(f, v: SparseVec) -> int | Fraction:
    """Sum of c * f(a) over the entries (a, c) of v, for a scalar-valued f: ``linear``'s twin."""
    return exact(sum(c * f(a) for a, c in v._entries.items()))


def bilinear(op, u: SparseVec, v: SparseVec) -> SparseVec:
    """Sum of c * d * op(a, b) over the entries (a, c) of u and (b, d) of v."""
    return lincomb((ca * cb, op(a, b)) for a, ca in u._entries.items() for b, cb in v._entries.items())


def outer_sum(terms) -> SparseVec:
    """Sum of c * (u (x) v) over ``(c, u, v)`` triples, accumulated in a single dict.

    The tensor square's labels are (left label, right label) pairs.  A
    triple with a zero scalar or an empty factor adds nothing and is skipped.
    """
    data = {}
    get = data.get
    for c, u, v in terms:
        if not (c and u and v):
            continue
        right = v._entries.items()
        for a, ca in u._entries.items():
            ca *= c
            for b, cb in right:
                key = (a, b)
                s = get(key, 0) + ca * cb
                if s:
                    data[key] = s
                else:
                    del data[key]
    return SparseVec._raw(_exact_values(data))


def map_pairs(t: SparseVec, f) -> SparseVec:
    """Apply the linear map with label images ``f(label)`` to both tensor slots."""
    return outer_sum((c, f(a), f(b)) for (a, b), c in t.items())


def _subtract_tail(data: dict, c, row: SparseVec, pivot) -> None:
    # data -= c * (row minus its pivot entry), in place, as lincomb sums
    get = data.get
    for l, x in row._entries.items():
        if l is not pivot:
            s = get(l, 0) - c * x
            if type(s) is Fraction and s.denominator == 1:
                s = s.numerator
            if s:
                data[l] = s
            else:
                del data[l]


def _reduce_by_pivots(rows: dict, v: SparseVec) -> SparseVec:
    # rows are mutually reduced, so the pivot coefficients of v are final and
    # each pivot label cancels exactly: only the row tails are summed
    if rows.keys().isdisjoint(v._entries):
        return v
    data = dict(v._entries)
    for p, c in v._entries.items():
        if p in rows:
            _subtract_tail(data, c, rows[p], p)
            data.pop(p, None)  # v's entry, unless cancelled above by a row pivot label equal to p but not p
    return SparseVec._raw(data)


def unit_vec(label, coeff=1) -> SparseVec:
    c = coeff if type(coeff) is int else exact(coeff)
    return SparseVec._raw({label: c} if c else {})


class EchelonBasis:
    """Mutable reduced-row-echelon accumulator for a growing span.

    Rows are kept fully reduced: every pivot coefficient is 1 and pivot
    labels do not occur in any other row.  ``freeze`` returns the immutable
    canonical ``SubspaceBasis``.  The last ``insert`` leaves its new row's
    pivot in ``pivot`` (None when nothing was added) and, in ``rewritten``,
    the pivots of the rows it back-substituted into, in the order they were
    inserted; ``row(p)`` is the current row of pivot p.

    A column index maps each non-pivot label to the pivots of the rows that
    hold it, so back-substitution visits only those rows instead of
    scanning all of them.  The index holds sets of labels, whose iteration
    order may follow identity hashes; the rows are visited sorted by
    insertion index, so no result depends on it.
    """

    def __init__(self, key=label_key):
        self.key = key
        self._rows: dict = {}  # pivot label -> SparseVec
        self._order: dict = {}  # pivot label -> insertion index
        self._cols: dict = {}  # non-pivot label -> pivots of the rows holding it
        self.pivot = None
        self.rewritten: list = []

    def row(self, pivot) -> SparseVec:
        return self._rows[pivot]

    def reduce(self, v: SparseVec) -> SparseVec:
        return _reduce_by_pivots(self._rows, v)

    def insert(self, v: SparseVec):
        """Add v to the span; returns the new normalized row, or None."""
        self.pivot, self.rewritten = None, []
        r = _reduce_by_pivots(self._rows, v)
        if not r:
            return None
        pivot, c = r.leading(self.key)
        if c != 1:
            r = r.scaled(c if c == -1 else Fraction(1) / c)  # 1/c
        rows, cols = self._rows, self._cols
        labels = [l for l in r._entries if l is not pivot]
        for l in labels:
            cols.setdefault(l, set()).add(pivot)
        # back-substitute into the rows holding the pivot, oldest first, summing r's tail
        self.rewritten = sorted(cols.pop(pivot, ()), key=self._order.__getitem__)
        for p in self.rewritten:
            data = dict(rows[p]._entries)
            _subtract_tail(data, data.pop(pivot), r, pivot)
            rows[p] = SparseVec._raw(data)
            for l in labels:
                (cols[l].add if l in data else cols[l].discard)(p)
        self._order[pivot] = len(rows)
        rows[pivot] = r
        self.pivot = pivot
        return r

    def freeze(self) -> "SubspaceBasis":
        items = sorted(self._rows.items(), key=lambda kv: self.key(kv[0]))
        return SubspaceBasis(rows=tuple(r for _, r in items), pivots=tuple(p for p, _ in items))


class SubspaceBasis:
    """Reduced row-echelon basis of a subspace, rows ordered by pivot.

    The representation is canonical, so two equal subspaces built from any
    spanning sets compare equal structurally.
    """

    __slots__ = ("rows", "pivots", "_by_pivot")

    def __init__(self, rows: tuple, pivots: tuple):
        init = object.__setattr__
        init(self, "rows", rows)
        init(self, "pivots", pivots)
        init(self, "_by_pivot", dict(zip(pivots, rows)))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return SubspaceBasis, (self.rows, self.pivots)

    def __eq__(self, other) -> bool:
        if type(other) is not SubspaceBasis:
            return NotImplemented
        return self.rows == other.rows and self.pivots == other.pivots

    def __hash__(self) -> int:
        return hash((self.rows, self.pivots))

    def __repr__(self) -> str:
        return f"SubspaceBasis(rows={self.rows!r}, pivots={self.pivots!r})"

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: SparseVec) -> SparseVec:
        """v minus its projection onto the span; linear and idempotent."""
        return _reduce_by_pivots(self._by_pivot, v)

    def contains(self, v: SparseVec) -> bool:
        return not self.reduce(v)


def row_reduce(vectors, key=label_key) -> SubspaceBasis:
    """Unique reduced row-echelon basis of the span of the inputs."""
    acc = EchelonBasis(key=key)
    for v in vectors:
        acc.insert(v)
    return acc.freeze()
