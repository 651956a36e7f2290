"""Symbolic target Poisson Hopf algebras for universal-property tests.

Two closed-form families:

* ``SymmetricLieHopf`` -- the symmetric algebra on a finite Lie algebra,
  primitive comultiplication, bracket extending the structure constants as
  a biderivation (``poisson.biderivation``), truncated by total degree.
* ``GroupAlgebra`` -- the group algebra of a free abelian group Z^r
  (Laurent monomials), group-like comultiplication, zero bracket.

Both kinds satisfy the Poisson bialgebra compatibilities by construction and
carry an antipode, and both are exactly computable over Q.  Elements are
sparse vectors over the printed monomial labels given below.  Each target
keeps only its label maps; ``LabelTarget`` derives the maps on vectors from
them, through ``linalg.linear``, ``functional`` and ``bilinear``.  Its
``product``, ``bracket`` and ``one`` are the protocol of
``poisson.extend_letters``, so ``colimits.MorphismTable`` maps into a
target as into a quotient.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial, reduce

from .linalg import SparseVec, bilinear, functional, lincomb, linear, unit_vec
from .poisson import biderivation
from .verify import tensor_product


class LabelTarget:
    """The maps on vectors, from the label maps (``product_labels`` ... ``antipode_label``)."""

    bracket_sign = 1  # untwisted, as a quotient
    quotient = None  # closed form: every vector is a normal form already

    def zero(self) -> SparseVec:
        return SparseVec()

    def product(self, u: SparseVec, v: SparseVec) -> SparseVec:
        return bilinear(self.product_labels, u, v)

    def bracket(self, u: SparseVec, v: SparseVec) -> SparseVec:
        return bilinear(self.bracket_labels, u, v)

    def delta(self, u: SparseVec) -> SparseVec:
        return linear(self.delta_label, u)

    def epsilon(self, u: SparseVec) -> int | Fraction:
        return functional(self.epsilon_label, u)

    def antipode(self, u: SparseVec) -> SparseVec:
        return linear(self.antipode_label, u)


class GroupAlgebra(LabelTarget):
    """k[Z^rank]: basis labels are integer exponent tuples, all group-like."""

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank

    def unit_label(self):
        return (0,) * self.rank

    def one(self) -> SparseVec:
        return unit_vec(self.unit_label())

    def gen(self, i: int, power: int = 1) -> SparseVec:
        exps = [0] * self.rank
        exps[i] = power
        return unit_vec(tuple(exps))

    def render_label(self, label) -> str:
        if all(x == 0 for x in label):
            return "1"
        return "*".join(
            f"t{i+1}^{e}" for i, e in enumerate(label) if e
        )

    # -- label maps: labels are the exponent tuples --

    def product_labels(self, a, b) -> SparseVec:
        return unit_vec(tuple(x + y for x, y in zip(a, b)))

    def bracket_labels(self, a, b) -> SparseVec:
        return SparseVec()

    def delta_label(self, label) -> SparseVec:
        return unit_vec((label, label))

    def epsilon_label(self, label) -> int:
        return 1

    def antipode_label(self, label) -> SparseVec:
        return unit_vec(tuple(-x for x in label))


class SymmetricLieHopf(LabelTarget):
    """S(g) for a finite-dimensional Lie algebra g, truncated by degree.

    Labels are sorted tuples of generator indices.  The primitive
    comultiplication makes every generator primitive; the bracket extends
    the supplied structure constants by the Leibniz rule in both slots.
    Structure constants are validated for their generator indices, which
    must lie in 0..n-1, then for antisymmetry and Jacobi.
    """

    def __init__(self, names, brackets, truncation: int):
        self.names = tuple(names)
        self.truncation = truncation
        n, table, clash = len(self.names), {}, False
        for (i, j), terms in brackets.items():
            for k in (i, j, *terms):
                if k not in range(n):
                    raise ValueError(f"bracket table names generator index {k!r}, not in 0..{n - 1}")
            vec = SparseVec({(k,): Fraction(c) for k, c in terms.items()})
            # an entry must agree with the antisymmetric image of an earlier one
            clash = clash or table.get((i, j), vec) != vec
            table[(i, j)] = vec
            table[(j, i)] = -vec
        self._table = table
        self._check_lie_axioms()
        # refused after the Jacobi check, so a table failing both names Jacobi
        if clash:
            raise ValueError("bracket table not antisymmetric")

    def _gen_bracket(self, i: int, j: int) -> SparseVec:
        return self._table.get((i, j), SparseVec())

    def _check_lie_axioms(self):
        n = len(self.names)
        for i in range(n):
            if self._gen_bracket(i, i):
                raise ValueError("bracket table not antisymmetric")
        for i, j, k in itertools.product(range(n), repeat=3):
            acc = lincomb(
                (cm, self._gen_bracket(a, m))
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                for (m,), cm in self._gen_bracket(b, c).items()
            )
            if acc:
                raise ValueError("structure constants violate the Jacobi identity")

    def one(self) -> SparseVec:
        return unit_vec(())

    def gen(self, i: int) -> SparseVec:
        return unit_vec((i,))

    def render_label(self, label) -> str:
        if not label:
            return "1"
        return "*".join(self.names[i] for i in label)

    # -- label maps, and the rest of the checker protocol: labels are the sorted index tuples --

    def labels_upto(self):
        out = [()]
        for d in range(1, self.truncation + 1):
            out.extend(itertools.combinations_with_replacement(range(len(self.names)), d))
        return out

    def label_degree(self, label) -> int:
        return len(label)

    def product_labels(self, a, b) -> SparseVec:
        return unit_vec(tuple(sorted(a + b))) if len(a) + len(b) <= self.truncation else SparseVec()

    def bracket_labels(self, a, b) -> SparseVec:
        """The structure constants extended as a biderivation."""
        if len(a) + len(b) - 1 > self.truncation:
            return SparseVec()
        return SparseVec((tuple(sorted(rest + w)), c) for rest, w, c in biderivation(a, b, self._gen_bracket))

    def delta_label(self, label) -> SparseVec:
        """The product, in the tensor square, of the primitive images x (x) 1 + 1 (x) x of its factors."""
        primitives = (unit_vec(((i,), ())) + unit_vec(((), (i,))) for i in label)
        return reduce(partial(tensor_product, self), primitives, unit_vec(((), ())))

    def epsilon_label(self, label) -> int:
        return 0 if label else 1

    def antipode_label(self, label) -> SparseVec:
        return unit_vec(label, -1 if len(label) % 2 else 1)


def sl2_hopf(truncation: int) -> SymmetricLieHopf:
    """S(sl2) with basis e, f, h: [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    return SymmetricLieHopf(
        ("e", "f", "h"),
        {(2, 0): {0: 2}, (2, 1): {1: -2}, (0, 1): {2: 1}},
        truncation,
    )

