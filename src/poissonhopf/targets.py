"""Symbolic target Poisson Hopf algebras for universal-property tests.

Two closed-form families:

* ``SymmetricLieHopf`` -- the symmetric algebra on a finite Lie algebra,
  primitive comultiplication, bracket extending the structure constants as
  a biderivation, truncated by total degree.
* ``GroupAlgebra`` -- the group algebra of a free abelian group Z^r
  (Laurent monomials), group-like comultiplication, zero bracket.

Both kinds satisfy the Poisson bialgebra compatibilities by construction and
carry an antipode, and both are exactly computable over Q.  Elements are
sparse vectors over the printed monomial labels given below.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .linalg import SparseVec, lincomb, unit_vec


class GroupAlgebra:
    """k[Z^rank]: basis labels are integer exponent tuples, all group-like."""

    def __init__(self, rank: int):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank

    def unit_label(self):
        return (0,) * self.rank

    def one(self) -> SparseVec:
        return unit_vec(self.unit_label())

    def zero(self) -> SparseVec:
        return SparseVec()

    def gen(self, i: int, power: int = 1) -> SparseVec:
        exps = [0] * self.rank
        exps[i] = power
        return unit_vec(tuple(exps))

    def mul(self, u: SparseVec, v: SparseVec) -> SparseVec:
        return SparseVec(
            (tuple(x + y for x, y in zip(a, b)), ca * cb)
            for a, ca in u.items()
            for b, cb in v.items()
        )

    def bracket(self, u: SparseVec, v: SparseVec) -> SparseVec:
        return SparseVec()

    def delta(self, u: SparseVec) -> SparseVec:
        return SparseVec({(a, a): c for a, c in u.items()})

    def epsilon(self, u: SparseVec) -> Fraction:
        return sum((c for _, c in u.items()), Fraction(0))

    def antipode(self, u: SparseVec) -> SparseVec:
        return SparseVec({tuple(-x for x in a): c for a, c in u.items()})

    def render_label(self, label) -> str:
        if all(x == 0 for x in label):
            return "1"
        return "*".join(
            f"t{i+1}^{e}" for i, e in enumerate(label) if e
        )


class SymmetricLieHopf:
    """S(g) for a finite-dimensional Lie algebra g, truncated by degree.

    Labels are sorted tuples of generator indices.  The primitive
    comultiplication makes every generator primitive; the bracket extends
    the supplied structure constants by the Leibniz rule in both slots.
    Structure constants are validated for antisymmetry and Jacobi.
    """

    def __init__(self, names, brackets, truncation: int):
        self.names = tuple(names)
        self.truncation = truncation
        n = len(self.names)
        table = {}
        for (i, j), terms in brackets.items():
            vec = SparseVec({(k,): Fraction(c) for k, c in terms.items()})
            table[(i, j)] = vec
            table[(j, i)] = -vec
        for i in range(n):
            table.setdefault((i, i), SparseVec())
        self._table = table
        self._check_lie_axioms()

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

    def zero(self) -> SparseVec:
        return SparseVec()

    def gen(self, i: int) -> SparseVec:
        return unit_vec((i,))

    def mul(self, u: SparseVec, v: SparseVec) -> SparseVec:
        return SparseVec(
            (tuple(sorted(a + b)), ca * cb)
            for a, ca in u.items()
            for b, cb in v.items()
            if len(a) + len(b) <= self.truncation
        )

    def _mono_bracket_terms(self, a: tuple, b: tuple):
        for i in range(len(a)):
            rest_a = a[:i] + a[i + 1 :]
            for j in range(len(b)):
                rest = rest_a + b[:j] + b[j + 1 :]
                for (k,), c in self._gen_bracket(a[i], b[j]).items():
                    mono = tuple(sorted(rest + (k,)))
                    if len(mono) <= self.truncation:
                        yield mono, c

    def bracket(self, u: SparseVec, v: SparseVec) -> SparseVec:
        return SparseVec(
            (mono, ca * cb * c)
            for a, ca in u.items()
            for b, cb in v.items()
            for mono, c in self._mono_bracket_terms(a, b)
        )

    def delta(self, u: SparseVec) -> SparseVec:
        """Primitive on generators, extended multiplicatively (binomial splits)."""
        terms = []
        for mono, c in u.items():
            acc = unit_vec(((), ()))
            for idx in mono:
                acc = SparseVec(
                    (key, cv)
                    for (l, r), cv in acc.items()
                    for key in ((tuple(sorted(l + (idx,))), r), (l, tuple(sorted(r + (idx,)))))
                )
            terms.append((c, acc))
        return lincomb(terms)

    def epsilon(self, u: SparseVec) -> Fraction:
        return u.get(())

    def antipode(self, u: SparseVec) -> SparseVec:
        return SparseVec({a: c if len(a) % 2 == 0 else -c for a, c in u.items()})

    def render_label(self, label) -> str:
        if not label:
            return "1"
        return "*".join(self.names[i] for i in label)

    # -- protocol for the axiom checkers: labels are the sorted index tuples --

    def labels_upto(self, max_degree=None):
        n = self.truncation if max_degree is None else min(max_degree, self.truncation)
        out = [()]
        for d in range(1, n + 1):
            out.extend(itertools.combinations_with_replacement(range(len(self.names)), d))
        return out

    def label_degree(self, label) -> int:
        return len(label)

    def delta_label(self, label) -> SparseVec:
        return self.delta(unit_vec(label))

    def epsilon_label(self, label) -> Fraction:
        return self.epsilon(unit_vec(label))

    def product_labels(self, a, b) -> SparseVec:
        return self.mul(unit_vec(a), unit_vec(b))

    def bracket_labels(self, a, b) -> SparseVec:
        return self.bracket(unit_vec(a), unit_vec(b))

    def antipode_label(self, label) -> SparseVec:
        return self.antipode(unit_vec(label))

    def reduce_vec(self, v: SparseVec) -> SparseVec:
        return v

    reduce_pair = reduce_vec
    reduce_triple = reduce_vec


def sl2_hopf(truncation: int) -> SymmetricLieHopf:
    """S(sl2) with basis e, f, h: [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    return SymmetricLieHopf(
        ("e", "f", "h"),
        {(2, 0): {0: 2}, (2, 1): {1: -2}, (0, 1): {2: 1}},
        truncation,
    )


@dataclass(frozen=True)
class TargetHopfSpec:
    """Descriptor for a target family; build() returns the computable object."""

    kind: str  # "symmetric-on-lie" | "group-algebra"
    rank: int = 0
    names: tuple = ()
    brackets: tuple = ()  # ((i, j, ((k, coeff), ...)), ...)
    truncation: int = 4

    def build(self):
        if self.kind == "group-algebra":
            return GroupAlgebra(self.rank)
        if self.kind == "symmetric-on-lie":
            table = {(i, j): dict(terms) for i, j, terms in self.brackets}
            return SymmetricLieHopf(self.names, table, self.truncation)
        raise ValueError(f"unknown target kind {self.kind!r}")
