"""Independent oracles shared by the unit and acceptance suites.

Each function here recomputes an expected value by a route disjoint from
the implementation under test: fraction-free integer elimination for ranks,
exhaustive rotation search for Lyndon words, their multisets of one
degree sum for the monomial basis, the Mobius/Witt counting
formula, generating-function series for graded dimensions, a naive
batch-closure loop for ideal saturation, the commutator expansion of
Lie brackets in the tensor algebra, coassociativity expanded into
triples, echelon back-substitution by scanning every stored row,
reduction by a basis as the full combination of its rows,
the Hopf relations by element arithmetic on the ambient coproduct table,
maps fixed by order-preserving letter renamings by renaming each
monomial and negating the bracket factor by factor, and the closed-form
targets' product, bracket and coproduct by pair loops over their labels.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction

from poissonhopf.colimits import quotient_key
from poissonhopf.linalg import EchelonBasis, SparseVec, lincomb, row_reduce, unit_vec
from poissonhopf.lyndon import LieElt, LyndonWord, standard_factorization
from poissonhopf.poisson import PoissMonomial, poiss_bracket, poiss_product
from poissonhopf.verify import Report, Violation, check_coalgebra_map, render_tensor


def bareiss_rank(matrix):
    """Fraction-free Gaussian elimination over the integers."""
    m = [list(map(int, row)) for row in matrix]
    if not m:
        return 0
    rows, cols = len(m), len(m[0])
    rank = 0
    prev = 1
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, rows):
            for c in range(col + 1, cols):
                m[r][c] = (m[rank][col] * m[r][c] - m[r][col] * m[rank][c]) // prev
            m[r][col] = 0
        prev = m[rank][col]
        rank += 1
    return rank


def mobius(n):
    result, d, m = 1, 2, n
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            result = -result
        d += 1
    if m > 1:
        result = -result
    return result


def witt_number(n, d):
    """Dimension of the degree-d part of the free Lie algebra on n letters."""
    total = sum(mobius(d // e) * n**e for e in range(1, d + 1) if d % e == 0)
    assert total % d == 0
    return total // d


def brute_force_lyndon(alphabet_size, degree):
    """All rotation-minimal words of one degree, by exhaustive search."""
    import itertools

    found = []
    for word in itertools.product(range(alphabet_size), repeat=degree):
        if all(word[i:] + word[:i] > word for i in range(1, degree)):
            found.append(word)
    return found


def brute_force_monomials(ambient, degree):
    """The sorted multisets of Lyndon words with degree sum ``degree``, in canonical order.

    The words come from ``brute_force_lyndon``; a multiset of k words takes
    them from those of degree at most ``degree - k + 1``.
    """
    import itertools

    words = [LyndonWord(letters) for e in range(1, min(degree, ambient.truncation) + 1)
             for letters in brute_force_lyndon(ambient.size, e)]
    words.sort(key=lambda w: w.sort_key)
    found = [PoissMonomial(())] if degree == 0 else []
    for k in range(1, degree + 1):
        pool = [w for w in words if w.degree <= degree - k + 1]
        found.extend(PoissMonomial(factors) for factors in itertools.combinations_with_replacement(pool, k)
                     if sum(w.degree for w in factors) == degree)
    return sorted(found, key=lambda m: m.sort_key)


def generating_function_dims(lyndon_counts, max_degree):
    """Series coefficients of prod_d (1 - t^d)^(-l_d) up to max_degree."""
    series = [1] + [0] * max_degree
    for d, ell in lyndon_counts.items():
        for _ in range(ell):
            for i in range(d, max_degree + 1):
                series[i] += series[i - d]
    return series


def reduce_by_pivots_oracle(basis, v):
    """v minus c times the row of each pivot label of v, its entry c, as one full combination.

    Each pivot label is added and then cancelled, where the implementation
    sums only the rows' tails.
    """
    rows = dict(zip(basis.pivots, basis.rows))
    return lincomb([(1, v), *((-c, rows[l]) for l, c in v.items() if l in rows)])


class ScanEchelonBasis(EchelonBasis):
    """``EchelonBasis`` whose insert probes every stored row for the new pivot.

    The back-substitution without the column index: rows are visited in the
    order their pivots were inserted and rewritten where they hold the pivot;
    ``pivot`` and ``rewritten`` report the insert as ``EchelonBasis`` does.
    """

    def insert(self, v):
        self.pivot, self.rewritten = None, []
        r = self.reduce(v)
        if not r:
            return None
        pivot, c = r.leading(self.key)
        r = r.scaled(Fraction(1) / c)
        for p, row in list(self._rows.items()):
            cp = row._entries.get(pivot)
            if cp:
                self._rows[p] = row.axpy(-cp, r)
                self.rewritten.append(p)
        self._rows[pivot] = r
        self.pivot = pivot
        return r


def brute_force_saturation(ambient, generators, n):
    """Naive ideal closure: batch-reduce, apply every in-budget operation, repeat.

    Like ``ideal_saturate``, it closes the current reduced rows only: a
    combination of rows whose lossy brackets cancel is not formed.
    """
    variables = [
        ambient.monomial_elt(PoissMonomial((w,)))
        for d in range(1, n)
        for w in ambient.lyndon_basis(d)
    ]
    letters = ambient.gens()
    current = [g.vec for g in generators]
    while True:
        basis = row_reduce(current, key=quotient_key)
        fresh = list(basis.rows)
        for row in basis.rows:
            elt = ambient.elt(row)
            top = elt.top_degree()
            for var in variables:
                if var.top_degree() + top <= n:
                    fresh.append(poiss_product(var, elt).vec)
            for x in letters:
                out = poiss_bracket(x, elt)
                if not out.lossy and out.top_degree() <= n:
                    fresh.append(out.vec)
        after = row_reduce(fresh, key=quotient_key)
        if after.rank == basis.rank:
            return after
        current = list(after.rows)


def flip_bracket(vec):
    """The bracket-flip automorphism on a vector over monomials.

    Each Lyndon factor of degree d carries d-1 brackets, so negating the
    bracket rescales a monomial by (-1)^(degree - number of factors).
    """
    return SparseVec((m, -c if (m.degree - len(m.factors)) % 2 else c) for m, c in vec.items())


def rename_letters(vec, letter_map):
    """Push a vector through an order-preserving letter renaming.

    Such a renaming keeps every Lyndon word Lyndon, with the same standard
    factorization, and keeps the factor order of a monomial.  A letter
    missing from ``letter_map`` raises ``KeyError`` with its index.
    """

    def rename(m):
        return PoissMonomial(tuple(LyndonWord(tuple(letter_map[i] for i in f.letters)) for f in m.factors))

    return SparseVec((rename(m), c) for m, c in vec.items())


# ---------------------------------------------------------------------------
# tensor-algebra oracle: words are plain letter tuples, product is
# concatenation, and a Lyndon word embeds as its expanded standard bracketing


@dataclass(frozen=True)
class TensorElt:
    alphabet_size: int
    vec: SparseVec

    def _check(self, other: "TensorElt"):
        if self.alphabet_size != other.alphabet_size:
            raise ValueError("alphabet mismatch")

    def __add__(self, other):
        self._check(other)
        return TensorElt(self.alphabet_size, self.vec + other.vec)

    def __sub__(self, other):
        self._check(other)
        return TensorElt(self.alphabet_size, self.vec - other.vec)

    def __neg__(self):
        return TensorElt(self.alphabet_size, -self.vec)

    def __rmul__(self, c):
        return TensorElt(self.alphabet_size, self.vec.scaled(c))

    def __mul__(self, other: "TensorElt") -> "TensorElt":
        self._check(other)
        data = SparseVec(
            (wa + wb, ca * cb) for wa, ca in self.vec.items() for wb, cb in other.vec.items()
        )
        return TensorElt(self.alphabet_size, data)

    def commutator(self, other: "TensorElt") -> "TensorElt":
        return self * other - other * self


@functools.lru_cache(maxsize=None)
def _word_tensor(letters: tuple) -> SparseVec:
    if len(letters) == 1:
        return unit_vec(letters)
    w = LyndonWord(letters)
    u, v = standard_factorization(w)
    tu, tv = _word_tensor(u.letters), _word_tensor(v.letters)
    return SparseVec(
        term
        for wa, ca in tu.items()
        for wb, cb in tv.items()
        for term in ((wa + wb, ca * cb), (wb + wa, -ca * cb))
    )


def lie_to_tensor(x: LieElt) -> TensorElt:
    """Commutator expansion of the standard bracketing; injective on the basis."""
    out = lincomb((c, _word_tensor(w.letters)) for w, c in x.vec.items())
    return TensorElt(x.alphabet_size, out)


# ---------------------------------------------------------------------------
# coassociativity by the triple expansion: both sides of
# (delta (x) id) delta = (id (x) delta) delta built term by term as
# (label, label, label) vectors, with the same report as the checker


def triple_expansion_coassociativity(structure) -> Report:
    report = Report()
    for l in structure.labels_upto():
        t = structure.delta_label(l).items()
        left = SparseVec(
            ((a, b, m2), c * c2)
            for (m1, m2), c in t
            for (a, b), c2 in structure.delta_label(m1).items()
        )
        right = SparseVec(
            ((m1, a, b), c * c2)
            for (m1, m2), c in t
            for (a, b), c2 in structure.delta_label(m2).items()
        )
        residual = left - right
        report.checked += 1
        if residual:
            report.violations.append(
                Violation(
                    "coassociativity",
                    (structure.render_label(l),),
                    render_tensor(structure, residual),
                )
            )
    return report


# ---------------------------------------------------------------------------
# the Hopf relations of a staged coproduct by element arithmetic:
# sum c poiss_product(S'(a), b) - eps(x) 1 over the stored coproduct table
# of the staged letter x, and the mirror with S' on the right slot; S' is
# rebuilt here from the coproduct's letter maps, not read off its table


def stage_shift(letter_maps):
    """The stage map on letter indices: each letter one stage up, the last stage back to M-2."""
    last = len(letter_maps) - 1
    return {l: letter_maps[n + 1 if n < last else last - 1][i]
            for n, lm in enumerate(letter_maps) for i, l in lm.items()}


def s_prime_oracle(staged, vec):
    """S' of an ambient vector: ``rename_letters(flip_bracket(vec), shift)``, factor by factor.

    The renaming is order-preserving below the last stage only: the fold-back
    of the last stage (the swap at M = 2) may turn a word into a non-Lyndon
    one.  So each Lyndon factor is rebuilt from its standard bracketing on the
    shifted letters with ``poiss_bracket``, one bracket flip each.
    """
    amb, shift = staged.bialgebra.ambient, stage_shift(staged.letter_maps)

    def word(w):
        if w.degree == 1:
            return amb.gen(amb.alphabet[shift[w.letters[0]]])
        u, v = standard_factorization(w)
        return -poiss_bracket(word(u), word(v))

    out = amb.zero()
    for m, c in vec.items():
        term = amb.one()
        for f in m.factors:
            term = poiss_product(term, word(f))
        out = out + term.scaled(c)
    return out


def convolution_relation_oracle(staged, base, stage, side):
    B, amb = staged.injections[0].source, staged.bialgebra.ambient
    letter = staged.letter_maps[stage][B.ambient.index(base)]
    out = amb.zero()
    for (a, b), c in staged.bialgebra.delta_table[amb.alphabet[letter]].items():
        ea, eb = amb.monomial_elt(a), amb.monomial_elt(b)
        if side == "left":
            term = poiss_product(s_prime_oracle(staged, ea.vec), eb)
        else:
            term = poiss_product(ea, s_prime_oracle(staged, eb.vec))
        out = out + term.scaled(c)
    return out - amb.scalar(B.epsilon_table[base])


def hopf_relations_oracle(staged):
    """Both relations per base letter and shiftable stage, in ``hopf_ideal_generators`` order."""
    return [
        convolution_relation_oracle(staged, base, n, side)
        for n in range(len(staged.letter_maps) - 1)
        for base in staged.injections[0].source.ambient.alphabet
        for side in ("left", "right")
    ]


# ---------------------------------------------------------------------------
# the closed-form targets' operations on vectors, by the pair loops over
# labels that ``targets.GroupAlgebra`` and ``targets.SymmetricLieHopf`` ran
# before their label maps became the primitives


def group_algebra_mul(u, v):
    return SparseVec(
        (tuple(x + y for x, y in zip(a, b)), ca * cb) for a, ca in u.items() for b, cb in v.items()
    )


def group_algebra_delta(u):
    return SparseVec({(a, a): c for a, c in u.items()})


def symmetric_lie_mul(T, u, v):
    return SparseVec(
        (tuple(sorted(a + b)), ca * cb)
        for a, ca in u.items()
        for b, cb in v.items()
        if len(a) + len(b) <= T.truncation
    )


def _symmetric_lie_bracket_terms(T, a, b):
    for i in range(len(a)):
        rest_a = a[:i] + a[i + 1 :]
        for j in range(len(b)):
            rest = rest_a + b[:j] + b[j + 1 :]
            for (k,), c in T._gen_bracket(a[i], b[j]).items():
                mono = tuple(sorted(rest + (k,)))
                if len(mono) <= T.truncation:
                    yield mono, c


def symmetric_lie_bracket(T, u, v):
    return SparseVec(
        (mono, ca * cb * c)
        for a, ca in u.items()
        for b, cb in v.items()
        for mono, c in _symmetric_lie_bracket_terms(T, a, b)
    )


def symmetric_lie_delta_label(mono):
    """Primitive on generators, extended multiplicatively: the binomial splits of one label."""
    acc = unit_vec(((), ()))
    for idx in mono:
        acc = SparseVec(
            (key, cv)
            for (l, r), cv in acc.items()
            for key in ((tuple(sorted(l + (idx,))), r), (l, tuple(sorted(r + (idx,)))))
        )
    return acc


def symmetric_lie_delta(u):
    return lincomb((c, symmetric_lie_delta_label(mono)) for mono, c in u.items())


def class_report(f, law="factorization"):
    """The coalgebra-map law of a ``MorphismTable`` on every class of its source."""
    return check_coalgebra_map(f.source, f.source.labels_upto(), f.image, f.target, law)
