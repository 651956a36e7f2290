"""The degree-truncated free Poisson algebra: S(free Lie algebra).

A monomial is a multiset of Lyndon words; generators have degree 1 and both
the commutative product and the Poisson bracket add degrees.  Consequently a
result computed from inputs whose degree sum stays within the truncation is
exact; anything above the cutoff is dropped and the element is flagged
``lossy``.  That soundness rule is what every ideal computation downstream
leans on.

Elements print as sorted products of bracketed Lyndon words (``a*[a,b]``),
a form the expression parser reads back verbatim.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .linalg import SparseVec, unit_vec
from .lyndon import LyndonWord, bracket_words, lyndon_words, standard_factorization


@dataclass(frozen=True)
class PoissMonomial:
    """Commutative monomial: factors kept sorted, the empty multiset is 1."""

    factors: tuple

    def __post_init__(self):
        fs = tuple(sorted(self.factors, key=lambda w: w.sort_key))
        object.__setattr__(self, "factors", fs)

    @property
    def degree(self) -> int:
        return sum(f.degree for f in self.factors)

    @property
    def sort_key(self):
        return (self.degree, tuple(f.sort_key for f in self.factors))

    def __lt__(self, other: "PoissMonomial") -> bool:
        return self.sort_key < other.sort_key

    def __mul__(self, other: "PoissMonomial") -> "PoissMonomial":
        return PoissMonomial(self.factors + other.factors)

    def drop(self, i: int) -> tuple:
        return self.factors[:i] + self.factors[i + 1 :]

    def __repr__(self) -> str:
        return f"PoissMonomial{tuple(f.letters for f in self.factors)}"


UNIT_MONOMIAL = PoissMonomial(())


class FreePoissonAlgebra:
    """Truncated free Poisson algebra on named degree-1 generators."""

    def __init__(self, alphabet, truncation: int):
        alphabet = tuple(alphabet)
        if len(set(alphabet)) != len(alphabet):
            raise ValueError(f"duplicate generator names in {alphabet}")
        if truncation < 1:
            raise ValueError("truncation must be >= 1")
        self.alphabet = alphabet
        self.truncation = truncation
        self._index = {name: i for i, name in enumerate(alphabet)}
        self._monomials_cache: dict = {}

    @property
    def size(self) -> int:
        return len(self.alphabet)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FreePoissonAlgebra):
            return NotImplemented
        return self.alphabet == other.alphabet and self.truncation == other.truncation

    def __hash__(self) -> int:
        return hash((self.alphabet, self.truncation))

    def __repr__(self) -> str:
        return f"FreePoissonAlgebra({self.alphabet}, truncation={self.truncation})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def lyndon_basis(self, degree: int):
        if degree < 1 or degree > self.truncation:
            return []
        return lyndon_words(self.size, self.truncation).get(degree, [])

    def monomials(self, degree: int):
        """All monomials of the given exact degree, in canonical order."""
        if degree < 0:
            return []
        cached = self._monomials_cache.get(degree)
        if cached is not None:
            return cached
        words = []
        for d in range(1, degree + 1):
            words.extend(self.lyndon_basis(d))

        out = []

        def grow(prefix, start, remaining):
            if remaining == 0:
                out.append(PoissMonomial(tuple(prefix)))
                return
            for i in range(start, len(words)):
                w = words[i]
                if w.degree > remaining:
                    continue
                prefix.append(w)
                grow(prefix, i, remaining - w.degree)
                prefix.pop()

        grow([], 0, degree)
        out.sort(key=lambda m: m.sort_key)
        self._monomials_cache[degree] = out
        return out

    def monomials_upto(self, max_degree=None):
        n = self.truncation if max_degree is None else min(max_degree, self.truncation)
        out = []
        for d in range(0, n + 1):
            out.extend(self.monomials(d))
        return out

    def zero(self) -> "PoissElt":
        return PoissElt(self, SparseVec(), False)

    def one(self) -> "PoissElt":
        return PoissElt(self, unit_vec(UNIT_MONOMIAL), False)

    def scalar(self, c) -> "PoissElt":
        return PoissElt(self, unit_vec(UNIT_MONOMIAL, c), False)

    def gen(self, name: str) -> "PoissElt":
        w = LyndonWord((self.index(name),))
        return PoissElt(self, unit_vec(PoissMonomial((w,))), False)

    def gens(self):
        return [self.gen(n) for n in self.alphabet]

    def elt(self, vec: SparseVec, lossy: bool = False) -> "PoissElt":
        return PoissElt(self, vec, lossy)

    def monomial_elt(self, m: PoissMonomial) -> "PoissElt":
        return PoissElt(self, unit_vec(m), False)

    # -- the label protocol of ``verify``, on the free algebra itself --

    def product_labels(self, a: PoissMonomial, b: PoissMonomial) -> SparseVec:
        return poiss_product(self.monomial_elt(a), self.monomial_elt(b)).vec

    def bracket_labels(self, a: PoissMonomial, b: PoissMonomial) -> SparseVec:
        return poiss_bracket(self.monomial_elt(a), self.monomial_elt(b)).vec


def _check_compatible(u: "PoissElt", v: "PoissElt"):
    if u.algebra.alphabet != v.algebra.alphabet:
        raise ValueError("alphabet mismatch")
    if u.algebra.truncation != v.algebra.truncation:
        raise ValueError("truncation mismatch")


class PoissElt:
    """Linear combination of monomials, tracking truncation loss.

    ``lossy`` is diagnostic only; equality compares the stored terms.
    """

    __slots__ = ("algebra", "vec", "lossy")

    def __init__(self, algebra: FreePoissonAlgebra, vec: SparseVec, lossy: bool = False):
        self.algebra = algebra
        self.vec = vec
        self.lossy = lossy

    def __eq__(self, other) -> bool:
        if not isinstance(other, PoissElt):
            return NotImplemented
        return self.algebra == other.algebra and self.vec == other.vec

    def __hash__(self) -> int:
        return hash((self.algebra, self.vec))

    def is_zero(self) -> bool:
        return not self.vec

    def top_degree(self) -> int:
        """Largest degree of a stored term; -1 for the zero element."""
        if not self.vec:
            return -1
        return max(m.degree for m in self.vec)

    def __add__(self, other: "PoissElt") -> "PoissElt":
        _check_compatible(self, other)
        return PoissElt(self.algebra, self.vec + other.vec, self.lossy or other.lossy)

    def __sub__(self, other: "PoissElt") -> "PoissElt":
        _check_compatible(self, other)
        return PoissElt(self.algebra, self.vec - other.vec, self.lossy or other.lossy)

    def __neg__(self) -> "PoissElt":
        return PoissElt(self.algebra, -self.vec, self.lossy)

    def scaled(self, c) -> "PoissElt":
        return PoissElt(self.algebra, self.vec.scaled(c), self.lossy)

    def __rmul__(self, c) -> "PoissElt":
        if isinstance(c, (int, Fraction)):
            return self.scaled(c)
        return NotImplemented

    def __mul__(self, other) -> "PoissElt":
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return poiss_product(self, other)

    def bracket(self, other: "PoissElt") -> "PoissElt":
        return poiss_bracket(self, other)

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"<PoissElt {render(self)}>"


def poiss_product(u: PoissElt, v: PoissElt) -> PoissElt:
    """Commutative product; terms above the truncation are dropped and flagged."""
    _check_compatible(u, v)
    cutoff = u.algebra.truncation
    lossy = u.lossy or v.lossy

    def terms():
        nonlocal lossy
        for ma, ca in u.vec.items():
            da = ma.degree
            for mb, cb in v.vec.items():
                if da + mb.degree > cutoff:
                    lossy = True
                else:
                    yield ma * mb, ca * cb

    vec = SparseVec(terms())
    return PoissElt(u.algebra, vec, lossy)


def _mono_bracket_terms(a: PoissMonomial, b: PoissMonomial):
    """Biderivation expansion of {a, b}: pairwise Lie brackets times the rest."""
    for i, fa in enumerate(a.factors):
        rest_a = a.drop(i)
        for j, fb in enumerate(b.factors):
            lie = bracket_words(fa, fb)
            if not lie:
                continue
            rest = rest_a + b.drop(j)
            for w, c in lie.items():
                yield PoissMonomial(rest + (w,)), c


def poiss_bracket(u: PoissElt, v: PoissElt) -> PoissElt:
    """Poisson bracket extending the free Lie bracket as a biderivation.

    Only a pair past the cutoff whose bracket has a term makes the result lossy.
    """
    _check_compatible(u, v)
    cutoff = u.algebra.truncation
    lossy = u.lossy or v.lossy

    def terms():
        nonlocal lossy
        for ma, ca in u.vec.items():
            da = ma.degree
            for mb, cb in v.vec.items():
                if da + mb.degree > cutoff:
                    lossy = lossy or next(_mono_bracket_terms(ma, mb), None) is not None
                    continue
                coeff = ca * cb
                for m, c in _mono_bracket_terms(ma, mb):
                    yield m, coeff * c

    vec = SparseVec(terms())
    return PoissElt(u.algebra, vec, lossy)


@functools.lru_cache(maxsize=None)
def graded_dimension(dim_v: int, degree: int) -> int:
    """Number of monomials of exact degree over dim_v generators, by enumeration."""
    if dim_v < 1 or degree < 1:
        raise ValueError("arguments must be >= 1")
    algebra = FreePoissonAlgebra(tuple(f"x{i}" for i in range(dim_v)), degree)
    return len(algebra.monomials(degree))


# ---------------------------------------------------------------------------
# canonical rendering; the expression parser reads this form back


def word_str(w: LyndonWord, names) -> str:
    if w.degree == 1:
        return names[w.letters[0]]
    u, v = standard_factorization(w)
    return f"[{word_str(u, names)},{word_str(v, names)}]"


def monomial_str(m: PoissMonomial, names) -> str:
    if not m.factors:
        return "1"
    return "*".join(word_str(f, names) for f in m.factors)


def _term_str(m: PoissMonomial, c: Fraction, names) -> str:
    if not m.factors:
        return str(c)
    if c == 1:
        return monomial_str(m, names)
    if c == -1:
        return f"-{monomial_str(m, names)}"
    return f"{c}*{monomial_str(m, names)}"


def render(elt: PoissElt) -> str:
    """Canonical printed form: terms sorted by the global monomial order."""
    names = elt.algebra.alphabet
    items = elt.vec.sorted_items()
    if not items:
        return "0"
    parts = [_term_str(items[0][0], items[0][1], names)]
    for m, c in items[1:]:
        if c > 0:
            parts.append(f" + {_term_str(m, c, names)}")
        else:
            parts.append(f" - {_term_str(m, -c, names)}")
    return "".join(parts)
