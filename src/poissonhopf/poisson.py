"""The degree-truncated free Poisson algebra: S(free Lie algebra).

A monomial is a multiset of Lyndon words; generators have degree 1 and both
the commutative product and the Poisson bracket add degrees.  Consequently a
result computed from inputs whose degree sum stays within the truncation is
exact; anything above the cutoff is dropped and the element is flagged
``lossy``.  That soundness rule is what every ideal computation downstream
leans on.

Elements print as sorted products of bracketed Lyndon words (``a*[a,b]``),
a form the expression parser reads back verbatim.

``biderivation`` is the one expansion of a bracket of monomials over factor
pairs: ``poiss_bracket`` and ``targets.SymmetricLieHopf`` both run it.

Every map the constructions build out of a free Poisson algebra is fixed by
its letter images; ``LetterExtension`` is the one implementation of that,
and ``extend_letters`` builds the algebra maps among them, Poisson maps or
bracket anti-morphisms, into an ambient, a quotient or a closed-form target.

Monomials are interned in the process-wide ``_monomial_table``, one entry
per distinct monomial ever built, next to the word table and
``_bracket_memo`` of ``lyndon``; none of the three is ever cleared.  Each
``FreePoissonAlgebra`` keeps four tables of its own, which go with it: its
Lyndon words by degree, grouped once on first use; its monomials by
degree, built once, bottom-up; and the steps of ideal closure,
``variable_products`` (u -> m -> u*m) and ``letter_brackets`` (x -> m ->
the terms of {x, m}), each formed on its first lookup.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .linalg import SparseVec, lincomb, unit_vec
from .lyndon import LyndonWord, bracket_words, lyndon_words, standard_factorization


_SORT_KEY = operator.attrgetter("sort_key")

_monomial_table: dict = {}


class PoissMonomial:
    """Commutative monomial: factors kept sorted, the empty multiset is 1.

    Hash-consed like ``LyndonWord``: every permutation of the same factors
    gives the one instance, so equality and the hash are identity's.
    ``degree`` and ``sort_key`` are computed once, when the sorted factor
    tuple is first seen; only sorted tuples are table keys.
    """

    __slots__ = ("factors", "degree", "sort_key")

    def __new__(cls, factors: tuple):
        key = tuple(sorted(factors, key=_SORT_KEY)) if len(factors) > 1 else tuple(factors)
        m = _monomial_table.get(key)
        if m is None:
            m = object.__new__(cls)
            degree = sum(f.degree for f in key)
            init = object.__setattr__
            init(m, "factors", key)
            init(m, "degree", degree)
            init(m, "sort_key", (degree, tuple(f.sort_key for f in key)))
            # setdefault, so threads racing on a new key still share one instance
            m = _monomial_table.setdefault(key, m)
        return m

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return PoissMonomial, (self.factors,)

    def __lt__(self, other: "PoissMonomial") -> bool:
        return self.sort_key < other.sort_key

    def __mul__(self, other: "PoissMonomial") -> "PoissMonomial":
        return PoissMonomial(self.factors + other.factors)

    def __repr__(self) -> str:
        return f"PoissMonomial{tuple(f.letters for f in self.factors)}"


UNIT_MONOMIAL = PoissMonomial(())


class _Steps(dict):
    """key -> of(key), each entry formed on its first lookup."""

    __slots__ = ("of",)

    def __init__(self, of):
        super().__init__()
        self.of = of

    def __missing__(self, key):
        # setdefault, so threads racing on a new key still share one value
        return self.setdefault(key, self.of(key))


class _Products(_Steps):
    """m -> u*m for the Lyndon word u = ``of``."""

    __slots__ = ()

    def __missing__(self, m):
        return self.setdefault(m, PoissMonomial(m.factors + (self.of,)))


class _LetterBrackets(_Steps):
    """m -> {x, m} for the letter x = ``of``, as a dict of terms: ``biderivation``'s expansion."""

    __slots__ = ()

    def __missing__(self, m):
        # one dict per entry, not a tuple per term: fewer objects for the collector to track
        terms: dict = {}
        for rest, w, c in biderivation((self.of,), m.factors, bracket_words):
            w = PoissMonomial(rest + (w,))
            terms[w] = terms.get(w, 0) + c
        return self.setdefault(m, terms)


class StageOverflowError(ValueError):
    """A stage, depth or degree budget out of range, refused up front."""

    exit_code = 4


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
        self._words = None  # Lyndon words by degree, grouped on first use
        self._monomials = {0: [UNIT_MONOMIAL]}  # monomials by degree, built bottom-up
        # the steps of ideal closure, by word and monomial; the caller keeps them in budget
        self.variable_products = _Steps(_Products)
        self.letter_brackets = _Steps(_LetterBrackets)

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
        if self._words is None:
            self._words = lyndon_words(self.size, self.truncation)
        return self._words.get(degree, [])

    def monomials(self, degree: int):
        """All monomials of the given exact degree, in canonical order."""
        kept = self._monomials
        for d in range(len(kept), degree + 1):
            # each kept monomial of degree d - deg w with no factor above w, times w
            out = [PoissMonomial(m.factors + (w,)) for e in range(1, d + 1) for w in self.lyndon_basis(e)
                   for m in kept[d - e] if not m.factors or not w < m.factors[-1]]
            out.sort(key=_SORT_KEY)
            # setdefault, so threads racing on a degree still share one list
            kept.setdefault(d, out)
        return kept.get(degree, [])

    def monomials_upto(self, max_degree=None):
        n = self.truncation if max_degree is None else min(max_degree, self.truncation)
        return [m for d in range(n + 1) for m in self.monomials(d)]

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

    # -- the target protocol of ``extend_letters``, shared with quotients --

    def product(self, a: "PoissElt", b: "PoissElt") -> "PoissElt":
        return poiss_product(a, b)

    def bracket(self, a: "PoissElt", b: "PoissElt") -> "PoissElt":
        return poiss_bracket(a, b)

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


def biderivation(a: tuple, b: tuple, bracket):
    """The expansion of {a, b} as a biderivation, for monomials given as factor tuples.

    Yields ``(rest, w, c)``: a term ``c*w`` of ``bracket(x, y)`` for factors x of a
    and y of b, and the other factors ``rest``.  A pair with ``x is y`` commutes, so
    it is skipped without a call.
    """
    for i, x in enumerate(a):
        rest_a = a[:i] + a[i + 1 :]
        for j, y in enumerate(b):
            if x is y:
                continue
            rest = rest_a + b[:j] + b[j + 1 :]
            for w, c in bracket(x, y).items():
                yield rest, w, c


def poiss_bracket(u: PoissElt, v: PoissElt) -> PoissElt:
    """Poisson bracket extending the free Lie bracket as a biderivation.

    Only a pair past the cutoff whose bracket has a term makes the result
    lossy: one with two different factors, since only equal Lyndon words
    commute (``lyndon.bracket_words``).
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
                    # compare the factors only: a term would be a monomial above
                    # the budget, interned for good in _monomial_table
                    lossy = lossy or any(fa is not fb for fa in ma.factors for fb in mb.factors)
                    continue
                coeff = ca * cb
                for rest, w, c in biderivation(ma.factors, mb.factors, bracket_words):
                    yield PoissMonomial(rest + (w,)), coeff * c

    vec = SparseVec(terms())
    return PoissElt(u.algebra, vec, lossy)


class LetterExtension:
    """The map out of a free Poisson algebra fixed by its letter images.

    A letter maps to ``letter_image(letter)``, a longer Lyndon word to the
    ``bracket`` of the images of its standard factors, the unit monomial to
    ``one()``, and a monomial of several factors to the ``mul`` of the image
    of its other factors with that of its last factor, memoized in ``words``
    and ``monomials``.  An anti-morphism of the bracket passes it swapped.
    """

    def __init__(self, letter_image, mul, bracket, one):
        self.letter_image = letter_image
        self.mul = mul
        self.bracket = bracket
        self.one = one
        self.words: dict = {}
        self.monomials: dict = {}

    def word(self, w: LyndonWord):
        out = self.words.get(w)
        if out is None:
            if w.degree == 1:
                out = self.letter_image(w.letters[0])
            else:
                u, v = standard_factorization(w)
                out = self.bracket(self.word(u), self.word(v))
            self.words[w] = out
        return out

    def monomial(self, m: PoissMonomial):
        out = self.monomials.get(m)
        if out is None:
            factors = m.factors
            if not factors:
                out = self.one()
            elif len(factors) == 1:
                out = self.word(factors[0])
            else:
                out = self.mul(self.monomial(PoissMonomial(factors[:-1])), self.word(factors[-1]))
            self.monomials[m] = out
        return out

    def apply(self, elt: PoissElt, algebra: FreePoissonAlgebra) -> PoissElt:
        """The linear extension to an element, for images in ``algebra``.

        The result is lossy when the element or one of the images is.
        """
        terms, lossy = [], elt.lossy
        for m, c in elt.vec.items():
            image = self.monomial(m)
            lossy = lossy or image.lossy
            terms.append((c, image.vec))
        return algebra.elt(lincomb(terms), lossy)


def extend_letters(letter_image, target, sign: int) -> LetterExtension:
    """The algebra map out of a free Poisson algebra with the given letter images.

    ``target`` is a ``FreePoissonAlgebra``, a quotient of one or a
    ``targets.LabelTarget``: its ``product``, ``bracket`` and ``one`` are the
    operations extended over.
    With ``sign`` 1 the map is a Poisson map; with -1 it is a bracket
    anti-morphism, {a, b} -> {f(b), f(a)}, extended over the swapped bracket.
    """
    bracket = target.bracket if sign == 1 else lambda x, y: target.bracket(y, x)
    return LetterExtension(letter_image, target.product, bracket, target.one)


def letter_monomials(ambient: FreePoissonAlgebra) -> list:
    """The letters as monomials, in alphabet order."""
    return [PoissMonomial((LyndonWord((i,)),)) for i in range(ambient.size)]


def graded_dimension(dim_v: int, degree: int) -> int:
    """Number of monomials of exact degree over dim_v generators: dim_v ** degree, by PBW."""
    if dim_v < 1 or degree < 1:
        raise ValueError("arguments must be >= 1")
    return dim_v**degree


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
