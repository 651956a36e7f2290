"""Lyndon words, the free Lie algebra they span, and a tensor-algebra oracle.

Letters are generator indices 0..k-1; display names belong to the Poisson
layer.  A Lyndon word is strictly smaller than every proper rotation of
itself, and the standard bracketings of Lyndon words form a basis of the
free Lie algebra.  Arbitrary brackets are normalized into that basis by the
classical rewriting with antisymmetry and the Jacobi identity; correctness
is checked against the commutator expansion in the tensor algebra, which is
implemented independently below.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .linalg import SparseVec, lincomb, unit_vec


def is_lyndon(letters: tuple) -> bool:
    """True iff the word is strictly smaller than all its proper rotations."""
    n = len(letters)
    if n == 0:
        return False
    for i in range(1, n):
        if letters[i:] + letters[:i] <= letters:
            return False
    return True


@dataclass(frozen=True)
class LyndonWord:
    letters: tuple

    def __post_init__(self):
        if not is_lyndon(self.letters):
            raise ValueError(f"not a Lyndon word: {self.letters}")

    @property
    def degree(self) -> int:
        return len(self.letters)

    @property
    def sort_key(self):
        return (len(self.letters), self.letters)

    def __lt__(self, other: "LyndonWord") -> bool:
        return self.sort_key < other.sort_key

    def __repr__(self) -> str:
        return f"LyndonWord{self.letters}"


@functools.lru_cache(maxsize=None)
def lyndon_letters(alphabet_size: int, max_degree: int) -> tuple:
    """All Lyndon letter tuples of length <= max_degree, via Duval's algorithm."""
    if alphabet_size < 0 or max_degree < 1:
        raise ValueError("alphabet_size must be >= 0 and max_degree >= 1")
    if alphabet_size == 0:
        return ()
    out = []
    w = [0]
    while w:
        if len(w) <= max_degree:
            out.append(tuple(w))
        # extend periodically to the cutoff, then increment the last letter
        w = (w * (max_degree // len(w) + 1))[:max_degree]
        while w and w[-1] == alphabet_size - 1:
            w.pop()
        if not w:
            break
        w[-1] += 1
    return tuple(out)


def lyndon_words(alphabet_size: int, max_degree: int) -> dict:
    """Lyndon words grouped by degree, lexicographically ordered per degree."""
    grouped: dict = {d: [] for d in range(1, max_degree + 1)}
    for letters in lyndon_letters(alphabet_size, max_degree):
        grouped[len(letters)].append(LyndonWord(letters))
    for d in grouped:
        grouped[d].sort(key=lambda w: w.letters)
    return grouped


@functools.lru_cache(maxsize=None)
def _std_split(letters: tuple) -> int:
    # start index of the longest proper suffix that is Lyndon
    for i in range(1, len(letters)):
        if is_lyndon(letters[i:]):
            return i
    raise ValueError(f"no Lyndon suffix in {letters}")


def standard_factorization(w: LyndonWord):
    """Right standard factorization w = u v, v the longest proper Lyndon suffix."""
    if w.degree < 2:
        raise ValueError("letters have no factorization")
    i = _std_split(w.letters)
    return LyndonWord(w.letters[:i]), LyndonWord(w.letters[i:])


def word_image(w: LyndonWord, letter_image, bracket, memo: dict):
    """Image of a Lyndon word under the Lie map fixed by its letter images.

    A letter maps to ``letter_image(letter)``; a longer word maps to the
    ``bracket`` of the images of its standard factors.  Images are memoised
    in ``memo``, which belongs to the map.
    """
    out = memo.get(w)
    if out is None:
        if w.degree == 1:
            out = letter_image(w.letters[0])
        else:
            u, v = standard_factorization(w)
            out = bracket(
                word_image(u, letter_image, bracket, memo),
                word_image(v, letter_image, bracket, memo),
            )
        memo[w] = out
    return out


_bracket_memo: dict = {}


def bracket_words(u: LyndonWord, v: LyndonWord) -> SparseVec:
    """Lie bracket of two standard bracketings, in the Lyndon basis.

    Rewrites [s(u), s(v)] by antisymmetry and Jacobi until every term is the
    standard bracketing of a Lyndon word of degree deg u + deg v.
    """
    if u.letters == v.letters:
        return SparseVec()
    if v.letters < u.letters:
        return -bracket_words(v, u)
    key = (u.letters, v.letters)
    cached = _bracket_memo.get(key)
    if cached is not None:
        return cached
    if u.degree == 1:
        result = unit_vec(LyndonWord(u.letters + v.letters))
    else:
        u1, u2 = standard_factorization(u)
        if u2.letters >= v.letters:
            # uv is Lyndon with standard factorization (u, v)
            result = unit_vec(LyndonWord(u.letters + v.letters))
        else:
            # [[u1,u2],v] = [u1,[u2,v]] - [u2,[u1,v]]
            result = _bracket_word_vec(u1, bracket_words(u2, v)) - _bracket_word_vec(
                u2, bracket_words(u1, v)
            )
    _bracket_memo[key] = result
    return result


def _bracket_word_vec(u: LyndonWord, vec: SparseVec) -> SparseVec:
    return lincomb((c, bracket_words(u, w)) for w, c in vec.items())


@dataclass(frozen=True)
class LieElt:
    """Element of the free Lie algebra in the Lyndon basis."""

    alphabet_size: int
    vec: SparseVec

    def _check(self, other: "LieElt"):
        if self.alphabet_size != other.alphabet_size:
            raise ValueError("alphabet mismatch")

    def __add__(self, other: "LieElt") -> "LieElt":
        self._check(other)
        return LieElt(self.alphabet_size, self.vec + other.vec)

    def __sub__(self, other: "LieElt") -> "LieElt":
        self._check(other)
        return LieElt(self.alphabet_size, self.vec - other.vec)

    def __neg__(self) -> "LieElt":
        return LieElt(self.alphabet_size, -self.vec)

    def __rmul__(self, c) -> "LieElt":
        return LieElt(self.alphabet_size, self.vec.scaled(c))

    def bracket(self, other: "LieElt") -> "LieElt":
        return lie_bracket(self, other)

    def is_zero(self) -> bool:
        return not self.vec


def lie_generator(alphabet_size: int, letter: int) -> LieElt:
    return LieElt(alphabet_size, unit_vec(LyndonWord((letter,))))


def lie_word(alphabet_size: int, letters) -> LieElt:
    return LieElt(alphabet_size, unit_vec(LyndonWord(tuple(letters))))


def lie_bracket(x: LieElt, y: LieElt) -> LieElt:
    """Bilinear bracket, normalized into the Lyndon basis."""
    x._check(y)
    out = lincomb(
        (cu * cv, bracket_words(u, v)) for u, cu in x.vec.items() for v, cv in y.vec.items()
    )
    return LieElt(x.alphabet_size, out)


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
