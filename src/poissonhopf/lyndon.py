"""Lyndon words and the free Lie algebra they span.

Letters are generator indices 0..k-1; display names belong to the Poisson
layer.  A Lyndon word is strictly smaller than every proper rotation of
itself, and the standard bracketings of Lyndon words form a basis of the
free Lie algebra.  Arbitrary brackets are normalized into that basis by the
classical rewriting with antisymmetry and the Jacobi identity; the tests
check them against the commutator expansion in the tensor algebra, which
``tests/oracles.py`` implements independently.  The standard factorization
also fixes the image of a word under any map given on letters; the one
recursion that builds such images is ``poisson.LetterExtension``.

Two process-wide tables live here, and neither is ever cleared:
``_word_table`` interns Lyndon words (one entry per distinct word ever
built, each keeping its standard factorization once it is asked for), and
``_bracket_memo`` holds the bracket of each ordered word pair
once it has been normalized.  Its keys are pairs of the interned words
themselves, so a lookup hashes two identities, not two letter tuples; a
pair in decreasing order and a pair of equal words are stored too, so a
repeated call never builds a vector.
"""

from __future__ import annotations

from collections import namedtuple

from .linalg import SparseVec, bilinear, lincomb, unit_vec


def is_lyndon(letters: tuple) -> bool:
    """True iff the word is strictly smaller than all its proper rotations."""
    n = len(letters)
    if n == 0:
        return False
    for i in range(1, n):
        if letters[i:] + letters[:i] <= letters:
            return False
    return True


_word_table: dict = {}


class LyndonWord:
    """A Lyndon word, hash-consed: ``LyndonWord(letters)`` returns the one
    instance for those letters, so equality is identity, and so is the
    hash (``object.__hash__``, computed in C).  Identity hashes differ
    between processes; no output depends on them, because label dicts keep
    insertion order and a set of labels is iterated only after sorting.

    ``degree`` and ``sort_key`` are computed once, when the word is first
    built; ``is_lyndon`` runs then too, and a rejected word never enters the
    table, so it raises on every attempt.  ``split``, the standard
    factorization, is set on the first ``standard_factorization`` call.
    """

    __slots__ = ("letters", "degree", "sort_key", "split")

    def __new__(cls, letters: tuple):
        w = _word_table.get(letters)
        if w is None:
            if not is_lyndon(letters):
                raise ValueError(f"not a Lyndon word: {letters}")
            w = object.__new__(cls)
            init = object.__setattr__
            init(w, "letters", letters)
            init(w, "degree", len(letters))
            init(w, "sort_key", (len(letters), letters))
            init(w, "split", None)
            # setdefault, so threads racing on a new word still share one instance
            w = _word_table.setdefault(letters, w)
        return w

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return LyndonWord, (self.letters,)

    def __lt__(self, other: "LyndonWord") -> bool:
        return self.sort_key < other.sort_key

    def __repr__(self) -> str:
        return f"LyndonWord{self.letters}"


def lyndon_letters(alphabet_size: int, max_degree: int) -> tuple:
    """All Lyndon letter tuples of length <= max_degree in lexicographic order, via Duval's algorithm."""
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
    """Lyndon words grouped by degree, in Duval's lexicographic order per degree."""
    grouped: dict = {d: [] for d in range(1, max_degree + 1)}
    for letters in lyndon_letters(alphabet_size, max_degree):
        grouped[len(letters)].append(LyndonWord(letters))
    return grouped


def standard_factorization(w: LyndonWord):
    """Right standard factorization w = u v, v the longest proper Lyndon suffix."""
    split = w.split
    if split is None:
        if w.degree < 2:
            raise ValueError("letters have no factorization")
        letters = w.letters
        # the last letter alone is a Lyndon suffix, so the search ends
        i = next(i for i in range(1, len(letters)) if is_lyndon(letters[i:]))
        split = LyndonWord(letters[:i]), LyndonWord(letters[i:])
        object.__setattr__(w, "split", split)
    return split


_bracket_memo: dict = {}


def bracket_words(u: LyndonWord, v: LyndonWord) -> SparseVec:
    """Lie bracket of two standard bracketings, in the Lyndon basis.

    Rewrites [s(u), s(v)] by antisymmetry and Jacobi until every term is the
    standard bracketing of a Lyndon word of degree deg u + deg v.

    The result is zero exactly when u is v.  Subalgebras of a free Lie
    algebra are free (Shirshov-Witt), so if [s(u), s(v)] = 0 the subalgebra
    they generate is free and abelian, hence at most one-dimensional; but
    distinct Lyndon words are linearly independent.  So callers that only
    ask whether a bracket of words vanishes compare the interned words.
    """
    key = (u, v)
    cached = _bracket_memo.get(key)
    if cached is not None:
        return cached
    if u is v:
        result = SparseVec()
    elif v.letters < u.letters:
        result = -bracket_words(v, u)
    elif u.degree == 1:
        result = unit_vec(LyndonWord(u.letters + v.letters))
    else:
        u1, u2 = standard_factorization(u)
        if u2.letters >= v.letters:
            # uv is Lyndon with standard factorization (u, v)
            result = unit_vec(LyndonWord(u.letters + v.letters))
        else:
            # [[u1,u2],v] = [u1,[u2,v]] - [u2,[u1,v]]
            result = lincomb([*((c, bracket_words(u1, w)) for w, c in bracket_words(u2, v).items()),
                              *((-c, bracket_words(u2, w)) for w, c in bracket_words(u1, v).items())])
    _bracket_memo[key] = result
    return result


class LieElt(namedtuple("LieElt", "alphabet_size vec")):
    """Element of the free Lie algebra in the Lyndon basis."""

    __slots__ = ()

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
    return LieElt(x.alphabet_size, bilinear(bracket_words, x.vec, y.vec))

