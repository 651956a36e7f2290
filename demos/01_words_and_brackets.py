"""Lyndon words and the free Lie algebra.

Walks through the combinatorial layer: enumerating Lyndon words, counting
them against the Witt formula, normalizing brackets into the Lyndon basis,
and checking antisymmetry and the Jacobi identity on normalized brackets.
"""

from poissonhopf import lie_bracket, lyndon_words
from poissonhopf.lyndon import lie_generator, lie_word, standard_factorization

print("Lyndon words over two letters (a=0, b=1), by degree:")
grouped = lyndon_words(2, 5)
for d in range(1, 6):
    words = ["".join("ab"[i] for i in w.letters) for w in grouped[d]]
    print(f"  degree {d}: {len(words):2d} words  {words}")

print()
print("Each word factors as u*v with v its longest proper Lyndon suffix,")
print("and the bracketing [s(u), s(v)] is a basis element of the free Lie algebra:")
w = grouped[4][1]
u, v = standard_factorization(w)
print(f"  {w.letters} splits as {u.letters} | {v.letters}")

print()
print("Brackets of basis elements normalize back into the basis.")
a, b = lie_generator(2, 0), lie_generator(2, 1)
ab = lie_bracket(a, b)
aab = lie_bracket(a, ab)
print("  [a, b]      ->", dict((x.letters, str(c)) for x, c in ab.vec.items()))
print("  [a, [a,b]]  ->", dict((x.letters, str(c)) for x, c in aab.vec.items()))
print("  [[a,b], a]  ->", dict((x.letters, str(c)) for x, c in lie_bracket(ab, a).vec.items()))

print()
print("The normalized bracket is a Lie bracket: antisymmetric, and Jacobi holds.")
abb = lie_word(2, (0, 1, 1))
print("  [s(ab), s(abb)] + [s(abb), s(ab)] == 0:",
      (lie_bracket(ab, abb) + lie_bracket(abb, ab)).is_zero())
jacobi = (lie_bracket(a, lie_bracket(ab, abb)) + lie_bracket(ab, lie_bracket(abb, a))
          + lie_bracket(abb, lie_bracket(a, ab)))
print("  [a,[s(ab),s(abb)]] + cyclic == 0:", jacobi.is_zero())
