"""Fixed reference work that measures how fast the host runs Python right now.

    python3 bench/reference.py

Multiplies seeded pairs of small sparse polynomials (dicts from sorted
letter tuples to ``Fraction``), the kind of arithmetic the package spends
its time on, and prints a checksum.  It imports nothing from the package
and its work never changes, so its wall time moves only with the host: the
benchmark runs it in a fresh interpreter before and after every operation
and reports each operation's wall time as a multiple of it.
"""

from __future__ import annotations

import random
from fractions import Fraction

ITERATIONS = 800
CHECKSUM = 26238  # what main() returns; run.py rejects a run whose reference disagrees


def polynomial(rng: random.Random) -> dict:
    return {
        tuple(sorted(rng.choices("abcd", k=rng.randint(1, 3)))): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for _ in range(8)
    }


def main() -> int:
    rng = random.Random(12345)
    total = 0
    for _ in range(ITERATIONS):
        a, b = polynomial(rng), polynomial(rng)
        product: dict = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                key = tuple(sorted(ka + kb))
                value = product.get(key, 0) + va * vb
                if value:
                    product[key] = value
                else:
                    product.pop(key, None)
        total += len(product)
    return total


if __name__ == "__main__":
    print(main())
