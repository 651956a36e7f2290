"""Seeded input files for the benchmark workloads.

The seed picks an elementary basis change ``x_i <- x_i + sign * x_j`` (``i``,
``j`` and ``sign``).  A coalgebra rewritten in the new basis is isomorphic to
the original one, so every dimension the program reports for it must equal
the untwisted value; only the structure constants get denser.  Before any
file reaches the program, this module re-checks coassociativity and both
counit laws of each twisted coalgebra with its own ``Fraction`` arithmetic.
Nothing here imports the package under test.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

# name -> (basis, delta {x: {(l, r): c}}, epsilon {x: c}); the same
# coalgebras the package calls builtin:grouplike-2 and builtin:trig
BASE_COALGEBRAS = {
    "grouplike-2": (
        ("g1", "g2"),
        {"g1": {("g1", "g1"): 1}, "g2": {("g2", "g2"): 1}},
        {"g1": 1, "g2": 1},
    ),
    "trig": (
        ("c", "s"),
        {"c": {("c", "c"): 1, ("s", "s"): -1}, "s": {("s", "c"): 1, ("c", "s"): 1}},
        {"c": 1, "s": 0},
    ),
}


def pick_twist(rng: random.Random, size: int):
    """(i, j, sign) with i != j, drawn from the seeded generator."""
    i, j = rng.sample(range(size), 2)
    return i, j, rng.choice((1, -1))


def twist(name: str, i: int, j: int, sign: int):
    """The coalgebra ``name`` in the basis y_i = x_i + sign*x_j, y_k = x_k else.

    With P = 1 + sign*E_ij and its inverse Q = 1 - sign*E_ij:
    delta(y_k) = sum_l P_kl delta(x_l) with x_a = sum_m Q_am y_m, and
    epsilon(y_k) = sum_l P_kl epsilon(x_l).  Basis names are kept.
    """
    basis, delta, epsilon = BASE_COALGEBRAS[name]
    n = len(basis)
    P = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
    Q = [[Fraction(int(a == b)) for b in range(n)] for a in range(n)]
    P[i][j] += sign
    Q[i][j] -= sign
    index = {x: k for k, x in enumerate(basis)}
    new_delta = {}
    new_epsilon = {}
    for k, yk in enumerate(basis):
        acc: dict = {}
        for l, xl in enumerate(basis):
            if not P[k][l]:
                continue
            for (a, b), c in delta[xl].items():
                for ma in range(n):
                    for mb in range(n):
                        v = P[k][l] * c * Q[index[a]][ma] * Q[index[b]][mb]
                        if v:
                            key = (basis[ma], basis[mb])
                            acc[key] = acc.get(key, 0) + v
        new_delta[yk] = {key: c for key, c in acc.items() if c}
        new_epsilon[yk] = sum(P[k][l] * Fraction(epsilon[xl]) for l, xl in enumerate(basis))
    return basis, new_delta, new_epsilon


def coalgebra_violations(basis, delta, epsilon) -> list:
    """Laws that fail, by name; empty for a coalgebra."""

    def add(acc, key, c):
        acc[key] = acc.get(key, 0) + c

    bad = []
    for x in basis:
        left: dict = {}
        right: dict = {}
        for (a, b), c in delta[x].items():
            for (p, q), c2 in delta[a].items():
                add(left, (p, q, b), c * c2)
            for (p, q), c2 in delta[b].items():
                add(right, (a, p, q), c * c2)
        if {k: v for k, v in left.items() if v} != {k: v for k, v in right.items() if v}:
            bad.append(f"coassociativity at {x}")
        for side in (0, 1):
            acc: dict = {}
            for pair, c in delta[x].items():
                add(acc, pair[1 - side], c * Fraction(epsilon[pair[side]]))
            if {k: v for k, v in acc.items() if v} != {x: 1}:
                bad.append(f"counit-{'left' if side == 0 else 'right'} at {x}")
    return bad


def spec_json(basis, delta, epsilon) -> dict:
    """The package's spec-file format: scalars as 'p' or 'p/q' strings."""
    return {
        "basis": list(basis),
        "delta": {
            x: [[l, r, str(Fraction(c))] for (l, r), c in sorted(delta[x].items())]
            for x in basis
        },
        "epsilon": {x: str(Fraction(epsilon[x])) for x in basis},
    }


def write_twisted_spec(path: Path, name: str, i: int, j: int, sign: int) -> dict:
    basis, delta, epsilon = twist(name, i, j, sign)
    bad = coalgebra_violations(basis, delta, epsilon)
    if bad:
        raise ValueError(f"twisted {name} ({i}, {j}, {sign}) is not a coalgebra: {bad}")
    path.write_text(json.dumps(spec_json(basis, delta, epsilon), indent=2, sort_keys=True) + "\n")
    return {"base": name, "i": i, "j": j, "sign": sign, "path": path.name}


def generate(workdir: Path, seed: int) -> dict:
    """Write every input file into ``workdir``; returns what was chosen.

    The seed picks one elementary change (i, j, sign).  Its cost depends on
    the orientation and the sign (the coideal certificate of twisted
    grouplike-2 takes about 2.7 s to 5 s over the four changes), so the
    seeded change comes with its siblings: the grouplike-2 files hold all
    four changes on two generators, seeded one first, and the trig files the
    change and its mirror (j, i, -sign).  A pass then does the same work for
    every seed, and the seed still fixes the inputs and their order.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    i, j, sign = pick_twist(random.Random(seed), 2)
    siblings = [(i, j, sign), (j, i, -sign), (i, j, -sign), (j, i, sign)]
    chosen = {"seed": seed, "grouplike-2": [], "trig": []}
    for k, change in enumerate(siblings):
        chosen["grouplike-2"].append(
            write_twisted_spec(workdir / f"grouplike2_twist{k}.json", "grouplike-2", *change)
        )
    for k, change in enumerate(siblings[:2]):
        chosen["trig"].append(write_twisted_spec(workdir / f"trig_twist{k}.json", "trig", *change))
    for k, image in ((1, "g1"), (2, "g2")):
        (workdir / f"map_g{k}.json").write_text(
            json.dumps({"source_spec": "builtin:grouplike-1", "images": {"g": image}}) + "\n"
        )
    (workdir / "trig_hopf_artifact.json").write_text(
        json.dumps({"construct": "free-hopf", "spec": "builtin:trig", "degree": 3, "stages": 2}) + "\n"
    )
    return chosen
