"""From a coalgebra to its free Poisson bialgebra, and out the other side.

Builds the builtin coalgebras, induces the comultiplication on the free
Poisson algebra, re-verifies every axiom, and factors coalgebra maps
through the free object into closed-form target Hopf algebras.
"""

from poissonhopf import (
    CoalgebraMapError,
    GroupAlgebra,
    PoissMonomial,
    builtin,
    check_bialgebra,
    factor_through_free,
    induce_bialgebra,
    validate_coalgebra,
)
from poissonhopf.verify import check_coalgebra_map

for name in ("grouplike-1", "trig", "matrix-2"):
    spec = builtin(name)
    report = validate_coalgebra(spec)
    print(f"{name}: basis {spec.basis}, coalgebra laws: {report.lines()[0]}")

print()
print("Inducing the free Poisson bialgebra on the trigonometric coalgebra:")
B = induce_bialgebra(builtin("trig"), 3)
c_pairs = B.delta_table["c"]
print("  Delta(c) entries:", {(B.render_label(l), B.render_label(r)): str(k) for (l, r), k in c_pairs.items()})
(cs,) = B.ambient.lyndon_basis(2)  # the one Lyndon word of degree 2, {c,s}
w = B.delta_label(PoissMonomial((cs,)))
print("  Delta({c,s}) has", len(w), "terms, forced by the tensor-square bracket")
report = check_bialgebra(B)
print("  axiom check over all monomials of degree <= 3:", report.lines()[0])

print()
print("Universal property: a coalgebra map into a target extends uniquely.")
T = GroupAlgebra(1)
fac = factor_through_free(builtin("grouplike-1"), {"g": T.gen(0)}, T, 4)
# the factorization certifies the letters; re-check the law on every class
recheck = check_coalgebra_map(fac.source, fac.source.labels_upto(), fac.image, T, "factorization")
print("  g |-> t1 extends with g^n |-> t1^n; re-check:", recheck.lines()[0])

print()
print("Assignments that are not coalgebra maps are rejected up front:")
try:
    half = GroupAlgebra(1)
    from fractions import Fraction

    cos_like = Fraction(1, 2) * half.gen(0) + Fraction(1, 2) * half.gen(0, -1)
    sin_like = Fraction(1, 2) * half.gen(0) - Fraction(1, 2) * half.gen(0, -1)
    factor_through_free(builtin("trig"), {"c": cos_like, "s": sin_like}, half, 3)
except CoalgebraMapError as e:
    print("  rejected:", e.report.violations[0].law, "at", e.report.violations[0].witnesses)
