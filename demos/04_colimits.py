"""Colimits of truncated Poisson algebras.

Ideal saturation drives everything: quotients, coproducts of presented
algebras and coequalizers, the colimits the paper uses.
"""

from poissonhopf import (
    FreePoissonAlgebra,
    MorphismTable,
    free_quotient,
    ideal_saturate,
    parse,
    poisson_coequalizer,
    poisson_coproduct,
    quotient,
    render,
)

print("Saturating the Poisson ideal (a) inside P(a,b) at cutoff 2:")
P = FreePoissonAlgebra(("a", "b"), 2)
basis = ideal_saturate(P, [P.gen("a")])
for row in basis.rows:
    print("  row:", render(P.elt(row)))
print("  note {b,a} = -[a,b] pulls the bracket class in at the first pass")

print()
print("Quotients carry normal forms; identifying x = y leaves one line:")
Q = FreePoissonAlgebra(("x", "y"), 3)
identified = quotient(Q, [parse("x - y", Q)])
print("  graded dims of P(x,y)/(x - y):", identified.graded_dims())
print("  normal form of y*y - x*x:", render(identified.normal_form(parse("y*y - x*x", Q))))

print()
print("The coproduct of two polynomial lines is free on two letters,")
print("so its degree-2 part is 4-dimensional, not the 3 of k[x,y]:")
A = free_quotient(FreePoissonAlgebra(("x",), 2))
B = free_quotient(FreePoissonAlgebra(("y",), 2))
cp = poisson_coproduct([A, B])
print("  graded dims:", cp.quotient.graded_dims())

print()
print("Coequalizing x |-> x against x |-> y collapses back to one line:")
S = free_quotient(FreePoissonAlgebra(("x",), 3))
T = free_quotient(FreePoissonAlgebra(("x", "y"), 3))
f = MorphismTable(S, T, {"x": T.normal_form(T.ambient.gen("x"))})
g = MorphismTable(S, T, {"x": T.normal_form(T.ambient.gen("y"))})
coeq, proj = poisson_coequalizer(f, g)
print("  graded dims:", coeq.graded_dims())
