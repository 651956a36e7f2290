"""The free Poisson Hopf algebra on a coalgebra, stage by stage.

One group-like generator is the cleanest instance: the staged quotient is
the Laurent polynomial ring with zero bracket, truncated symmetrically.
The trigonometric coalgebra exercises the same pipeline with a genuinely
mixing comultiplication.
"""

from poissonhopf import (
    builtin,
    free_poisson_hopf,
    hopf_ideal_generators,
    induce_bialgebra,
    render,
    staged_coproduct,
    verify_antipode,
)

print("Stage the free bialgebra on one group-like g across two copies:")
B = induce_bialgebra(builtin("grouplike-1"), 4)
staged = staged_coproduct(B, 2)
print("  staged generators:", staged.bialgebra.ambient.alphabet)
relations = hopf_ideal_generators(staged)
print("  convolution relations:", sorted({render(r) for r in relations}))

print()
print("Quotient by the saturated relation ideal:")
H = free_poisson_hopf(builtin("grouplike-1"), 2, 4)
print("  filtration dims (cumulative by degree):", H.quotient.filtration_dims())
print("  this is the Laurent ring truncated to powers |k| <= 4: 2N+1 = 9 classes")
g0, g1 = H.ambient.gen("g_0"), H.ambient.gen("g_1")
print("  g_0 * g_1 =", render(H.quotient.product(g0, g1)))
print("  {g_0, g_1} =", render(H.quotient.bracket(g0, g1)), " (brackets all die)")
print("  S(g_0) =", render(H.antipode(g0)), "  S(g_1) =", render(H.antipode(g1)), " (S' swaps the two stages)")

print()
print("Certificates carried by the quotient:")
for name, report in sorted(H.certificates.items()):
    print(f"  {name}: {report.lines()[0]}")
print("  antipode residuals:", verify_antipode(H, depth=1).lines()[0])

print()
print("Three stages identify the double shift with the original generator:")
H3 = free_poisson_hopf(builtin("grouplike-1"), 3, 4)
diff = H3.ambient.gen("g_2") - H3.ambient.gen("g_0")
print("  normal form of g_2 - g_0:", render(H3.quotient.normal_form(diff)))

print()
print("The trigonometric coalgebra runs the same pipeline:")
Ht = free_poisson_hopf(builtin("trig"), 2, 3)
print("  staged generators:", Ht.ambient.alphabet)
print("  filtration dims:", Ht.quotient.filtration_dims())
print("  all certificates pass:", all(r.ok for r in Ht.certificates.values()))
print("  antipode residuals:", verify_antipode(Ht, depth=1).lines()[0])
