"""Free Poisson Hopf algebras via the staged-coproduct antipode construction.

Starting from a Poisson bialgebra B, take the coproduct of M alternating
copies B, B-op-cop, B, ...; S' is the ``poisson.LetterExtension`` of the
stage map over ``poiss_product`` and the swapped ``poiss_bracket``
(``extend_letters`` with sign -1).  The stage map sends each staged letter
to its copy one stage up, and a last-stage letter back to its copy at stage
M-2 (at M=2, the swap of the two stages).  The stage-(n+1) copy of x stands
for S of its stage-n copy, and a Poisson Hopf algebra is commutative, so
S^2 = id: the copy after the last stage is the one two stages down, and the
tower of Takeuchi's free Hopf algebra, needed only where S^2 != id, folds
back.  So S' is total, an algebra morphism and a bracket anti-morphism by
construction, and a coalgebra anti-morphism because adjacent stages differ
by the op-cop twist.  Quotienting by the Poisson ideal generated by both
convolution relations

    (S' * Id - unit.counit)(x at stage n),   (Id * S' - unit.counit)(x at stage n)

for every base generator x and every stage n < M-1 produces a truncated
Poisson Hopf algebra whose antipode is induced by S'.  Each relation is the
antipode law's residual ``verify.convolution_residual`` at a staged letter,
with S' for S.  Composing with the free Poisson bialgebra on a coalgebra
gives the free Poisson Hopf algebra on that coalgebra.  The stages are read
off the coproduct's letter maps (only ``colimits.tagged_alphabet`` names and
places letters).

The staged coproduct is a bialgebra by construction and is not re-checked;
its axioms are checked only on request (``check_bialgebra``, ``verify``,
``free_poisson_hopf(check=True)``).  The quotient steps are certified, the
coideal and S'-stability certificates only once the fixpoint certificate
they rest on has passed.  Two lemmas keep the rest off the construction:

- S'-stability from the generators.  Once the fixpoint certificate has
  passed, the ideal I is closed under in-budget products and exact
  brackets with letters: its rows are, and as each pivot is its row's top
  monomial and occurs in no other row, an in-budget product or exact
  bracket of a combination of rows is the same combination of the rows'
  own.  The saturation builds I from its generators by such steps.  Let W
  be the set of v with S'(v) in I.  S' sends letters to letters and keeps degrees, so it sends
  x*v to S'(x)*S'(v) and an exact {x, v} to the exact -{S'(x), S'(v)}: W is
  closed under each saturation step, and once it holds the generators it
  holds I.  So the construction runs ``s_prime_stability_certificate`` on
  the generators, and ``verify`` on every ideal row.
- S on classes.  S is the sign -1 extension of the antipode table, the
  stage map, over the quotient's product and bracket (``antipode_label``).
  Once the fixpoint certificate has passed, those are pi of the ambient's,
  so S = pi(S') on the ambient; with S'(I) in I, which the S'-stability
  certificate gives, S vanishes on I.  So S is well defined on classes,
  and an algebra anti-morphism and a bracket anti-morphism there, because
  S' is one on the ambient and the projection pi is a Poisson map.  So
  ``verify_antipode`` checks only the convolution law, on every class, in
  ``verify.check_antipode_convolution``, which ``hopf_coproduct_antipode``
  shares; ``verify.check_antipode`` (``verify --laws antipode``) also
  checks the anti-morphism laws on every pair of classes.
"""

from __future__ import annotations

from collections import namedtuple

from .bialgebra import (
    PresentedPoissonBialgebra,
    bialgebra_coproduct,
    check_bialgebra,
    coideal_certificate,
    induce_bialgebra,
    op_cop,
)
from .coalgebra import CoalgebraSpec
from .colimits import TruncatedQuotient, fixpoint_certificate, quotient
from .poisson import PoissElt, StageOverflowError, extend_letters, letter_monomials, render
from .verify import Report, check_antipode_convolution, convolution_residual


class StagedBialgebra:
    """Coproduct of M alternating twists of one bialgebra, plus the shift.

    ``letter_maps[n]`` maps a base letter index to its stage-n copy, as
    ``bialgebra_coproduct`` placed it; ``shift``, the stage map, sends each
    staged letter to its copy one stage up, and a last-stage letter to its
    copy at stage M-2.
    """

    def __init__(self, bialgebra: PresentedPoissonBialgebra, base, letter_maps):
        self.bialgebra = bialgebra
        self.base = base
        self.letter_maps = letter_maps
        self.stages = len(letter_maps)
        ups = [*letter_maps[1:], letter_maps[-2]]
        self.shift = {lm[i]: up[i] for lm, up in zip(letter_maps, ups) for i in lm}
        alphabet = self.ambient.alphabet
        self._s_prime = extend_letters(lambda letter: self.ambient.gen(alphabet[self.shift[letter]]),
                                       self.ambient, -1)

    @property
    def ambient(self):
        return self.bialgebra.ambient

    def s_prime(self, elt: PoissElt) -> PoissElt:
        """The stage map extended multiplicatively and bracket-antimorphically."""
        return self._s_prime.apply(elt, self.ambient)

    def convolution_relation(self, base: str, stage: int, side: str) -> PoissElt:
        """(S' * Id - u.eps)(x at stage) for side 'left', (Id * S' - u.eps) for 'right'.

        The antipode law's residual at the staged letter, with S' for S, on
        the staged bialgebra's label maps.
        """
        x = letter_monomials(self.ambient)[self.letter_maps[stage][self.base.ambient.index(base)]]
        residual = convolution_residual(self.bialgebra, x, lambda m: self._s_prime.monomial(m).vec, side)
        return self.ambient.elt(residual)


def staged_coproduct(B: PresentedPoissonBialgebra, stages: int) -> StagedBialgebra:
    """Coproduct of `stages` copies of B, odd copies op-cop twisted."""
    if stages < 2:
        raise StageOverflowError("need at least 2 stages to define the shift")
    if B.truncation < 2:
        raise StageOverflowError("need a degree budget of at least 2 for the convolution relations")
    operands = [B if n % 2 == 0 else op_cop(B) for n in range(stages)]
    cp = bialgebra_coproduct(operands)
    return StagedBialgebra(cp.bialgebra, B, cp.letter_maps)


def hopf_ideal_generators(staged: StagedBialgebra) -> list:
    """Both convolution relations for every base generator and every stage but the last."""
    out = []
    for n in range(staged.stages - 1):
        for base in staged.base.ambient.alphabet:
            out.append(staged.convolution_relation(base, n, "left"))
            out.append(staged.convolution_relation(base, n, "right"))
    return out


class TruncatedHopf(PresentedPoissonBialgebra):
    """Hopf quotient of the staged coproduct, with certified structure maps.

    Carries the staged comultiplication, counit and bracket sign on
    ``quotient``, and the stage shift as its antipode table;
    ``certificates`` holds the quotient's certificate reports once built.
    """

    def __init__(self, staged: StagedBialgebra, quotient: TruncatedQuotient):
        B, names = staged.bialgebra, staged.ambient.alphabet
        antipode_table = {names[l]: B.ambient.gen(names[up]).vec for l, up in staged.shift.items()}
        super().__init__(quotient, B.delta_table, B.epsilon_table, B.bracket_sign, antipode_table)
        self.staged = staged
        self.certificates: dict = {}

    @property
    def stages(self) -> int:
        return self.staged.stages

    def __repr__(self) -> str:
        return (
            f"TruncatedHopf(base={self.staged.base.ambient.alphabet},"
            f" M={self.stages}, N={self.truncation})"
        )


def s_prime_stability_certificate(H: TruncatedHopf, vectors) -> Report:
    """S'(v) lies in the ideal for each given vector v of the ambient.

    On the ideal generators this certifies the whole ideal once the fixpoint
    certificate has passed (the module docstring's first lemma).
    """
    report = Report()
    for vec in vectors:
        elt = H.ambient.elt(vec)
        image = H.staged.s_prime(elt)
        report.record("sprime-stability", not H.quotient.ideal.contains(image.vec), (elt,), render,
                      lambda _: render(image))
    return report


def free_poisson_hopf(spec: CoalgebraSpec, stages: int, truncation: int,
                      check: bool = False) -> TruncatedHopf:
    """Free Poisson Hopf algebra on a coalgebra: induce, stage, quotient, certify.

    ``check=True`` also runs ``check_bialgebra`` on the staged coproduct and
    raises ``RuntimeError`` on a violation.
    """
    B = induce_bialgebra(spec, truncation)
    H = free_poisson_hopf_on_bialgebra(B, stages)
    if check:
        check_bialgebra(H.staged.bialgebra).require("staged coproduct axioms")
    return H


def free_poisson_hopf_on_bialgebra(B: PresentedPoissonBialgebra, stages: int) -> TruncatedHopf:
    """Free Poisson Hopf algebra on a Poisson bialgebra; B's relations hold at every stage."""
    staged = staged_coproduct(B, stages)
    q = quotient(staged.ambient, [*staged.bialgebra.quotient.generators, *hopf_ideal_generators(staged)])
    H = TruncatedHopf(staged, q)
    fixpoint = fixpoint_certificate(q).require("ideal fixpoint certificate")
    generators = [g.vec for g in q.generators]
    coideal = coideal_certificate(H, generators).require("coideal certificate")
    sprime = s_prime_stability_certificate(H, generators).require("S'-stability certificate")
    H.certificates = {"poisson-ideal-fixpoint": fixpoint, "coideal": coideal, "sprime-stability": sprime}
    return H


def verify_antipode(H: TruncatedHopf, depth: int = 1) -> Report:
    """The convolution law on every class of H; the anti-morphism laws hold by construction.

    ``depth`` selects nothing; it is checked against the stage budget, as
    callers pass it (``bench/child.py`` passes ``depth=1``).
    """
    if depth < 1 or depth > H.stages - 1:
        raise StageOverflowError(f"depth {depth} exceeds the stage budget {H.stages}")
    return check_antipode_convolution(H, H.labels_upto(), H.antipode_label, "antipode-convolution")


# antipode_images: coproduct letter name -> PoissElt class
HopfCoproduct = namedtuple("HopfCoproduct", "bialgebra injections antipode_images report")


def hopf_coproduct_antipode(operands) -> HopfCoproduct:
    """Coproduct of Hopf algebras, with both convolution laws checked on every letter.

    ``bialgebra_coproduct`` carries the antipode tables along the injections;
    an operand without one raises ``ValueError``.
    """
    operands = list(operands)
    if any(H.antipode_table is None for H in operands):
        raise ValueError("missing antipode on an operand")
    cp = bialgebra_coproduct(operands)
    B = cp.bialgebra
    antipode_images = {name: B.ambient.elt(vec) for name, vec in B.antipode_table.items()}
    report = check_antipode_convolution(B, letter_monomials(B.ambient), B.antipode_label,
                                        "coproduct-antipode")
    return HopfCoproduct(B, cp.injections, antipode_images, report)

