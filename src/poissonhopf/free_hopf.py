"""Free Poisson Hopf algebras via the staged-coproduct antipode construction.

Starting from a Poisson bialgebra B, take the coproduct of M alternating
copies B, B-op-cop, B, ...; S' is the ``poisson.LetterExtension`` of the
stage map, which sends each staged letter to its copy one stage up, over
``poiss_product`` and the swapped ``poiss_bracket`` (``extend_letters``
with sign -1).  So S' is an algebra morphism and a bracket anti-morphism by
construction, and a coalgebra anti-morphism because the stages alternate
the op-cop twist.  Quotienting by the Poisson ideal generated by both
convolution relations

    (S' * Id - unit.counit)(x at stage n),   (Id * S' - unit.counit)(x at stage n)

for every base generator x and every stage n with headroom produces a
truncated Poisson Hopf algebra whose antipode is induced by S'.  Each
relation is the antipode law's residual ``verify.convolution_residual`` at
a staged letter, with S' for S.  Composing with the free Poisson bialgebra
on a coalgebra gives the free Poisson Hopf algebra on that coalgebra.

The stage budget M replaces the countable tower.  The stages are read off
the coproduct's letter maps (only ``colimits.tagged_alphabet`` names and
places letters), and ``StagedBialgebra.shiftable`` is the one rule for where
S' is defined: on monomials with no letter at the last stage.  Past it S'
raises ``StageOverflowError``, and the induced antipode is a partial map,
defined on the classes whose representatives are shiftable.

The staged coproduct is a bialgebra by construction and is not re-checked;
its axioms are checked only on request (``check_bialgebra``, ``verify``,
``free_poisson_hopf(check=True)``).  The quotient steps are certified, the
coideal certificate only once the fixpoint certificate it rests on has
passed.  The antipode laws are checked on the quotient's classes, not on the
relations (zero by construction): ``verify_antipode`` and
``hopf_coproduct_antipode`` both go through the same residual, in
``verify.check_antipode_convolution``.
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
from .poisson import PoissElt, PoissMonomial, extend_letters, letter_monomials, render
from .verify import Report, check_antipode, check_antipode_convolution, convolution_residual


class StageOverflowError(ValueError):
    """A stage or degree budget out of range, or an operation needed a stage beyond it."""


class StagedBialgebra:
    """Coproduct of M alternating twists of one bialgebra, plus the shift.

    ``letter_maps[n]`` maps a base letter index to its stage-n copy, as
    ``bialgebra_coproduct`` placed it; ``shift``, the stage map, sends each
    staged letter below the last stage to its copy one stage up.
    ``shiftable`` is the one rule for where S' is defined.
    """

    def __init__(self, bialgebra: PresentedPoissonBialgebra, base, letter_maps):
        self.bialgebra = bialgebra
        self.base = base
        self.letter_maps = letter_maps
        self.stages = len(letter_maps)
        self.shift = {lm[i]: up[i] for lm, up in zip(letter_maps, letter_maps[1:]) for i in lm}
        self._s_prime = extend_letters(self._shift_letter, self.ambient, -1)

    @property
    def ambient(self):
        return self.bialgebra.ambient

    def shiftable(self, m: PoissMonomial) -> bool:
        """S' is defined on m: every letter of m has a copy one stage up."""
        shift = self.shift
        return all(i in shift for f in m.factors for i in f.letters)

    def _shift_letter(self, letter: int) -> PoissElt:
        alphabet = self.ambient.alphabet
        if letter not in self.shift:
            raise StageOverflowError(f"stage overflow: {alphabet[letter]} has no successor")
        return self.ambient.gen(alphabet[self.shift[letter]])

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
    """Both convolution relations for every base generator and shiftable stage."""
    out = []
    for n in range(staged.stages - 1):
        for base in staged.base.ambient.alphabet:
            out.append(staged.convolution_relation(base, n, "left"))
            out.append(staged.convolution_relation(base, n, "right"))
    return out


class TruncatedHopf(PresentedPoissonBialgebra):
    """Hopf quotient of the staged coproduct, with certified structure maps.

    Carries the staged comultiplication, counit and bracket sign on
    ``quotient`` plus the antipode induced by the stage shift;
    ``certificates`` holds the quotient's certificate reports once built.
    """

    def __init__(self, staged: StagedBialgebra, quotient: TruncatedQuotient):
        B = staged.bialgebra
        super().__init__(quotient, B.delta_table, B.epsilon_table, B.bracket_sign)
        self.staged = staged
        self.certificates: dict = {}
        self._antipode_label: dict = {}

    @property
    def stages(self) -> int:
        return self.staged.stages

    def __repr__(self) -> str:
        return (
            f"TruncatedHopf(base={self.staged.base.ambient.alphabet},"
            f" M={self.stages}, N={self.truncation})"
        )

    def certificates_ok(self) -> bool:
        return all(r.ok for r in self.certificates.values())

    def antipode(self, elt: PoissElt) -> PoissElt:
        """pi(S'(representative)); stage overflow where the shift runs out."""
        rep = self.quotient.normal_form(elt)
        return self.quotient.normal_form(self.staged.s_prime(rep))

    def antipode_table(self) -> dict:
        """Images of the shiftable staged generators in the quotient, by name."""
        alphabet = self.ambient.alphabet
        return {
            alphabet[j]: self.quotient.normal_form(self.staged.s_prime(self.ambient.gen(alphabet[j])))
            for j in self.staged.shift
        }

    # -- checker protocol: the bialgebra's, plus S --

    def antipode_label(self, m):
        """S of a monomial's class, memoized per structure; None where S' is undefined."""
        memo = self._antipode_label
        if m not in memo:
            shiftable = self.staged.shiftable(m)
            memo[m] = self.antipode(self.ambient.monomial_elt(m)).vec if shiftable else None
        return memo[m]


def s_prime_stability_certificate(H: TruncatedHopf) -> Report:
    """S'(row) stays in the ideal for every shiftable row.

    The rows with a letter at the last stage, where S' is undefined, are
    recorded as one skip carrying their count.
    """
    report = Report()
    staged = H.staged
    no_headroom = 0
    for row in H.quotient.ideal.rows:
        elt = H.ambient.elt(row)
        if not all(staged.shiftable(m) for m in row):
            no_headroom += 1
            continue
        image = staged.s_prime(elt)
        report.record("sprime-stability", not H.quotient.ideal.contains(image.vec), (elt,), render,
                      lambda _: render(image))
    reason = "a letter at the last stage, so S' is undefined"
    report.skip("sprime-stability", no_headroom, "ideal rows", reason)
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
    coideal = coideal_certificate(H, (g.vec for g in q.generators)).require("coideal certificate")
    H.certificates = {"poisson-ideal-fixpoint": fixpoint, "coideal": coideal,
                      "sprime-stability": s_prime_stability_certificate(H).require("S'-stability certificate")}
    return H


def verify_antipode(H: TruncatedHopf, depth: int = 1) -> Report:
    """``check_antipode`` on H: the anti-morphism and convolution laws on every class.

    ``depth`` no longer selects residuals; it is still accepted, and checked
    against the stage budget, because callers pass it (``bench/child.py``
    passes ``depth=1``).
    """
    if depth < 1 or depth > H.stages - 1:
        raise StageOverflowError(f"depth {depth} exceeds the stage budget {H.stages}")
    return check_antipode(H)


# antipode_images: coproduct letter name -> PoissElt class
HopfCoproduct = namedtuple("HopfCoproduct", "bialgebra injections antipode_images report")


def hopf_coproduct_antipode(operands) -> HopfCoproduct:
    """Coproduct of Hopf quotients with the stage-wise transported antipode.

    S extends the moved letter images over the product and, as S is a bracket
    anti-morphism, the reversed bracket.  Both convolution laws are checked
    on every letter with an antipode image by ``check_antipode_convolution``;
    a side that needs an undefined S is skipped.
    """
    operands = list(operands)
    for H in operands:
        if not isinstance(H, TruncatedHopf):
            raise ValueError("missing antipode on an operand")
    cp = bialgebra_coproduct(operands)
    q = cp.bialgebra.quotient
    names = q.ambient.alphabet
    antipode_images = {}
    for H, inj, lm in zip(operands, cp.injections, cp.letter_maps):
        for name, image in H.antipode_table().items():
            antipode_images[names[lm[H.ambient.index(name)]]] = inj.apply(image)
    S = extend_letters(lambda letter: antipode_images[names[letter]], q, -1)

    def antipode(m):
        try:
            return S.monomial(m).vec
        except KeyError:  # a letter of m has no antipode image
            return None

    every_letter = letter_monomials(q.ambient)
    letters = [every_letter[q.ambient.index(name)] for name in sorted(antipode_images)]
    report = check_antipode_convolution(cp.bialgebra, letters, antipode, "coproduct-antipode")
    return HopfCoproduct(cp.bialgebra, cp.injections, antipode_images, report)

