"""Free Poisson Hopf algebras via the staged-coproduct antipode construction.

Starting from a Poisson bialgebra B, take the coproduct of M alternating
copies B, B-op-cop, B, ...; it carries the stage map as its antipode table,
and S' is its ``antipode``, the table's sign -1 ``extend_letters``
extension over the coproduct's quotient Q/J, where J holds B's relations at
every stage (J = 0 for a free B).  The stage map sends each staged letter
to its copy one stage up, and a last-stage letter back to its copy at stage
M-2 (at M=2, the swap of the two stages).  The stage-(n+1) copy of x stands
for S of its stage-n copy, and a Poisson Hopf algebra is commutative, so
S^2 = id: the copy after the last stage is the one two stages down, and the
tower of Takeuchi's free Hopf algebra, needed only where S^2 != id, folds
back.  So S' is total, an algebra morphism and a bracket anti-morphism by
construction, and a coalgebra anti-morphism because adjacent stages differ
by the op-cop twist.  Quotienting by the Poisson ideal I generated by J and
both convolution relations

    (S' * Id - unit.counit)(x at stage n),   (Id * S' - unit.counit)(x at stage n)

for every base generator x and every stage n < M-1 produces a truncated
Poisson Hopf algebra whose antipode is induced by S'.  Each relation is the
antipode law's residual ``verify.convolution_residual`` at a staged letter
of the staged coproduct, a candidate Hopf algebra with S' for S.  Composing
with the free Poisson bialgebra on a coalgebra gives the free Poisson Hopf
algebra on that coalgebra.  The stages are read off the coproduct's letter
maps (only ``colimits.tagged_alphabet`` names and places letters).

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
- S on classes.  S and S' are one table, extended over Q/I
  (``antipode_label``) and over Q/J.  J lies in I, and once the fixpoint
  certificate has passed, Q/I's product and bracket are pi of Q/J's, so
  the projection pi: Q/J -> Q/I is a Poisson map and S(pi v) = pi(S'(v))
  for every v; with S'(I) in I, which the S'-stability certificate gives,
  S vanishes on I.  So S is well defined on classes, and an algebra
  anti-morphism and a bracket anti-morphism there, because S' is one.  So
  ``verify_antipode`` checks only the convolution law, on every class, in
  ``verify.check_antipode_convolution``, which ``hopf_coproduct_antipode``
  shares; ``verify.check_antipode`` (``verify --laws antipode``) also
  checks the anti-morphism laws on every pair of classes.
"""

from __future__ import annotations

from collections import namedtuple

from .bialgebra import (
    BialgebraCoproduct,
    PresentedPoissonBialgebra,
    bialgebra_coproduct,
    check_bialgebra,
    coideal_certificate,
    induce_bialgebra,
    op_cop,
)
from .coalgebra import CoalgebraSpec
from .colimits import TruncatedQuotient, fixpoint_certificate, quotient
from .linalg import unit_vec
from .poisson import StageOverflowError, letter_monomials, render
from .verify import Report, check_antipode_convolution, convolution_residual


def staged_coproduct(B: PresentedPoissonBialgebra, stages: int) -> BialgebraCoproduct:
    """Coproduct of `stages` copies of B, odd copies op-cop twisted, with S' as antipode table.

    ``letter_maps[n]`` maps a base letter index to its stage-n copy, as
    ``bialgebra_coproduct`` placed it; the antipode table, the stage map,
    sends each staged letter to its copy one stage up, and a last-stage
    letter to its copy at stage M-2.
    """
    if stages < 2:
        raise StageOverflowError("need at least 2 stages to define the shift")
    if B.truncation < 2:
        raise StageOverflowError("need a degree budget of at least 2 for the convolution relations")
    cp = bialgebra_coproduct([B if n % 2 == 0 else op_cop(B) for n in range(stages)])
    C, letters = cp.bialgebra, letter_monomials(cp.bialgebra.ambient)
    ups = [*cp.letter_maps[1:], cp.letter_maps[-2]]
    stage_map = {C.ambient.alphabet[lm[i]]: unit_vec(letters[up[i]])
                 for lm, up in zip(cp.letter_maps, ups) for i in lm}
    staged = PresentedPoissonBialgebra(C.quotient, C.delta_table, C.epsilon_table, C.bracket_sign, stage_map)
    return BialgebraCoproduct(staged, cp.injections, cp.letter_maps)


def hopf_ideal_generators(staged: BialgebraCoproduct) -> list:
    """Both convolution residuals of S' at every staged letter of every stage but the last."""
    B = staged.bialgebra
    letters = letter_monomials(B.ambient)
    return [B.ambient.elt(convolution_residual(B, letters[l], side))
            for lm in staged.letter_maps[:-1] for l in lm.values() for side in ("left", "right")]


class TruncatedHopf(PresentedPoissonBialgebra):
    """Hopf quotient of the staged coproduct, with certified structure maps.

    Carries the staged comultiplication, counit, bracket sign and antipode
    table (the stage map) on ``quotient``; ``certificates`` holds the
    quotient's certificate reports once built.
    """

    def __init__(self, staged: BialgebraCoproduct, quotient: TruncatedQuotient):
        B = staged.bialgebra
        super().__init__(quotient, B.delta_table, B.epsilon_table, B.bracket_sign, B.antipode_table)
        self.staged = staged
        self.certificates: dict = {}

    @property
    def stages(self) -> int:
        return len(self.staged.letter_maps)

    def __repr__(self) -> str:
        return (
            f"TruncatedHopf(base={self.staged.injections[0].source.ambient.alphabet},"
            f" M={self.stages}, N={self.truncation})"
        )


def s_prime_stability_certificate(H: TruncatedHopf, vectors) -> Report:
    """S'(v) lies in the ideal for each given vector v of the ambient.

    S' is the staged coproduct's antipode.  On the ideal generators this
    certifies the whole ideal once the fixpoint certificate has passed (the
    module docstring's first lemma).
    """
    report, s_prime = Report(), H.staged.bialgebra.antipode
    for vec in vectors:
        elt = H.ambient.elt(vec)
        image = s_prime(elt)
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
    C = staged.bialgebra
    q = quotient(C.ambient, [*C.quotient.generators, *hopf_ideal_generators(staged)])
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
    return check_antipode_convolution(H, H.labels_upto(), "antipode-convolution")


HopfCoproduct = namedtuple("HopfCoproduct", "bialgebra injections report")


def hopf_coproduct_antipode(operands) -> HopfCoproduct:
    """Coproduct of Hopf algebras, with both convolution laws checked on every letter.

    ``bialgebra_coproduct`` carries the antipode tables along the injections;
    an operand without one raises ``ValueError``.
    """
    operands = list(operands)
    if any(H.antipode_table is None for H in operands):
        raise ValueError("missing antipode on an operand")
    B, injections, _ = bialgebra_coproduct(operands)
    return HopfCoproduct(B, injections,
                         check_antipode_convolution(B, letter_monomials(B.ambient), "coproduct-antipode"))

