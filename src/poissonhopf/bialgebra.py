"""Poisson bialgebras presented on a truncated free Poisson ambient.

The free Poisson bialgebra on a coalgebra C is the free Poisson algebra on
C's basis, with the comultiplication given on generators by the structure
constants and extended multiplicatively; on a Lyndon-word factor it is
forced by compatibility with the bracket, via the tensor-square bracket

    [p (x) q, r (x) s] = pr (x) [q, s] + [p, r] (x) qs.

A comultiplication image of a degree-d monomial of the free bialgebra
lives in bidegree (d, d), so per-side truncation at the ambient cutoff is
exact.  Quotient bialgebras reuse the same generator tables.  Their
comultiplication lands in (Q/I) (x) (Q/I), the quotient by
Q (x) I + I (x) Q, whose projection is the slotwise normal form
``reduce_pair``; the coideal certificate is "Delta of every ideal
generator is zero there", which covers every ideal row.  Both coproducts
are ``poisson.LetterExtension``s of the generator table over
``verify.tensor_product`` and ``verify.tensor_bracket`` (the ambient's or
the quotient's label maps): ``delta_label`` computes in (Q/I) (x) (Q/I)
directly, from letter images reduced once; the ambient coproduct
``delta_of_monomial``, reduced slotwise, gives the same vector once the
ideal passes the fixpoint certificate; it is the tests' oracle, not called
at run time.  The counit is the scalar ``LetterExtension``, read through
``epsilon_label``, and the coideal certificate extends ``delta_label`` to
each vector with ``linalg.linear``.  Every map fixed by generator images,
the factorization of a coalgebra map through the free bialgebra
(``factor_through_free``) and the coequalizer's maps included, is a
``colimits.MorphismTable``; its ``bialgebra_report`` checks the
coalgebra-map law on the letters, and ``verify.check_coalgebra_map`` on
every class is the tests' exhaustive check.

The bialgebra laws are checked on every class by ``check_bialgebra`` and
on the letters by ``generator_certificate``, whose lemma lifts them to
every class in the budget; the ``induce`` and ``coproduct`` commands
report the certificate.

The bialgebra owns the op-cop twist: the twist keeps the underlying
quotient and flips the stored pair tables, and the negated bracket is
carried as ``bracket_sign`` -1, so the one ambient serves both twists.  A
Hopf algebra carries S as a letter table (S' on ``free_hopf``'s staged
coproduct), as it carries Delta, and ``antipode_label`` is the table's
sign -1 ``extend_letters`` extension over the quotient on both twists, the
package's one antipode extension.  The twist keeps the table, as a
commutative Hopf algebra's twist is Hopf with the same S (S^2 = id), and
``bialgebra_coproduct`` carries it along the injections.

The checker protocol's label maps are memoized per structure:
``product_labels`` reads the quotient's ``_products`` table and
``bracket_labels`` its ``_brackets`` (both shared by a bialgebra, its
op-cop twist and a Hopf quotient built on the same quotient), except that a
twisted bialgebra keeps the negated brackets in its own ``_brackets``; and
``delta_label`` keeps its coproducts of monomials and Lyndon words in the
memos of ``_delta_quotient``, beside the ambient ``_delta_ambient``, and
``antipode_label`` its antipodes in those of ``_antipode``.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from functools import partial

from .coalgebra import CoalgebraSpec, validate_coalgebra
from .colimits import (
    MorphismTable,
    TruncatedQuotient,
    difference_quotient,
    fixpoint_certificate,
    poisson_coproduct,
    quotient,
)
from .linalg import SparseVec, exact, functional, linear, map_pairs, unit_vec
from .poisson import (
    UNIT_MONOMIAL,
    FreePoissonAlgebra,
    LetterExtension,
    PoissElt,
    PoissMonomial,
    extend_letters,
    letter_monomials,
    monomial_str,
    render,
)
from .verify import (
    Report,
    check_coassociativity,
    check_counit,
    check_poisson_compat,
    record_coassociativity,
    record_counit,
    record_poisson_compat,
    render_tensor,
    tensor_bracket,
    tensor_product,
)


class PresentedPoissonBialgebra:
    """Quotient of a truncated free Poisson algebra with induced Delta, epsilon and S.

    ``bracket_sign`` is -1 on op-cop twisted objects; the stored pair tables
    are already flipped there, so all consumers just read the fields.
    ``antipode_table`` maps each letter name to an ambient vector, S of the
    letter's class (S' on the staged coproduct), and is None on a bialgebra
    without an antipode, where S raises ``ValueError``.
    """

    def __init__(self, quotient: TruncatedQuotient, delta_table, epsilon_table,
                 bracket_sign: int = 1, antipode_table=None):
        self.quotient = quotient
        self.delta_table = dict(delta_table)
        self.epsilon_table = {k: exact(v) for k, v in epsilon_table.items()}
        self.bracket_sign = bracket_sign
        self.antipode_table = None if antipode_table is None else dict(antipode_table)
        self._brackets: dict = {}  # the negated brackets of a twisted bialgebra
        names = quotient.ambient.alphabet
        unit = unit_vec((UNIT_MONOMIAL, UNIT_MONOMIAL))
        self._delta_ambient = LetterExtension(lambda letter: self.delta_table[names[letter]],
                                              partial(tensor_product, self.ambient),
                                              self.pair_bracket_std, lambda: unit)
        self._delta_quotient = LetterExtension(
            lambda letter: self.reduce_pair(self.delta_table[names[letter]]),
            partial(tensor_product, quotient), partial(tensor_bracket, quotient),
            lambda: self.reduce_pair(unit),
        )
        # the counit is a Poisson map to Q, so it kills every bracket
        self._epsilon = LetterExtension(lambda letter: self.epsilon_table[names[letter]],
                                        operator.mul, lambda x, y: 0, lambda: 1)

        def antipode_letter(letter):
            if self.antipode_table is None:
                raise ValueError("no antipode table: this bialgebra carries no antipode")
            return quotient.normal_form(quotient.ambient.elt(self.antipode_table[names[letter]]))

        # sign -1 on both twists: negating the bracket negates both sides of S{a, b} = {Sb, Sa}
        self._antipode = extend_letters(antipode_letter, quotient, -1)

    @property
    def ambient(self) -> FreePoissonAlgebra:
        return self.quotient.ambient

    @property
    def truncation(self) -> int:
        return self.ambient.truncation

    def __repr__(self) -> str:
        return (
            f"PresentedPoissonBialgebra(alphabet={self.ambient.alphabet},"
            f" N={self.truncation}, sign={self.bracket_sign})"
        )

    # -- Poisson structure on the quotient --

    def bracket(self, a: PoissElt, b: PoissElt) -> PoissElt:
        out = self.quotient.bracket(a, b)
        return out if self.bracket_sign == 1 else -out

    # -- comultiplication and counit on ambient representatives --

    def delta_of_monomial(self, m: PoissMonomial) -> SparseVec:
        # independent of the twist: the sign of the element expression
        # s(w) = sign*{s(u), s(v)} of a Lyndon word cancels the twisted tensor bracket
        return self._delta_ambient.monomial(m)

    def epsilon(self, elt: PoissElt) -> int | Fraction:
        return functional(self.epsilon_label, elt.vec)

    def antipode(self, elt: PoissElt) -> PoissElt:
        """S of an element's class, as a normal form."""
        return self._antipode.apply(self.quotient.normal_form(elt), self.ambient)

    # -- ambient tensor-square bracket, truncated per side --

    def pair_bracket_std(self, s: SparseVec, t: SparseVec) -> SparseVec:
        """Tensor-square bracket with the standard ambient bracket."""
        return tensor_bracket(self.ambient, s, t)

    # -- the quotient projection: slotwise normal form --

    def reduce_pair(self, t: SparseVec) -> SparseVec:
        if self.quotient.ideal.rank == 0:
            return t
        return map_pairs(t, self.quotient.nf_label)

    # -- protocol for the axiom checkers --

    def labels_upto(self):
        return self.quotient.basis_monomials()

    def label_degree(self, m) -> int:
        return m.degree

    def delta_label(self, m) -> SparseVec:
        """Delta of a monomial computed in (Q/I) (x) (Q/I), memoized per monomial.

        Equals ``reduce_pair(delta_of_monomial(m))`` once the ideal passes
        ``fixpoint_certificate`` (see ``coideal_certificate``).
        """
        return self._delta_quotient.monomial(m)

    def epsilon_label(self, m) -> int | Fraction:
        return self._epsilon.monomial(m)

    def antipode_label(self, m) -> SparseVec:
        """S of a monomial's class, memoized per monomial."""
        return self._antipode.monomial(m).vec

    def product_labels(self, a, b) -> SparseVec:
        return self.quotient.product_labels(a, b)

    def bracket_labels(self, a, b) -> SparseVec:
        if self.bracket_sign == 1:
            return self.quotient.bracket_labels(a, b)
        r = self._brackets.get((a, b))
        if r is None:
            r = self._brackets[(a, b)] = -self.quotient.bracket_labels(a, b)
        return r

    def one(self) -> SparseVec:
        return self.quotient.nf_label(UNIT_MONOMIAL)

    def render_label(self, m) -> str:
        return monomial_str(m, self.ambient.alphabet)


def induce_bialgebra(spec: CoalgebraSpec, truncation: int) -> PresentedPoissonBialgebra:
    """Free Poisson bialgebra on a coalgebra, truncated by degree."""
    report = validate_coalgebra(spec)
    if not report.ok:
        raise ValueError("invalid coalgebra: " + "; ".join(report.lines()))
    ambient = FreePoissonAlgebra(spec.basis, truncation)
    letters = letter_monomials(ambient)
    delta_table = {
        name: map_pairs(spec.delta_label(name), lambda l: unit_vec(letters[ambient.index(l)]))
        for name in spec.basis
    }
    epsilon_table = {name: spec.epsilon_label(name) for name in spec.basis}
    return PresentedPoissonBialgebra(quotient(ambient, ()), delta_table, epsilon_table, 1)


def check_bialgebra(B: PresentedPoissonBialgebra) -> Report:
    """Coassociativity, both counit laws, and bracket-comultiplicativity on every class."""
    report = check_coassociativity(B)
    report.merge(check_counit(B))
    report.merge(check_poisson_compat(B))
    return report


def op_cop(B: PresentedPoissonBialgebra) -> PresentedPoissonBialgebra:
    """Negated bracket, flipped comultiplication, the same S; involutive."""
    return PresentedPoissonBialgebra(
        B.quotient,
        {name: SparseVec({(b, a): c for (a, b), c in t.items()}) for name, t in B.delta_table.items()},
        B.epsilon_table,
        -B.bracket_sign,
        B.antipode_table,
    )


# ---------------------------------------------------------------------------
# universal factorization through the free bialgebra


class CoalgebraMapError(ValueError):
    def __init__(self, report: Report):
        super().__init__("not a coalgebra map: " + "; ".join(report.lines()))
        self.report = report


def factor_through_free(spec: CoalgebraSpec, images: dict, target, truncation: int) -> MorphismTable:
    """Extend a coalgebra map on C to the free Poisson bialgebra.

    The extension is the ``MorphismTable`` out of ``induce_bialgebra(spec,
    truncation)``; its ``bialgebra_report`` checks the coalgebra-map law on
    the letters, which are C's basis, and its lemma lifts the law to every
    class.  Raises CoalgebraMapError when the report fails.
    """
    table = MorphismTable(induce_bialgebra(spec, truncation), target, images)
    report = table.bialgebra_report()
    if not report.ok:
        raise CoalgebraMapError(report)
    return table


# ---------------------------------------------------------------------------
# colimits of Poisson bialgebras


# letter_maps, as in CoproductResult: per operand, source letter index -> coproduct letter index
BialgebraCoproduct = namedtuple("BialgebraCoproduct", "bialgebra injections letter_maps")


def bialgebra_coproduct(operands) -> BialgebraCoproduct:
    """Coproduct of presented Poisson bialgebras.

    The underlying Poisson coproduct is decorated with the comultiplication
    transported along the injections, stage by stage, and with the antipode
    when every operand carries one.  The result is a bialgebra by
    construction, so nothing is checked here; callers that want the axioms
    certified run ``generator_certificate`` or, exhaustively,
    ``check_bialgebra`` on it.
    """
    operands = list(operands)
    cp = poisson_coproduct(operands)
    delta_table = {}
    epsilon_table = {}
    antipode_table = None if any(B.antipode_table is None for B in operands) else {}
    for B, inj, lm in zip(operands, cp.injections, cp.letter_maps):
        for i, name in enumerate(B.ambient.alphabet):
            tagged = cp.quotient.ambient.alphabet[lm[i]]
            delta_table[tagged] = map_pairs(B.delta_table[name], inj.image)
            epsilon_table[tagged] = B.epsilon_table[name]
            if antipode_table is not None:
                antipode_table[tagged] = linear(inj.image, B.antipode_table[name])
    result = PresentedPoissonBialgebra(cp.quotient, delta_table, epsilon_table, 1, antipode_table)
    return BialgebraCoproduct(result, cp.injections, cp.letter_maps)


BialgebraCoequalizer = namedtuple("BialgebraCoequalizer", "bialgebra projection certificate")


def coideal_certificate(B: PresentedPoissonBialgebra, vectors) -> Report:
    """Delta of every given vector vanishes slotwise; epsilon kills it.

    Slotwise normal form is the projection onto (Q/I) (x) (Q/I), whose
    kernel is Q (x) I + I (x) Q on the truncated basis.  ``delta_label``
    computes there, which is sound only once ``fixpoint_certificate`` has
    passed, so that runs first.  The constructions pass their generators
    and ``verify`` every ideal row.  The generators suffice: I is spanned by
    in-budget Lyndon-variable products and letter brackets of them (that is
    how ``ideal_saturate`` builds it); after the fixpoint certificate,
    ker(pi (x) pi) = I (x) A + A (x) I is closed under the slotwise product
    and the tensor-square bracket with Delta of a letter or Lyndon variable
    (a product by a Lyndon variable reduces to letter operations by Leibniz,
    {x, y}.i = {x, y.i} - y.{x, i}); and ``delta_label`` is a Poisson map on
    in-budget pairs, as the slots of Delta of a degree-d monomial have
    degree at most d.  So Delta and epsilon vanish on every row once they
    vanish on every generator.
    """
    report, tensor = Report(), partial(render_tensor, B)
    for vec in vectors:
        elt = B.ambient.elt(vec)
        report.record("coideal-delta", linear(B.delta_label, vec), (elt,), render, tensor)
        report.record("coideal-counit", B.epsilon(elt), (elt,), render)
    return report


def generator_certificate(B: PresentedPoissonBialgebra) -> Report:
    """The laws of ``check_bialgebra`` on the letters and letter pairs.

    Coassociativity and both counit laws are checked on each letter x, with
    target the normal form of x, and bracket-comultiplicativity on each
    ordered pair of letters; a pair leaves the budget when N < 2, and then
    all pairs are one counted skip.  When the ideal has rank > 0,
    ``fixpoint_certificate`` and ``coideal_certificate`` on the ideal
    generators run first, and a failure of either ends the certificate.

    Lemma (within the truncation N): once these pass, the letter residuals
    vanish iff the class residuals of ``check_bialgebra`` do.

    - Delta and epsilon are ``LetterExtension``s, so Poisson maps out of Q;
      the fixpoint and coideal certificates make them vanish on I, so they
      are Poisson maps on Q/I.
    - (Delta (x) id) Delta and (id (x) Delta) Delta are Poisson maps, and so
      are (eps (x) id) Delta, (id (x) eps) Delta and id.  Two Poisson maps
      out of Q/I, which the letters generate, agree once they agree on the
      letters.
    - D(a, b) = Delta{a, b} - {Delta a, Delta b} vanishes once it vanishes on
      letter pairs, the base case.  Delta of a Lyndon word with standard
      factorization (u, v) is {Delta u, Delta v}, so by induction on length
      Delta agrees on Lie elements with the Lie morphism the letter images
      fix (the target is a Lie algebra by Jacobi), and D vanishes on pairs
      of Lie elements; by Leibniz D is a biderivation along Delta,
      D(a, bc) = D(a, b) Delta c + Delta b D(a, c), so it vanishes on all
      pairs.  Every term stays at degree <= deg a + deg b, in the budget.
    - A spec's Delta maps C into C (x) C, so Delta of a degree-d monomial
      has both slots of degree at most d: no tensor slot is ever truncated.
      A coproduct's tables are its operands' carried along the letter
      injections, so the same holds there.
    """
    q, report = B.quotient, Report()
    if q.ideal.rank:
        report.merge(fixpoint_certificate(q))
        if report.ok:
            report.merge(coideal_certificate(B, (g.vec for g in q.generators)))
        if not report.ok:
            return report
    letters = letter_monomials(B.ambient)
    for x in letters:
        record_coassociativity(report, B, x)
        record_counit(report, B, x, q.nf_label(x))
    if B.truncation < 2:
        report.skip("bracket-comultiplicativity", len(letters) ** 2, "letter pairs",
                    "their bracket has degree 2 > N")
        return report
    for a in letters:
        for b in letters:
            record_poisson_compat(report, B, a, b)
    return report


def bialgebra_coequalizer(f: MorphismTable, g: MorphismTable) -> BialgebraCoequalizer:
    """Coequalizer in Poisson bialgebras, with the coideal certificate.

    ``MorphismTable.bialgebra_report`` covers well-definedness, so the
    quotient is taken without checking it again.  The fixpoint certificate runs
    before the coideal certificate, whose soundness rests on it.
    """
    for name, table in (("first", f), ("second", g)):
        rep = table.bialgebra_report()
        if not rep.ok:
            raise ValueError(f"{name} morphism is not a bialgebra morphism: " + "; ".join(rep.lines()))
    tgt = f.target
    coeq, proj = difference_quotient(f, g)
    fixpoint_certificate(coeq).require("ideal fixpoint certificate")
    result = PresentedPoissonBialgebra(coeq, tgt.delta_table, tgt.epsilon_table, tgt.bracket_sign)
    certificate = coideal_certificate(result, (r.vec for r in coeq.generators)).require("coideal certificate")
    projection = MorphismTable(tgt, result, proj.images)
    return BialgebraCoequalizer(result, projection, certificate)
