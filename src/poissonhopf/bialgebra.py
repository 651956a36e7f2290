"""Poisson bialgebras presented on a truncated free Poisson ambient.

The free Poisson bialgebra on a coalgebra C is the free Poisson algebra on
C's basis, with the comultiplication given on generators by the structure
constants and extended multiplicatively; on a Lyndon-word factor it is
forced by compatibility with the bracket, via the tensor-square bracket

    [p (x) q, r (x) s] = pr (x) [q, s] + [p, r] (x) qs.

A comultiplication image of a degree-d element lives in bidegree (d, d),
so per-side truncation at the ambient cutoff is exact.  Quotient
bialgebras reuse the same generator tables and reduce slotwise; that
projection is exactly the quotient by Q (x) I + I (x) Q, so the coideal
certificate is "slotwise normal form vanishes on every ideal row".

The op-cop twist keeps the underlying quotient and flips the stored pair
tables; the negated bracket is carried as a sign so the one ambient serves
both twists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coalgebra import CoalgebraSpec, validate_coalgebra
from .colimits import (
    MorphismTable,
    TruncatedQuotient,
    free_quotient,
    poisson_coequalizer,
    poisson_coproduct,
)
from .linalg import SparseVec, lincomb, map_pairs, unit_vec
from .lyndon import LyndonWord, word_image
from .poisson import (
    UNIT_MONOMIAL,
    FreePoissonAlgebra,
    PoissElt,
    PoissMonomial,
    monomial_str,
    render,
)
from .verify import (
    Report,
    Violation,
    check_coassociativity,
    check_counit,
    check_poisson_compat,
    render_vec,
    tensor_bracket,
)


def flip_pairs(t: SparseVec) -> SparseVec:
    return SparseVec({(b, a): c for (a, b), c in t.items()})


class PresentedPoissonBialgebra:
    """Quotient of a truncated free Poisson algebra with induced Delta, epsilon.

    ``bracket_sign`` is -1 on op-cop twisted objects; the stored pair tables
    are already flipped there, so all consumers just read the fields.
    """

    def __init__(self, quotient: TruncatedQuotient, delta_table, epsilon_table,
                 bracket_sign: int = 1, coalgebra=None):
        self.quotient = quotient
        self.delta_table = dict(delta_table)
        self.epsilon_table = {k: Fraction(v) for k, v in epsilon_table.items()}
        self.bracket_sign = bracket_sign
        self.coalgebra = coalgebra
        self._delta_word: dict = {}
        self._delta_mono: dict = {}

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

    def product(self, a: PoissElt, b: PoissElt) -> PoissElt:
        return self.quotient.product(a, b)

    def bracket(self, a: PoissElt, b: PoissElt) -> PoissElt:
        out = self.quotient.bracket(a, b)
        return out if self.bracket_sign == 1 else -out

    # -- comultiplication and counit on ambient representatives --

    def _delta_letter(self, letter: int) -> SparseVec:
        return self.delta_table[self.ambient.alphabet[letter]]

    def delta_of_word(self, w: LyndonWord) -> SparseVec:
        # independent of the twist: the sign of the element expression
        # s(w) = sign*{s(u), s(v)} cancels the twisted tensor bracket
        return word_image(w, self._delta_letter, self.pair_bracket_std, self._delta_word)

    def delta_of_monomial(self, m: PoissMonomial) -> SparseVec:
        cached = self._delta_mono.get(m)
        if cached is not None:
            return cached
        out = unit_vec((UNIT_MONOMIAL, UNIT_MONOMIAL))
        for f in m.factors:
            out = self.pair_mul(out, self.delta_of_word(f))
        self._delta_mono[m] = out
        return out

    def delta(self, elt: PoissElt) -> SparseVec:
        return lincomb((c, self.delta_of_monomial(m)) for m, c in elt.vec.items())

    def epsilon_of_monomial(self, m: PoissMonomial) -> Fraction:
        total = Fraction(1)
        for f in m.factors:
            if f.degree > 1:
                return Fraction(0)  # the counit kills every bracket
            total *= self.epsilon_table[self.ambient.alphabet[f.letters[0]]]
            if not total:
                return total
        return total

    def epsilon(self, elt: PoissElt) -> Fraction:
        return sum(
            (c * self.epsilon_of_monomial(m) for m, c in elt.vec.items()), Fraction(0)
        )

    # -- ambient tensor-square arithmetic, truncated per side --

    def pair_mul(self, s: SparseVec, t: SparseVec) -> SparseVec:
        n = self.truncation
        return SparseVec(
            ((a * p, b * q), c1 * c2)
            for (a, b), c1 in s.items()
            for (p, q), c2 in t.items()
            if a.degree + p.degree <= n and b.degree + q.degree <= n
        )

    def pair_bracket_std(self, s: SparseVec, t: SparseVec) -> SparseVec:
        """Tensor-square bracket with the standard ambient bracket."""
        return tensor_bracket(self.ambient, s, t)

    # -- quotient reductions: slotwise normal form --

    def reduce_vec(self, v: SparseVec) -> SparseVec:
        return self.quotient.nf_vec(v)

    def reduce_pair(self, t: SparseVec) -> SparseVec:
        if self.quotient.ideal.rank == 0:
            return t
        return map_pairs(t, self.quotient.nf_label)

    def reduce_triple(self, t: SparseVec) -> SparseVec:
        if self.quotient.ideal.rank == 0:
            return t
        nf = self.quotient.nf_label
        return SparseVec(
            ((la, lb, lc), coeff * ca * cb * cc)
            for (a, b, c), coeff in t.items()
            for la, ca in nf(a).items()
            for lb, cb in nf(b).items()
            for lc, cc in nf(c).items()
        )

    # -- protocol for the axiom checkers --

    def labels_upto(self, max_degree=None):
        return self.quotient.basis_monomials(max_degree)

    def label_degree(self, m) -> int:
        return m.degree

    def delta_label(self, m) -> SparseVec:
        return self.reduce_pair(self.delta_of_monomial(m))

    def epsilon_label(self, m) -> Fraction:
        return self.epsilon_of_monomial(m)

    def product_labels(self, a, b) -> SparseVec:
        return self.product(self.ambient.monomial_elt(a), self.ambient.monomial_elt(b)).vec

    def bracket_labels(self, a, b) -> SparseVec:
        return self.bracket(self.ambient.monomial_elt(a), self.ambient.monomial_elt(b)).vec

    def render_label(self, m) -> str:
        return monomial_str(m, self.ambient.alphabet)


def induce_bialgebra(spec: CoalgebraSpec, truncation: int) -> PresentedPoissonBialgebra:
    """Free Poisson bialgebra on a coalgebra, truncated by degree."""
    report = validate_coalgebra(spec)
    if not report.ok:
        raise ValueError("invalid coalgebra: " + "; ".join(report.lines()))
    ambient = FreePoissonAlgebra(spec.basis, truncation)
    idx = {name: i for i, name in enumerate(spec.basis)}

    def gen_mono(name):
        return PoissMonomial((LyndonWord((idx[name],)),))

    delta_table = {}
    for name in spec.basis:
        pairs = SparseVec(
            {(gen_mono(l), gen_mono(r)): c for (l, r), c in spec.delta_vec(name).items()}
        )
        delta_table[name] = pairs
    epsilon_table = {name: spec.epsilon_of(name) for name in spec.basis}
    return PresentedPoissonBialgebra(
        free_quotient(ambient), delta_table, epsilon_table, 1, spec
    )


def check_bialgebra(B: PresentedPoissonBialgebra, max_degree=None) -> Report:
    """Coassociativity, both counit laws, and bracket-comultiplicativity."""
    report = check_coassociativity(B, max_degree)
    report.merge(check_counit(B, max_degree))
    report.merge(check_poisson_compat(B, max_degree))
    return report


def op_cop(B: PresentedPoissonBialgebra) -> PresentedPoissonBialgebra:
    """Negated bracket, flipped comultiplication; involutive."""
    return PresentedPoissonBialgebra(
        B.quotient,
        {name: flip_pairs(t) for name, t in B.delta_table.items()},
        B.epsilon_table,
        -B.bracket_sign,
        B.coalgebra,
    )


# ---------------------------------------------------------------------------
# universal factorization through the free bialgebra


class CoalgebraMapError(ValueError):
    def __init__(self, report: Report):
        super().__init__("not a coalgebra map: " + "; ".join(report.lines()))
        self.report = report


class FreeFactorization:
    """Poisson algebra map out of the free bialgebra, fixed by generator images.

    Images live in one of the closed-form target Hopf families.  The map
    sends a Lyndon factor through its standard factorization using the
    target bracket, multiplies factor images, and extends linearly.
    """

    def __init__(self, spec: CoalgebraSpec, bialgebra, target, images: dict):
        self.spec = spec
        self.bialgebra = bialgebra
        self.target = target
        self.images = dict(images)
        self._word_cache: dict = {}

    def _letter_image(self, letter: int) -> SparseVec:
        return self.images[self.bialgebra.ambient.alphabet[letter]]

    def apply_word(self, w: LyndonWord) -> SparseVec:
        return word_image(w, self._letter_image, self.target.bracket, self._word_cache)

    def apply_monomial(self, m: PoissMonomial) -> SparseVec:
        acc = self.target.one()
        for f in m.factors:
            acc = self.target.mul(acc, self.apply_word(f))
        return acc

    def apply(self, elt: PoissElt) -> SparseVec:
        return lincomb((c, self.apply_monomial(m)) for m, c in elt.vec.items())

    def coalgebra_map_report(self, max_degree=None) -> Report:
        """Delta_T(image) must equal the image of Delta on every basis monomial."""
        report = Report()
        for m in self.bialgebra.labels_upto(max_degree):
            lhs = self.target.delta(self.apply_monomial(m))
            residual = lhs - map_pairs(self.bialgebra.delta_of_monomial(m), self.apply_monomial)
            report.checked += 1
            if residual:
                report.violations.append(
                    Violation(
                        "factorization-coalgebra-map",
                        (self.bialgebra.render_label(m),),
                        _render_target_vec(self.target, residual),
                    )
                )
            eps_l = self.target.epsilon(self.apply_monomial(m))
            eps_r = self.bialgebra.epsilon_of_monomial(m)
            report.checked += 1
            if eps_l != eps_r:
                report.violations.append(
                    Violation(
                        "factorization-counit",
                        (self.bialgebra.render_label(m),),
                        str(eps_l - eps_r),
                    )
                )
        return report


def _render_target_vec(target, vec: SparseVec) -> str:
    if not vec:
        return "0"
    parts = []
    for label, c in sorted(vec.items(), key=lambda kv: repr(kv[0])):
        if isinstance(label, tuple) and label and isinstance(label[0], tuple):
            body = " (x) ".join(target.render_label(l) for l in label)
        else:
            body = target.render_label(label)
        parts.append(f"{c}*{body}")
    return " + ".join(parts)


def factor_through_free(spec: CoalgebraSpec, images: dict, target, truncation: int) -> FreeFactorization:
    """Extend a verified coalgebra map on C to the free Poisson bialgebra.

    Raises CoalgebraMapError when the generator images fail the coalgebra
    map laws; otherwise returns the extension, whose postconditions are
    re-checked by ``coalgebra_map_report``.
    """
    pre = Report()
    for name in spec.basis:
        if name not in images:
            pre.violations.append(Violation("coalgebra-map-total", (name,), "missing image"))
    if not pre.ok:
        raise CoalgebraMapError(pre)
    for name in spec.basis:
        img = images[name]
        lhs = target.delta(img)
        rhs = map_pairs(spec.delta_vec(name), images.__getitem__)
        pre.checked += 1
        if lhs - rhs:
            pre.violations.append(
                Violation("coalgebra-map-delta", (name,), _render_target_vec(target, lhs - rhs))
            )
        pre.checked += 1
        if target.epsilon(img) != spec.epsilon_of(name):
            pre.violations.append(
                Violation(
                    "coalgebra-map-counit",
                    (name,),
                    str(target.epsilon(img) - spec.epsilon_of(name)),
                )
            )
    if not pre.ok:
        raise CoalgebraMapError(pre)
    bialgebra = induce_bialgebra(spec, truncation)
    return FreeFactorization(spec, bialgebra, target, images)


# ---------------------------------------------------------------------------
# colimits of Poisson bialgebras


@dataclass
class BialgebraCoproduct:
    bialgebra: PresentedPoissonBialgebra
    injections: list
    report: Report


def bialgebra_coproduct(operands, check: bool = True) -> BialgebraCoproduct:
    """Coproduct of presented Poisson bialgebras.

    The underlying Poisson coproduct is decorated with the comultiplication
    transported along the injections, stage by stage; the axioms are then
    re-verified on the result.
    """
    operands = list(operands)
    signs = [B.bracket_sign for B in operands]
    cp = poisson_coproduct([B.quotient for B in operands], signs=signs)
    delta_table = {}
    epsilon_table = {}
    for B, inj, lm in zip(operands, cp.injections, cp.letter_maps):
        amb = B.ambient
        for i, name in enumerate(amb.alphabet):
            tagged = cp.quotient.ambient.alphabet[lm[i]]
            delta_table[tagged] = map_pairs(
                B.delta_table[name], lambda m: inj.apply(amb.monomial_elt(m)).vec
            )
            epsilon_table[tagged] = B.epsilon_table[name]
    result = PresentedPoissonBialgebra(cp.quotient, delta_table, epsilon_table, 1, None)
    report = check_bialgebra(result) if check else Report()
    if not report.ok:
        raise RuntimeError("coproduct bialgebra axioms failed: " + "; ".join(report.lines()))
    return BialgebraCoproduct(result, cp.injections, report)


def bialgebra_morphism_report(table: MorphismTable) -> Report:
    """Poisson well-definedness plus the coalgebra-map laws on generators."""
    src, tgt = table.source, table.target
    report = table.well_defined_report()

    def image_vec(m):
        return table.apply(src.ambient.monomial_elt(m)).vec

    for name in src.ambient.alphabet:
        gen_m = PoissMonomial((LyndonWord((src.ambient.index(name),)),))
        image = table.apply(src.ambient.gen(name))
        lhs = tgt.delta(image)
        rhs = map_pairs(src.delta_table[name], image_vec)
        residual = tgt.reduce_pair(lhs - rhs)
        report.checked += 1
        if residual:
            report.violations.append(
                Violation("morphism-delta", (name,), render_vec(tgt, residual))
            )
        report.checked += 1
        if tgt.epsilon(image) != src.epsilon_of_monomial(gen_m):
            report.violations.append(
                Violation("morphism-counit", (name,), str(tgt.epsilon(image)))
            )
    return report


@dataclass
class BialgebraCoequalizer:
    bialgebra: PresentedPoissonBialgebra
    projection: MorphismTable
    certificate: Report


def coideal_certificate(B: PresentedPoissonBialgebra) -> Report:
    """Delta of every ideal row vanishes slotwise; epsilon kills every row.

    This is the checkable form of the ideal being a coideal: slotwise
    normal form is the projection onto (Q/I) (x) (Q/I), whose kernel is
    exactly Q (x) I + I (x) Q on the truncated basis.
    """
    report = Report()
    amb = B.ambient
    for row in B.quotient.ideal.rows:
        elt = amb.elt(row)
        residual = B.reduce_pair(B.delta(elt))
        report.checked += 1
        if residual:
            report.violations.append(
                Violation("coideal-delta", (render(elt),), render_vec(B, residual))
            )
        report.checked += 1
        if B.epsilon(elt):
            report.violations.append(
                Violation("coideal-counit", (render(elt),), str(B.epsilon(elt)))
            )
    return report


def bialgebra_coequalizer(f: MorphismTable, g: MorphismTable) -> BialgebraCoequalizer:
    """Coequalizer in Poisson bialgebras, with the coideal certificate."""
    for name, table in (("first", f), ("second", g)):
        rep = bialgebra_morphism_report(table)
        if not rep.ok:
            raise ValueError(f"{name} morphism is not a bialgebra morphism: " + "; ".join(rep.lines()))
    tgt = f.target
    fq = MorphismTable(f.source.quotient, tgt.quotient, f.images, f.source_bracket_sign)
    gq = MorphismTable(g.source.quotient, tgt.quotient, g.images, g.source_bracket_sign)
    coeq, proj = poisson_coequalizer(fq, gq)
    result = PresentedPoissonBialgebra(
        coeq, tgt.delta_table, tgt.epsilon_table, tgt.bracket_sign, None
    )
    certificate = coideal_certificate(result)
    if not certificate.ok:
        raise RuntimeError(
            "coideal certificate failed (implementation bug): "
            + "; ".join(certificate.lines())
        )
    projection = MorphismTable(tgt, result, proj.images)
    return BialgebraCoequalizer(result, projection, certificate)
