"""Poisson-ideal saturation, truncated quotients, coproducts and coequalizers.

Every quotient object in sight is realized as a ``TruncatedQuotient``: a
truncated free Poisson ambient together with the reduced-echelon basis of
the degree-bounded part of a Poisson ideal, and the induced normal-form
projector.  Saturation closes the span of the generators under
multiplication by Lyndon-word variables and bracketing by letters, keeping
a result only when it is exact within the degree budget.  It runs a
worklist of pivots, lowest degree first, and expands each row with two
kernels on its labels, ``row_product`` and ``letter_bracket``, the latter
only for the letters read off the row's degree-n factors
(``exact_letters``), so a bracket that would be thrown away is never
formed.  The kernels read the ambient's step tables, so each step of a
monomial is formed once per ambient: ``fixpoint_certificate`` runs them on
the final rows and looks up the steps saturation formed.

A quotient never changes once built, so it keeps three tables that live
and die with it: ``_nf_cache`` (monomial -> normal form), and
``_products`` and ``_brackets`` ((a, b) -> normal form of the ambient's
product or bracket of two monomials: the label maps of the checker
protocol are the ambient's, followed by the normal form).

Coproducts are computed on presentations: the coproduct of P(V)/I and
P(W)/J is P(V (+) W) over the union of the lifted relation sets, with the
generator inclusions as the canonical injections.  A quotient answers
``quotient`` (itself) and ``bracket_sign`` (1) as a bialgebra does, whose
op-cop twist keeps its quotient and carries the negated bracket as
``bracket_sign`` -1 (``bialgebra.PresentedPoissonBialgebra``).
``MorphismTable`` and ``poisson_coproduct`` read both off the objects they
are given, and where the signs differ they extend the letter images over
the swapped bracket (``poisson.extend_letters``).  Coequalizers quotient
by the saturated difference ideal.

``MorphismTable`` is every map fixed by generator images: injections,
legs, projections and ``bialgebra.factor_through_free``.  The paper needs
only these colimits (for cocompleteness and the free Hopf construction),
so no limits are built.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import partial
from itertools import accumulate

from .linalg import EchelonBasis, SparseVec, SubspaceBasis, linear, relabel, unit_vec
from .lyndon import LyndonWord
from .poisson import (
    UNIT_MONOMIAL,
    FreePoissonAlgebra,
    PoissElt,
    PoissMonomial,
    extend_letters,
    letter_monomials,
    monomial_str,
    poiss_bracket,
    poiss_product,
    render,
)
from .verify import Report, Violation, check_coalgebra_map, render_vec


def quotient_key(m: PoissMonomial):
    """Pivot order for ideal bases: highest degree first, then lexicographic.

    With this order every echelon row's pivot is its top monomial, so the
    degree-t slice of the stored span is exactly the rows of pivot degree
    <= t.  Closing those rows under the in-budget operations therefore
    closes the whole subspace, and quotient basis classes (the non-pivot
    monomials) keep the lowest-degree representatives.
    """
    return (-m.degree, m.sort_key[1])


def exact_letters(vec: SparseVec, n: int, letters) -> list:
    """The letters whose ``poiss_bracket`` with ``vec`` is exact in budget n, in one read.

    A degree-n monomial leaves the budget with a letter exactly when the
    letter's Lie bracket with one of its factors is nonzero (``poiss_bracket``'s
    ``lossy`` rule): when a factor is not the letter (``lyndon.bracket_words``).
    """
    top = {f for m in vec if m.degree == n for f in m.factors}
    return [x for x in letters if top <= {x}] if len(top) < 2 else []


def row_product(ambient: FreePoissonAlgebra, u: LyndonWord, vec: SparseVec) -> SparseVec:
    """``u * vec`` in budget: multiplying by u is injective on monomials, so it relabels."""
    return relabel(ambient.variable_products[u].__getitem__, vec)


def letter_bracket(ambient: FreePoissonAlgebra, x: LyndonWord, vec: SparseVec) -> SparseVec:
    """``{x, vec}`` for x in ``exact_letters``: the ambient's ``letter_brackets`` terms of x, summed."""
    terms = ambient.letter_brackets[x]
    return SparseVec((w, c * b) for m, c in vec.items() for w, b in terms[m].items())


def ideal_saturate(ambient: FreePoissonAlgebra, generators) -> SubspaceBasis:
    """Degree-bounded part of the Poisson ideal generated by the inputs.

    Least fixpoint of closing under ``w -> u*w`` for Lyndon-word variables u
    and ``w -> {x, w}`` for letters x, admitting a result only when no term
    was truncated away (exactness within the budget).  The worklist keeps
    a FIFO of pivots per degree, each pivot in it at most once, and takes
    the lowest degree first, as Groebner-basis algorithms do.  The pivot of
    every row that ``EchelonBasis.insert`` adds is queued, and taking it off
    inserts the in-budget products and exact letter brackets of its row as
    the row is then.  The pivot is a row's top monomial (``quotient_key``),
    so the row keeps its top degree t while later inserts rewrite it.

    Expanding only the current row loses no product.  The current row
    differs from an earlier version by rows inserted later, of top degree
    at most t, and each of those is queued; products are linear, and every
    variable that fits t fits them.  Letter brackets are linear too, but
    whether one is exact depends on the row's degree-n part, and only an
    insert of top degree n can change that part.  Such an insert queues
    again every row it back-substitutes into.  So when the queue runs dry,
    every row's products and exact letter brackets lie in the span, which is
    what ``fixpoint_certificate`` checks.  No step depends on the queue's
    order and the reduced echelon basis is canonical, so the order changes
    only the work.  A combination of rows whose lossy parts cancel is not
    formed; ``tests/oracles.brute_force_saturation`` closes current rows
    only in the same way.  The steps are formed on the row's labels:
    ``row_product(ambient, u, row)`` is ``poiss_product`` by u in budget, and
    ``letter_bracket(ambient, x, row)`` is ``poiss_bracket`` with each x in
    ``exact_letters(row)``.

    Products by letters alone would span the same ideal, but the
    Lyndon-variable products stay: without them rows arrive in an order
    that back-substitutes 3.5 times as often, and trig at M=2, N=6
    saturates about seven times slower.
    """
    n = ambient.truncation
    acc = EchelonBasis(key=quotient_key)
    worklist = [deque() for _ in range(n + 1)]  # pivots by degree
    queued = set()  # membership only: pivots hash by identity

    def queue(pivot):
        if pivot not in queued:
            queued.add(pivot)
            worklist[pivot.degree].append(pivot)

    def insert(vec):
        if acc.insert(vec) is not None:
            queue(acc.pivot)
            if acc.pivot.degree == n:
                for p in acc.rewritten:
                    queue(p)

    for g in generators:
        if g.algebra != ambient:
            raise ValueError("generators must live in the ambient algebra")
        if g.lossy:
            raise ValueError("generators must be exact within the truncation")
        if g.top_degree() > n:
            raise ValueError("generator degree exceeds the budget")
        insert(g.vec)

    variables = [w for d in range(1, n) for w in ambient.lyndon_basis(d)]
    letters = ambient.lyndon_basis(1)
    while queued:
        pivot = next(q for q in worklist if q).popleft()
        queued.remove(pivot)
        row = acc.row(pivot)
        for u in variables:
            if u.degree + pivot.degree > n:
                break  # variables come in increasing degree
            insert(row_product(ambient, u, row))
        for x in exact_letters(row, n, letters):
            insert(letter_bracket(ambient, x, row))
    return acc.freeze()


class TruncatedQuotient:
    """Truncated ambient plus saturated ideal, with cached normal forms."""

    bracket_sign = 1  # untwisted, as a bialgebra's quotient

    def __init__(self, ambient: FreePoissonAlgebra, ideal: SubspaceBasis, generators=()):
        self.ambient = ambient
        self.ideal = ideal
        self.generators = tuple(generators)
        self.degenerate = ideal.contains(unit_vec(UNIT_MONOMIAL))
        self._nf_cache: dict = {}
        self._products: dict = {}
        self._brackets: dict = {}
        self._pivots = frozenset(ideal.pivots)

    def __repr__(self) -> str:
        return (
            f"TruncatedQuotient({self.ambient!r}, ideal rank {self.ideal.rank}"
            f"{', degenerate' if self.degenerate else ''})"
        )

    def nf_label(self, m: PoissMonomial) -> SparseVec:
        """Normal form of one monomial, cached per quotient."""
        r = self._nf_cache.get(m)
        if r is None:
            r = self._nf_cache[m] = self.ideal.reduce(unit_vec(m))
        return r

    def nf_vec(self, vec: SparseVec) -> SparseVec:
        """Normal form of a vector; over an ideal of rank 0, the vector itself."""
        return linear(self.nf_label, vec) if self.ideal.rows else vec

    def normal_form(self, elt: PoissElt) -> PoissElt:
        if elt.algebra != self.ambient:
            raise ValueError("element not in the ambient algebra")
        return self.ambient.elt(self.nf_vec(elt.vec), elt.lossy)

    @property
    def quotient(self) -> "TruncatedQuotient":
        return self

    def contains(self, elt: PoissElt) -> bool:
        return not self.nf_vec(elt.vec)

    def product(self, a: PoissElt, b: PoissElt) -> PoissElt:
        return self.normal_form(poiss_product(a, b))

    def bracket(self, a: PoissElt, b: PoissElt) -> PoissElt:
        return self.normal_form(poiss_bracket(a, b))

    def one(self) -> PoissElt:
        return self.normal_form(self.ambient.one())

    def basis_monomials(self):
        """Classes of non-pivot monomials form a basis of the quotient."""
        return [m for m in self.ambient.monomials_upto() if m not in self._pivots]

    def graded_dims(self):
        """Count of basis classes whose representative has exact degree d."""
        n = self.ambient.truncation
        dims = [0] * (n + 1)
        for m in self.basis_monomials():
            dims[m.degree] += 1
        return dims

    def filtration_dims(self):
        """Count of basis classes whose representative has degree at most d."""
        return list(accumulate(self.graded_dims()))

    # -- checker protocol (Poisson-algebra laws on the quotient) --

    @property
    def truncation(self) -> int:
        return self.ambient.truncation

    def labels_upto(self):
        return [m for m in self.basis_monomials() if m.degree >= 1]

    def label_degree(self, m) -> int:
        return m.degree

    def product_labels(self, a, b) -> SparseVec:
        r = self._products.get((a, b))
        if r is None:
            r = self._products[(a, b)] = self.nf_vec(self.ambient.product_labels(a, b))
        return r

    def bracket_labels(self, a, b) -> SparseVec:
        r = self._brackets.get((a, b))
        if r is None:
            r = self._brackets[(a, b)] = self.nf_vec(self.ambient.bracket_labels(a, b))
        return r

    def render_label(self, m) -> str:
        return monomial_str(m, self.ambient.alphabet)


def quotient(ambient: FreePoissonAlgebra, generators) -> TruncatedQuotient:
    """Quotient by the saturated ideal; a degenerate result is flagged, not fatal."""
    ideal = ideal_saturate(ambient, generators)
    return TruncatedQuotient(ambient, ideal, generators)


def free_quotient(ambient: FreePoissonAlgebra) -> TruncatedQuotient:
    return quotient(ambient, ())


def fixpoint_certificate(q: TruncatedQuotient) -> Report:
    """The ideal is closed under letter products and letter brackets in budget.

    The steps are formed by saturation's kernels, mostly read off the
    ambient's step tables, and each is reduced against the frozen ideal; an
    element is built only to render a violation.
    """
    report = Report()
    n = q.ambient.truncation
    letters = q.ambient.lyndon_basis(1)
    letter_vecs = [unit_vec(PoissMonomial((w,))) for w in letters]

    def show(vec):
        return render(q.ambient.elt(vec))

    for row in q.ideal.rows:
        # a letter times a row of top degree n leaves the budget
        in_budget = max(m.degree for m in row) < n
        exact = exact_letters(row, n, letters)
        for w, x in zip(letters, letter_vecs):
            if in_budget:
                prod = row_product(q.ambient, w, row)
                report.record("ideal-product-closure", not q.ideal.contains(prod), (x, row), show,
                              lambda _: show(prod))
            if w in exact:
                br = letter_bracket(q.ambient, w, row)
                report.record("ideal-bracket-closure", not q.ideal.contains(br), (x, row), show,
                              lambda _: show(br))
    return report


class MorphismTable:
    """The Poisson map fixed by generator images: the one certified morphism.

    The source is a quotient or a bialgebra; the target is one of those or a
    closed-form ``targets.LabelTarget`` (``quotient`` None), whose vector
    images are normal forms and are used as given.  Into a quotient the
    letter images are normalized once and extended over its product and
    bracket (``poisson.extend_letters``), so ``apply`` needs no second
    projection.  When exactly one of source and target carries the negated
    bracket (``source.bracket_sign * target.bracket_sign`` is -1), the map
    extends over the swapped bracket.  ``image`` maps monomials into any
    target, ``apply`` elements into a quotient.  The two certificates,
    ``well_defined_report`` and ``bialgebra_report``, refuse a letter image
    with terms above the truncation (``morphism-exact`` at the generator):
    its in-budget part is not the map that was given.
    """

    def __init__(self, source, target, images: dict):
        self.source = source
        self.target = target
        self.images = dict(images)
        self.source_quotient = source.quotient
        self.target_quotient = tq = target.quotient
        self._extension = extend_letters(self._letter_image, target if tq is None else tq,
                                         source.bracket_sign * target.bracket_sign)

    def _letter_image(self, letter: int):
        name = self.source_quotient.ambient.alphabet[letter]
        try:
            out = self.images[name]
        except KeyError:
            raise ValueError(f"no image for generator {name!r}") from None
        return out if self.target_quotient is None else self.target_quotient.normal_form(out)

    def image(self, m: PoissMonomial) -> SparseVec:
        """The normal-form vector of a source monomial's image: the map as a label map."""
        out = self._extension.monomial(m)
        return out if self.target_quotient is None else out.vec

    def apply(self, elt: PoissElt) -> PoissElt:
        """The image of an element in a quotient target, tracking loss."""
        if elt.algebra != self.source_quotient.ambient:
            raise ValueError("element not in the morphism source")
        return self._extension.apply(elt, self.target_quotient.ambient)

    def letter_report(self) -> Report:
        """Every generator needs an image, exact within a quotient target's truncation."""
        report = Report()
        for name in self.source_quotient.ambient.alphabet:
            if name not in self.images:
                report.violations.append(Violation("morphism-total", (name,), "missing generator image"))
            elif self.target_quotient is not None and self.images[name].lossy:
                report.violations.append(Violation("morphism-exact", (name,), "image above the truncation"))
        return report

    def well_defined_report(self) -> Report:
        """Every defining relation of the source must map into the target ideal."""
        report = self.letter_report()
        if not report.ok:
            return report
        for r in self.source_quotient.generators:
            if self.target_quotient is None:
                report.record("morphism-relations", linear(self.image, r.vec), (r,), render,
                              partial(render_vec, self.target))
            elif (image := self.apply(r)).lossy:
                report.record("morphism-exact", True, (r,), render, lambda _: "image truncated")
            else:
                report.record("morphism-relations", not image.is_zero(), (r,), render,
                              lambda _: render(image))
        return report

    def bialgebra_report(self) -> Report:
        """``well_defined_report``, then the coalgebra-map law on the source letters.

        Lemma (within the truncation): once the relations map to zero, f is a
        Poisson map out of Q/I, the source quotient, so Delta_T f and
        (f (x) f) Delta are Poisson maps out of Q/I, as are eps_T f and eps;
        the letters generate Q/I, so each pair agrees on every class once it
        agrees on the letters.  A bialgebra map between Hopf algebras
        preserves the antipode (Sweedler, *Hopf Algebras*, 1969, ch. IV), so
        no antipode law is checked.
        """
        report = self.well_defined_report()
        if not self.letter_report().ok:
            return report  # the coalgebra-map law needs every generator image, exactly
        letters = letter_monomials(self.source_quotient.ambient)
        return report.merge(check_coalgebra_map(self.source, letters, self.image, self.target, "morphism"))


# letter_maps, per operand: source letter index -> coproduct letter index
CoproductResult = namedtuple("CoproductResult", "quotient injections letter_maps")


def tagged_alphabet(operands):
    """Names ``f"{n}_{l}"`` for generator n of operand l, and the letter maps.

    No two names collide: each splits at its last underscore into l and a
    generator name, distinct within operand l.
    """
    names = []
    maps = []
    for l, op in enumerate(operands):
        maps.append({i: len(names) + i for i in range(op.ambient.size)})
        names.extend(f"{n}_{l}" for n in op.ambient.alphabet)
    return tuple(names), maps


def poisson_coproduct(operands) -> CoproductResult:
    """Coproduct of presented quotients or bialgebras: union of lifted relation sets.

    Each operand's relations are lifted by the extension of its letter map,
    over the swapped bracket for an operand carrying the negated bracket;
    its injection reads the same ``bracket_sign``.
    """
    operands = list(operands)
    if not operands:
        raise ValueError("need at least one operand")
    n = operands[0].ambient.truncation
    if any(op.ambient.truncation != n for op in operands):
        raise ValueError("truncation mismatch")
    names, maps = tagged_alphabet(operands)
    ambient = FreePoissonAlgebra(names, n)
    relations = []
    for op, lm in zip(operands, maps):
        lift = extend_letters(lambda i: ambient.gen(names[lm[i]]), ambient, op.bracket_sign)
        relations.extend(lift.apply(g, ambient) for g in op.quotient.generators)
    result = quotient(ambient, relations)
    injections = []
    for op, lm in zip(operands, maps):
        images = {
            name: result.normal_form(ambient.gen(names[lm[i]]))
            for i, name in enumerate(op.ambient.alphabet)
        }
        injections.append(MorphismTable(op, result, images))
    return CoproductResult(result, injections, maps)


def factorize_coproduct(coproduct: CoproductResult, legs) -> MorphismTable:
    """The unique map out of the coproduct agreeing with the given legs."""
    legs = list(legs)
    if len(legs) != len(coproduct.injections):
        raise ValueError("one leg per operand required")
    target = legs[0].target
    if any(leg.target is not target for leg in legs[1:]):
        raise ValueError("legs must share a target")
    images = {}
    for leg, inj, lm in zip(legs, coproduct.injections, coproduct.letter_maps):
        src_names = inj.source.ambient.alphabet
        for i, name in enumerate(src_names):
            tagged = coproduct.quotient.ambient.alphabet[lm[i]]
            images[tagged] = leg.images[name]
    return MorphismTable(coproduct.quotient, target, images)


def poisson_coequalizer(f: MorphismTable, g: MorphismTable):
    """Quotient of the common target by the saturated difference ideal."""
    for name, table in (("first", f), ("second", g)):
        rep = table.well_defined_report()
        if not rep.ok:
            raise ValueError(f"{name} morphism ill-defined: " + "; ".join(rep.lines()))
    return difference_quotient(f, g)


def difference_quotient(f: MorphismTable, g: MorphismTable):
    """``poisson_coequalizer`` for maps whose well-definedness is already checked."""
    source = f.source_quotient.ambient
    if source != g.source_quotient.ambient:
        raise ValueError("coequalizer needs a common source")
    target = f.target_quotient
    if target.ambient != g.target_quotient.ambient:
        raise ValueError("coequalizer needs a common target")
    diffs = []
    for name in source.alphabet:
        gen = source.gen(name)
        diffs.append(f.apply(gen) - g.apply(gen))
    gens = list(target.generators) + [d for d in diffs if not d.is_zero()]
    coeq = quotient(target.ambient, gens)
    projection = MorphismTable(
        target,
        coeq,
        {n: coeq.normal_form(target.ambient.gen(n)) for n in target.ambient.alphabet},
    )
    return coeq, projection
