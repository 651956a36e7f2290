"""Exact axiom checkers over structure tables, with reproducible reports.

Checkers are written against a small duck-typed protocol so the same code
verifies finite-dimensional coalgebras, free and quotient Poisson
bialgebras, and truncated Hopf quotients.  A structure exposes its basis as
*labels* and each operation as a label map, with sparse vectors over labels
as values; ``linalg.linear``, ``functional`` and ``bilinear`` extend them
to vectors.  A check reads only what it needs: the coalgebra laws
(coassociativity, the counit laws, the coalgebra-map law) read only the
first four members, all a ``CoalgebraSpec`` has, and the other laws add
the budget and the maps they test:

    labels_upto()             basis labels in canonical order, up to truncation
    delta_label(l)            SparseVec over (label, label) pairs
    epsilon_label(l)          exact scalar (int when integral, else Fraction)
    render_label(l)           printable form
    truncation                degree budget of the other laws
    label_degree(l)           grading used for that budget
    product_labels(a, b)      SparseVec over labels
    bracket_labels(a, b)      SparseVec over labels
    antipode_label(l)         SparseVec over labels, on any bialgebra that carries a table
    one()                     the unit's normal form, a SparseVec over labels

The label maps are the one place that projects to a quotient: every vector
they return is a normal form, a combination of basis labels (pairs of basis
labels for ``delta_label``).  Linear combinations of normal forms, and their
tensors slot by slot, are again normal forms, so the checkers never project
a residual: it is zero in the quotient exactly when it is the zero vector.

``check_coalgebra_map`` is the one check of the coalgebra-map laws: it
reads only ``delta_label``, ``epsilon_label`` and ``render_label`` of a
source and a target, and the map as label images.  In the same way
``convolution_residual`` is the one formula of the antipode axiom
m(S (x) id) Delta = u eps = m(id (x) S) Delta at one label, with the label
and S as arguments: ``check_antipode_convolution`` checks it on a Hopf
quotient (``check_antipode``, the ``antipode`` law) and on a coproduct of
Hopf quotients alike, and the free Hopf construction takes its residuals at
the staged letters, with the stage shift for S, as its relations.

Every check is exhaustive at the truncation.  The residuals of
coassociativity, the counit laws and bracket-comultiplicativity at one
label have one implementation each, ``record_*``, which the class loops
here and ``bialgebra.generator_certificate`` on the letters both call.
Every checker and certificate writes its report through ``Report.record``,
which counts one formed residual in ``checked`` and, only when it is
nonzero, renders its witnesses and residual into a violation; so a report
has no violations if and only if every counted residual is exactly zero.  A
residual that cannot be formed exactly within the budget is not counted:
``Report.skip`` writes the ones sharing a reason as one skip carrying their
count.  A construction whose own certificate fails raises through
``Report.require``.

Leibniz and Jacobi get no certificate of their own.  Both hold in the free
ambient, whose bracket is the Lie bracket of Lyndon words extended as a
biderivation.  ``colimits.fixpoint_certificate`` shows the ideal I closed
under in-budget products and brackets with letters, and by Leibniz and
Jacobi in the ambient that closes it under every in-budget product and
bracket: I is a Poisson ideal.  The quotient's label maps are the
ambient's followed by the normal form (``TruncatedQuotient.product_labels``
and ``bracket_labels``), so every in-budget ambient identity holds on the
quotient.  ``check_leibniz``
and ``check_jacobi`` stay as exhaustive checks of the label maps.

The label maps must be pure functions of their labels: the checkers ask for
the same product, bracket, coproduct or antipode many times, so a structure
may memoize them (quotients and bialgebras memoize products, brackets and
coproducts, and the antipode when they carry one) and must then return an
equal value for equal labels.  Labels are dict keys; the interned algebra labels
hash by identity, so no output may depend on hash order: dicts keep
insertion order and every rendering is sorted by ``label_key``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from functools import partial

from .linalg import SparseVec, bilinear, functional, lincomb, linear, map_pairs, outer_sum, unit_vec


class Violation(namedtuple("Violation", "law witnesses residual")):
    __slots__ = ()

    def line(self) -> str:
        ws = ", ".join(self.witnesses)
        return f"{self.law} fails at ({ws}): residual {self.residual}"

    def to_json_obj(self) -> dict:
        return {
            "law": self.law,
            "witnesses": list(self.witnesses),
            "residual": self.residual,
        }


class Skip(namedtuple("Skip", "law witnesses reason")):
    __slots__ = ()

    def line(self) -> str:
        return f"{self.law} skipped at ({', '.join(self.witnesses)}): {self.reason}"

    def to_json_obj(self) -> dict:
        return {"law": self.law, "witnesses": list(self.witnesses), "reason": self.reason}


class Report:
    def __init__(self, violations=None, checked: int = 0, skipped=None):
        self.violations = [] if violations is None else violations
        self.checked = checked
        self.skipped = [] if skipped is None else skipped

    def __eq__(self, other) -> bool:
        return type(other) is Report and vars(self) == vars(other)

    def __repr__(self) -> str:
        return "Report(" + ", ".join(f"{k}={v!r}" for k, v in vars(self).items()) + ")"

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, law: str, residual, witnesses, show, render=str) -> None:
        """Count one formed residual; a nonzero one becomes a violation.

        Only then are the witness strings ``show(w)`` and the rendering
        ``render(residual)`` built.
        """
        self.checked += 1
        if residual:
            self.violations.append(Violation(law, tuple(map(show, witnesses)), render(residual)))

    def require(self, what: str) -> "Report":
        """This report, or ``RuntimeError`` on a violation: a construction failed its own check."""
        if not self.ok:
            raise RuntimeError(f"{what} failed (implementation bug): " + "; ".join(self.lines()))
        return self

    def skip(self, law: str, n: int, what: str, reason: str) -> None:
        """One skip carrying the count of ``n`` residuals not formed; none when n is 0."""
        if n:
            self.skipped.append(Skip(law, (f"{n} {what}",), reason))

    def merge(self, other: "Report") -> "Report":
        self.violations.extend(other.violations)
        self.checked += other.checked
        self.skipped.extend(other.skipped)
        return self

    def lines(self) -> list:
        if self.ok:
            out = [f"ok: {self.checked} residuals, all zero"]
        else:
            out = [v.line() for v in self.violations]
        return out + [s.line() for s in self.skipped]

    def to_json_obj(self) -> dict:
        obj = {
            "checked": self.checked,
            "violations": [v.to_json_obj() for v in self.violations],
        }
        if self.skipped:
            obj["skipped"] = [s.to_json_obj() for s in self.skipped]
        return obj


def render_vec(structure, vec: SparseVec) -> str:
    """Canonical rendering of a vector over labels."""
    if not vec:
        return "0"
    parts = []
    for label, c in vec.sorted_items():
        body = structure.render_label(label)
        parts.append(f"{c}*{body}" if body != "1" else str(c))
    return " + ".join(parts)


def render_tensor(structure, vec: SparseVec) -> str:
    """Canonical rendering of a vector over pairs or triples of labels, slots joined by (x)."""
    if not vec:
        return "0"
    return " + ".join(
        f"{c}*" + " (x) ".join(structure.render_label(l) for l in labels)
        for labels, c in vec.sorted_items()
    )


# ---- label maps on tensors (``linalg.linear`` and ``linalg.bilinear`` on vectors) ----


def tensor_product(structure, ta: SparseVec, tb: SparseVec) -> SparseVec:
    """(p (x) q)(r (x) s) = pr (x) qs, extended bilinearly."""
    mul = structure.product_labels
    return outer_sum(
        (c1 * c2, mul(p, r), mul(q, s)) for (p, q), c1 in ta.items() for (r, s), c2 in tb.items()
    )


def tensor_bracket(structure, ta: SparseVec, tb: SparseVec) -> SparseVec:
    """[p(x)q, r(x)s] = pr (x) [q,s] + [p,r] (x) qs, extended bilinearly."""
    mul, br = structure.product_labels, structure.bracket_labels
    return outer_sum(
        term
        for (p, q), c1 in ta.items()
        for (r, s), c2 in tb.items()
        for term in ((c1 * c2, mul(p, r), br(q, s)), (c1 * c2, br(p, r), mul(q, s)))
    )


def _within(structure) -> list:
    """``within[k]``: the labels of degree at most k, in label order, for k = 0..N."""
    n = structure.truncation
    within = [[] for _ in range(n + 1)]
    for l in structure.labels_upto():
        for k in range(structure.label_degree(l), n + 1):
            within[k].append(l)
    return within


def _pairs_within(structure):
    n, within = structure.truncation, _within(structure)
    for a in within[n]:
        for b in within[n - structure.label_degree(a)]:
            yield a, b


# ---- the checkers -----------------------------------------------------------


def check_coassociativity(structure) -> Report:
    """(delta (x) id) delta = (id (x) delta) delta on every basis label."""
    report = Report()
    for l in structure.labels_upto():
        record_coassociativity(report, structure, l)
    return report


def record_coassociativity(report: Report, structure, l) -> None:
    """Record the coassociativity residual of label ``l``.

    With delta(l) = sum c m1 (x) m2, the sides are sliced by the slot they
    share with delta(l), as sums of memoized coproducts: left = sum_d
    L[d] (x) d with L[d] = sum c delta(m1) over m2 = d, right = sum_a
    a (x) R[a] with R[a] = sum c delta(m2) over m1 = a.  Only a failing
    label expands its residual into triples.
    """
    delta = structure.delta_label
    t = delta(l).items()
    left = _slices((m2, c, delta(m1)) for (m1, m2), c in t)
    right = _slices((m1, c, delta(m2)) for (m1, m2), c in t)
    report.record("coassociativity", not _sliced_equal(left, right), (l,), structure.render_label,
                  lambda _: render_tensor(structure, _triples(left, right)))


def _slices(terms) -> dict:
    # key -> sum of c * vec over the (key, c, vec) terms sharing that key
    groups: dict = {}
    for key, c, vec in terms:
        groups.setdefault(key, []).append((c, vec))
    return {key: lincomb(group) for key, group in groups.items()}


def _triples(left: dict, right: dict) -> SparseVec:
    # left - right expanded into triples
    return SparseVec(((a, b, d), c) for d, v in left.items() for (a, b), c in v.items()) - SparseVec(
        ((a, b, d), c) for a, v in right.items() for (b, d), c in v.items())


def _sliced_equal(left: dict, right: dict) -> bool:
    # left[d][(a, b)] and right[a][(b, d)] are the coefficients of one triple
    if sum(map(len, left.values())) != sum(map(len, right.values())):
        return False
    for a, v in right.items():
        for (b, d), c in v.items():
            ld = left.get(d)
            if ld is None or ld.get((a, b)) != c:
                return False
    return True


def check_counit(structure) -> Report:
    """Both one-sided counit laws on every basis label."""
    report = Report()
    for l in structure.labels_upto():
        record_counit(report, structure, l, unit_vec(l))
    return report


def record_counit(report: Report, structure, l, target: SparseVec) -> None:
    """Record both counit residuals of label ``l``, whose normal form is ``target``."""
    t = structure.delta_label(l).items()
    left = SparseVec((m2, c * structure.epsilon_label(m1)) for (m1, m2), c in t)
    right = SparseVec((m1, c * structure.epsilon_label(m2)) for (m1, m2), c in t)
    for side, v in (("left", left), ("right", right)):
        report.record(f"counit-{side}", v - target, (l,), structure.render_label, partial(render_vec, structure))


def check_poisson_compat(structure) -> Report:
    """delta is a bracket morphism into the tensor-square Poisson structure."""
    report = Report()
    for a, b in _pairs_within(structure):
        record_poisson_compat(report, structure, a, b)
    return report


def record_poisson_compat(report: Report, structure, a, b) -> None:
    """Record the bracket-comultiplicativity residual delta{a, b} - {delta a, delta b}."""
    lhs = linear(structure.delta_label, structure.bracket_labels(a, b))
    rhs = tensor_bracket(structure, structure.delta_label(a), structure.delta_label(b))
    report.record("bracket-comultiplicativity", lhs - rhs, (a, b), structure.render_label,
                  partial(render_tensor, structure))


def check_leibniz(structure) -> Report:
    """{p, qr} = {p,q}r + q{p,r} on label triples within the budget."""
    report, vector = Report(), partial(render_vec, structure)
    br, mul, deg = structure.bracket_labels, structure.product_labels, structure.label_degree
    n = structure.truncation
    within = _within(structure)
    for p in within[n]:
        for q in within[n - deg(p)]:
            for r in within[n - deg(p) - deg(q)]:
                lhs = bilinear(br, unit_vec(p), mul(q, r))
                rhs = bilinear(mul, br(p, q), unit_vec(r)) + bilinear(mul, unit_vec(q), br(p, r))
                report.record("leibniz", lhs - rhs, (p, q, r), structure.render_label, vector)
    return report


def check_jacobi(structure) -> Report:
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]] = 0 on label triples x <= y <= z within the budget.

    The order is that of ``labels_upto``; y and z walk their budget lists
    from the position of x and of y on.
    """
    report, vector = Report(), partial(render_vec, structure)
    br, deg = structure.bracket_labels, structure.label_degree
    n, within = structure.truncation, _within(structure)
    position = {l: i for i, l in enumerate(within[n])}.__getitem__
    for x in within[n]:
        dx = deg(x)
        ys = within[n - dx]
        for y in ys[bisect_left(ys, position(x), key=position):]:
            zs = within[n - dx - deg(y)]
            for z in zs[bisect_left(zs, position(y), key=position):]:
                residual = (
                    bilinear(br, unit_vec(x), br(y, z))
                    + bilinear(br, unit_vec(y), br(z, x))
                    + bilinear(br, unit_vec(z), br(x, y))
                )
                report.record("jacobi", residual, (x, y, z), structure.render_label, vector)
    return report


def check_antipode_antimorphism(structure) -> Report:
    """S(ab) = S(b)S(a) and S([a,b]) = [S(b), S(a)] on every label pair within the budget."""
    report, vector = Report(), partial(render_vec, structure)
    s = structure.antipode_label
    for a, b in _pairs_within(structure):
        sa, sb = s(a), s(b)
        for law, op in (("antipode-product", structure.product_labels),
                        ("antipode-bracket", structure.bracket_labels)):
            direct = linear(s, op(a, b))
            report.record(law, direct - bilinear(op, sb, sa), (a, b), structure.render_label, vector)
    return report


def convolution_residual(structure, x, antipode, side: str):
    """sum c S(a) b - eps(x) 1 (side "left") or sum c a S(b) - eps(x) 1 ("right").

    Delta x = sum c a (x) b, and S is ``antipode(label)``, a normal form.
    """
    terms = []
    for (a, b), c in structure.delta_label(x).items():
        u, v = (antipode(a), unit_vec(b)) if side == "left" else (unit_vec(a), antipode(b))
        terms.append((c, bilinear(structure.product_labels, u, v)))
    return lincomb([*terms, (-structure.epsilon_label(x), structure.one())])


def check_antipode_convolution(structure, labels, antipode, law: str) -> Report:
    """Both ``convolution_residual`` sides vanish on each given label x.

    S is ``antipode(label)``, a normal form.  A label with 2 deg x > N is
    skipped, as one skip with their count: the slots of Delta x reach deg x,
    so S(a) b may leave the budget and a true law would read as a violation.
    """
    report, vector = Report(), partial(render_vec, structure)
    over_budget = 0
    for x in labels:
        if 2 * structure.label_degree(x) > structure.truncation:
            over_budget += 1
            continue
        for side in ("left", "right"):
            report.record(f"{law}-{side}", convolution_residual(structure, x, antipode, side), (x,),
                          structure.render_label, vector)
    report.skip(law, over_budget, "labels", "2*deg > N, so S(a)*b may leave the budget")
    return report


def check_antipode(structure) -> Report:
    """The anti-morphism laws on every label pair and both convolution laws on every label."""
    report = check_antipode_antimorphism(structure)
    return report.merge(check_antipode_convolution(
        structure, structure.labels_upto(), structure.antipode_label, "antipode-convolution"
    ))


def check_coalgebra_map(source, labels, image, target, law: str) -> Report:
    """Delta_T f = (f (x) f) Delta and eps_T f = eps, with f(l) = ``image(l)`` a normal form."""
    report, tensor = Report(), partial(render_tensor, target)
    for l in labels:
        v = image(l)
        residual = linear(target.delta_label, v) - map_pairs(source.delta_label(l), image)
        report.record(f"{law}-delta", residual, (l,), source.render_label, tensor)
        residual = functional(target.epsilon_label, v) - source.epsilon_label(l)
        report.record(f"{law}-counit", residual, (l,), source.render_label)
    return report
