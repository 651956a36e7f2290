"""Exact axiom checkers over structure tables, with reproducible reports.

Checkers are written against a small duck-typed protocol so the same code
verifies finite-dimensional coalgebras, free and quotient Poisson
bialgebras, and truncated Hopf quotients.  A structure exposes its basis as
*labels* and all operations as maps between sparse vectors over labels:

    labels_upto(max_degree)   basis labels in canonical order
    label_degree(l)           grading used for truncation budgets
    delta_label(l)            SparseVec over (label, label) pairs
    epsilon_label(l)          Fraction
    product_labels(a, b)      SparseVec over labels
    bracket_labels(a, b)      SparseVec over labels
    antipode_label(l)         SparseVec over labels, or None where undefined
    reduce_vec / reduce_pair / reduce_triple
                              projection to the quotient (identity if free)
    render_label(l)           printable form

Every check is exhaustive at the truncation: a report is empty if and only
if every listed residual is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import SparseVec, lincomb, outer, unit_vec


@dataclass(frozen=True)
class Violation:
    law: str
    witnesses: tuple
    residual: str

    def line(self) -> str:
        ws = ", ".join(self.witnesses)
        return f"{self.law} fails at ({ws}): residual {self.residual}"

    def to_json_obj(self) -> dict:
        return {
            "law": self.law,
            "witnesses": list(self.witnesses),
            "residual": self.residual,
        }


@dataclass
class Report:
    violations: list = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def merge(self, other: "Report") -> "Report":
        self.violations.extend(other.violations)
        self.checked += other.checked
        return self

    def lines(self) -> list:
        if self.ok:
            return [f"ok: {self.checked} residuals, all zero"]
        return [v.line() for v in self.violations]

    def to_json_obj(self) -> dict:
        return {
            "checked": self.checked,
            "violations": [v.to_json_obj() for v in self.violations],
        }


def render_vec(structure, vec: SparseVec) -> str:
    """Canonical rendering of a label vector, tensor slots joined by (x)."""
    if not vec:
        return "0"
    parts = []
    for label, c in vec.sorted_items():
        if isinstance(label, tuple):
            body = " (x) ".join(structure.render_label(l) for l in label)
        else:
            body = structure.render_label(label)
        parts.append(f"{c}*{body}" if body != "1" else str(c))
    return " + ".join(parts)


# ---- bilinear plumbing over label vectors ----------------------------------


def op_vec_vec(op, va: SparseVec, vb: SparseVec) -> SparseVec:
    return lincomb((ca * cb, op(a, b)) for a, ca in va.items() for b, cb in vb.items())


def delta_vec(structure, v: SparseVec) -> SparseVec:
    return lincomb((c, structure.delta_label(l)) for l, c in v.items())


def tensor_bracket(structure, ta: SparseVec, tb: SparseVec) -> SparseVec:
    """[p(x)q, r(x)s] = pr (x) [q,s] + [p,r] (x) qs, extended bilinearly."""
    mul, br = structure.product_labels, structure.bracket_labels
    return lincomb(
        (c1 * c2, term)
        for (p, q), c1 in ta.items()
        for (r, s), c2 in tb.items()
        for term in (outer(mul(p, r), br(q, s)), outer(br(p, r), mul(q, s)))
    )


def _pairs_within(structure, max_degree):
    labels = list(structure.labels_upto(max_degree))
    for a in labels:
        da = structure.label_degree(a)
        for b in labels:
            if da + structure.label_degree(b) <= max_degree:
                yield a, b


# ---- the checkers -----------------------------------------------------------


def check_coassociativity(structure, max_degree=None) -> Report:
    """(delta (x) id) delta = (id (x) delta) delta on every basis label."""
    report = Report()
    for l in structure.labels_upto(max_degree):
        t = structure.delta_label(l).items()
        left = SparseVec(
            ((a, b, m2), c * c2)
            for (m1, m2), c in t
            for (a, b), c2 in structure.delta_label(m1).items()
        )
        right = SparseVec(
            ((m1, a, b), c * c2)
            for (m1, m2), c in t
            for (a, b), c2 in structure.delta_label(m2).items()
        )
        residual = structure.reduce_triple(left - right)
        report.checked += 1
        if residual:
            report.violations.append(
                Violation(
                    "coassociativity",
                    (structure.render_label(l),),
                    render_vec(structure, residual),
                )
            )
    return report


def check_counit(structure, max_degree=None) -> Report:
    """Both one-sided counit laws on every basis label."""
    report = Report()
    for l in structure.labels_upto(max_degree):
        t = structure.delta_label(l).items()
        left = SparseVec((m2, c * structure.epsilon_label(m1)) for (m1, m2), c in t)
        right = SparseVec((m1, c * structure.epsilon_label(m2)) for (m1, m2), c in t)
        target = unit_vec(l)
        for side, v in (("left", left), ("right", right)):
            residual = structure.reduce_vec(v - target)
            report.checked += 1
            if residual:
                report.violations.append(
                    Violation(
                        f"counit-{side}",
                        (structure.render_label(l),),
                        render_vec(structure, residual),
                    )
                )
    return report


def check_poisson_compat(structure, max_degree=None) -> Report:
    """delta is a bracket morphism into the tensor-square Poisson structure."""
    report = Report()
    n = max_degree if max_degree is not None else structure.truncation
    for a, b in _pairs_within(structure, n):
        lhs = delta_vec(structure, structure.bracket_labels(a, b))
        rhs = tensor_bracket(structure, structure.delta_label(a), structure.delta_label(b))
        residual = structure.reduce_pair(lhs - rhs)
        report.checked += 1
        if residual:
            report.violations.append(
                Violation(
                    "bracket-comultiplicativity",
                    (structure.render_label(a), structure.render_label(b)),
                    render_vec(structure, residual),
                )
            )
    return report


def check_leibniz(structure, max_degree=None, bracket=None, product=None) -> Report:
    """{p, qr} = {p,q}r + q{p,r} on label triples within the budget."""
    report = Report()
    br = bracket or structure.bracket_labels
    mul = product or structure.product_labels
    n = max_degree if max_degree is not None else structure.truncation
    labels = list(structure.labels_upto(n))
    for p in labels:
        dp = structure.label_degree(p)
        for q in labels:
            dq = structure.label_degree(q)
            if dp + dq > n:
                continue
            for r in labels:
                if dp + dq + structure.label_degree(r) > n:
                    continue
                lhs = op_vec_vec(br, unit_vec(p), mul(q, r))
                rhs = op_vec_vec(mul, br(p, q), unit_vec(r)) + op_vec_vec(
                    mul, unit_vec(q), br(p, r)
                )
                residual = structure.reduce_vec(lhs - rhs)
                report.checked += 1
                if residual:
                    report.violations.append(
                        Violation(
                            "leibniz",
                            tuple(structure.render_label(x) for x in (p, q, r)),
                            render_vec(structure, residual),
                        )
                    )
    return report


def check_jacobi(structure, max_degree=None, bracket=None) -> Report:
    """[x,[y,z]] + [y,[z,x]] + [z,[x,y]] = 0 on label triples within the budget."""
    report = Report()
    br = bracket or structure.bracket_labels
    n = max_degree if max_degree is not None else structure.truncation
    labels = list(structure.labels_upto(n))
    for i, x in enumerate(labels):
        dx = structure.label_degree(x)
        for j in range(i, len(labels)):
            y = labels[j]
            dy = structure.label_degree(y)
            if dx + dy > n:
                continue
            for k in range(j, len(labels)):
                z = labels[k]
                if dx + dy + structure.label_degree(z) > n:
                    continue
                s = (
                    op_vec_vec(br, unit_vec(x), br(y, z))
                    + op_vec_vec(br, unit_vec(y), br(z, x))
                    + op_vec_vec(br, unit_vec(z), br(x, y))
                )
                residual = structure.reduce_vec(s)
                report.checked += 1
                if residual:
                    report.violations.append(
                        Violation(
                            "jacobi",
                            tuple(structure.render_label(w) for w in (x, y, z)),
                            render_vec(structure, residual),
                        )
                    )
    return report


def check_antipode_antimorphism(structure, max_degree=None) -> Report:
    """S(ab) = S(b)S(a) and S([a,b]) = [S(b), S(a)] where S is defined."""
    report = Report()
    n = max_degree if max_degree is not None else structure.truncation

    def s_vec(v):
        terms = []
        for l, c in v.items():
            sv = structure.antipode_label(l)
            if sv is None:
                return None
            terms.append((c, sv))
        return lincomb(terms)

    for a, b in _pairs_within(structure, n):
        sa, sb = structure.antipode_label(a), structure.antipode_label(b)
        if sa is None or sb is None:
            continue
        for law, op in (("antipode-product", structure.product_labels),
                        ("antipode-bracket", structure.bracket_labels)):
            direct = s_vec(structure.reduce_vec(op(a, b)))
            if direct is None:
                continue
            swapped = op_vec_vec(op, sb, sa)
            residual = structure.reduce_vec(direct - swapped)
            report.checked += 1
            if residual:
                report.violations.append(
                    Violation(
                        law,
                        (structure.render_label(a), structure.render_label(b)),
                        render_vec(structure, residual),
                    )
                )
    return report
