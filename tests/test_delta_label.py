"""The quotient-side coproduct equals the slotwise-reduced ambient one.

``delta_label`` builds each monomial's coproduct inside (Q/I) (x) (Q/I);
the oracle expands the ambient coproduct ``delta_of_monomial`` and reduces
it slot by slot.  The two must agree on every ambient monomial, ideal
pivots included, of every Hopf quotient, twist and coequalizer below.  On
the same structures the coideal certificate on the ideal generators, which
the constructions run, agrees with the one on every ideal row, and the
generator certificate of the bialgebra laws agrees with ``check_bialgebra``.
On the Hopf quotients among them the S'-stability certificate on the
generators agrees with the one on every row, S is total and an involution,
S from the antipode table equals the projected stage map pi(S'(m)) on
every class, and the antipode, Leibniz and Jacobi laws hold on every class.
"""

import pytest

from poissonhopf.bialgebra import (
    bialgebra_coequalizer,
    bialgebra_coproduct,
    check_bialgebra,
    coideal_certificate,
    generator_certificate,
    induce_bialgebra,
    op_cop,
)
from poissonhopf.coalgebra import CoalgebraSpec, builtin, validate_coalgebra
from poissonhopf.colimits import MorphismTable, quotient
from poissonhopf.free_hopf import (
    free_poisson_hopf,
    free_poisson_hopf_on_bialgebra,
    s_prime_stability_certificate,
)
from poissonhopf.linalg import lincomb, unit_vec
from poissonhopf.verify import check_antipode, check_jacobi, check_leibniz

from oracles import hopf_relations_oracle


def twisted_grouplike_2():
    # grouplike-2 in the basis g1, g2 <- g1 + g2
    return CoalgebraSpec.make(
        ("g1", "g2"),
        {
            "g1": [("g1", "g1", 1)],
            "g2": [("g1", "g1", 2), ("g1", "g2", -1), ("g2", "g1", -1), ("g2", "g2", 1)],
        },
        {"g1": 1, "g2": 2},
    )


def twisted_trig():
    # trig in the basis c <- c + s, s
    return CoalgebraSpec.make(
        ("c", "s"),
        {
            "c": [("c", "c", 1), ("s", "s", -2)],
            "s": [("s", "c", 1), ("c", "s", 1), ("s", "s", -2)],
        },
        {"c": 1, "s": 0},
    )


def hopf(spec, stages, degree):
    return lambda: free_poisson_hopf(spec(), stages, degree)


def grouplike_coequalizer():
    src = induce_bialgebra(builtin("grouplike-1"), 4)
    tgt = induce_bialgebra(builtin("grouplike-2"), 4)
    f, g = (
        MorphismTable(src, tgt, {"g": tgt.quotient.normal_form(tgt.ambient.gen(name))})
        for name in ("g1", "g2")
    )
    return bialgebra_coequalizer(f, g).bialgebra


CASES = {
    "grouplike-1-M4-N5": hopf(lambda: builtin("grouplike-1"), 4, 5),
    "grouplike-2-M2-N4": hopf(lambda: builtin("grouplike-2"), 2, 4),
    "grouplike-2-M3-N3": hopf(lambda: builtin("grouplike-2"), 3, 3),
    "trig-M2-N4": hopf(lambda: builtin("trig"), 2, 4),
    "trig-M3-N3": hopf(lambda: builtin("trig"), 3, 3),
    "matrix-2-M2-N3": hopf(lambda: builtin("matrix-2"), 2, 3),
    "trig-hopf-op-cop": lambda: op_cop(free_poisson_hopf(builtin("trig"), 2, 4)),
    "grouplike-2-coequalizer": grouplike_coequalizer,
    "twisted-grouplike-2-M2-N4": hopf(twisted_grouplike_2, 2, 4),
    "twisted-trig-M2-N3": hopf(twisted_trig, 2, 3),
    # the reflection of a bialgebra with relations of its own
    "grouplike-2-coequalizer-hopf-M2-N4": lambda: free_poisson_hopf_on_bialgebra(grouplike_coequalizer(), 2),
}


def test_twisted_specs_are_coalgebras():
    assert validate_coalgebra(twisted_grouplike_2()).ok
    assert validate_coalgebra(twisted_trig()).ok


@pytest.mark.parametrize("name", sorted(CASES))
def test_delta_label_equals_reduced_ambient_coproduct(name):
    B = CASES[name]()
    assert B.quotient.ideal.rank > 0
    monomials = B.ambient.monomials_upto()
    mismatches = [
        B.render_label(m)
        for m in monomials
        if B.delta_label(m) != B.reduce_pair(B.delta_of_monomial(m))
    ]
    assert not mismatches, mismatches[:5]


@pytest.mark.parametrize("name", sorted(CASES))
def test_generator_and_row_coideal_certificates_agree(name):
    B = CASES[name]()
    on_generators = coideal_certificate(B, (g.vec for g in B.quotient.generators))
    on_rows = coideal_certificate(B, B.quotient.ideal.rows)
    assert on_generators.ok and on_rows.ok, (on_generators.lines(), on_rows.lines())
    assert on_generators.checked > 0 and on_rows.checked > 0


# the Hopf quotients among CASES, and matrix-2 at three stages
NOT_HOPF = ("trig-hopf-op-cop", "grouplike-2-coequalizer")
HOPF = {
    **{name: make for name, make in CASES.items() if name not in NOT_HOPF},
    "matrix-2-M3-N3": hopf(lambda: builtin("matrix-2"), 3, 3),
}


@pytest.mark.parametrize("name", sorted(HOPF))
def test_generator_and_row_sprime_certificates_agree(name):
    H = HOPF[name]()
    q = H.quotient
    on_generators = s_prime_stability_certificate(H, (g.vec for g in q.generators))
    on_rows = s_prime_stability_certificate(H, q.ideal.rows)
    assert on_generators.ok and on_rows.ok, (on_generators.lines(), on_rows.lines())
    assert (on_generators.checked, on_rows.checked) == (len(q.generators), q.ideal.rank)


@pytest.mark.parametrize("name", sorted(HOPF))
def test_antipode_is_a_total_involution_and_the_laws_hold(name):
    # coassociativity, the counit laws and bracket-comultiplicativity are
    # checked on CASES by test_generator_certificate_and_check_bialgebra_agree
    H = HOPF[name]()
    S = H.antipode_label
    not_involutive = [H.render_label(m) for m in H.labels_upto()
                      if lincomb((c, S(l)) for l, c in S(m).items()) != unit_vec(m)]
    assert not not_involutive, not_involutive[:5]
    for report in (check_antipode(H), check_leibniz(H), check_jacobi(H)):
        assert report.ok and report.checked > 0, report.lines()
        assert {s.reason for s in report.skipped} <= {"2*deg > N, so S(a)*b may leave the budget"}


@pytest.mark.parametrize("name", sorted(HOPF))
def test_antipode_label_equals_the_projected_stage_map(name):
    # the table's extension over the quotient against pi(S'(m)) on the ambient
    H = HOPF[name]()
    mismatches = [
        H.render_label(m)
        for m in H.labels_upto()
        if H.antipode_label(m) != H.quotient.nf_vec(H.staged.s_prime(H.ambient.monomial_elt(m)).vec)
    ]
    assert not mismatches, mismatches[:5]


BIALGEBRAS = {
    **CASES,
    "trig-coproduct-twisted-trig": lambda: bialgebra_coproduct(
        [induce_bialgebra(builtin("trig"), 3), induce_bialgebra(twisted_trig(), 3)]
    ).bialgebra,
}


@pytest.mark.parametrize("name", sorted(BIALGEBRAS))
def test_generator_certificate_and_check_bialgebra_agree(name):
    B = BIALGEBRAS[name]()
    on_letters, on_classes = generator_certificate(B), check_bialgebra(B)
    assert on_letters.ok and on_classes.ok, (on_letters.lines(), on_classes.lines())
    assert on_letters.checked > 0 and not on_letters.skipped


@pytest.mark.parametrize("stages", [2, 3])
def test_coequalizer_reflection_has_the_ideal_of_the_oracle_relations(stages):
    # on a bialgebra with relations of its own the Hopf relations are normal
    # forms modulo the staged relations; they span the oracle's saturated ideal
    H = free_poisson_hopf_on_bialgebra(grouplike_coequalizer(), stages)
    staged = H.staged
    oracle = quotient(staged.ambient, [*staged.bialgebra.quotient.generators, *hopf_relations_oracle(staged)])
    assert H.quotient.ideal == oracle.ideal
