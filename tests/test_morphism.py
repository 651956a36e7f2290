"""One certified morphism: ``MorphismTable`` into a quotient, a bialgebra or a closed-form target.

A map fixed by generator images has two certificates: ``well_defined_report``
(every source relation maps to zero) and ``bialgebra_report`` (that, and the
coalgebra-map law on the letters).  The lemma of ``bialgebra_report`` lifts
the letter law to every class, so on each map below it must agree with
``verify.check_coalgebra_map`` over every source class.
"""

from fractions import Fraction

import pytest
from oracles import class_report

from poissonhopf.bialgebra import induce_bialgebra, op_cop
from poissonhopf.coalgebra import builtin
from poissonhopf.colimits import MorphismTable
from poissonhopf.free_hopf import free_poisson_hopf
from poissonhopf.linalg import SparseVec, linear
from poissonhopf.targets import GroupAlgebra, sl2_hopf

T = GroupAlgebra(1)


def laurent_hopf():
    return free_poisson_hopf(builtin("grouplike-1"), 2, 4)


def test_the_free_hopf_algebra_maps_onto_the_laurent_polynomials():
    H = laurent_hopf()
    f = MorphismTable(H, T, {"g_0": T.gen(0), "g_1": T.gen(0, -1)})
    report = f.bialgebra_report()
    # the two Hopf relations, then both laws on both letters
    assert report.ok and report.checked == 2 + 2 * 2
    classes = H.labels_upto()
    assert len(classes) == 9
    assert class_report(f, "classes").ok
    # one class onto each of t^-4 .. t^4
    images = sorted((f.image(m) for m in classes), key=list)
    assert images == [T.gen(0, k) for k in range(-4, 5)]


def test_a_stage_letter_sent_to_the_wrong_power_fails_both_relations():
    H = laurent_hopf()
    report = MorphismTable(H, T, {"g_0": T.gen(0), "g_1": T.gen(0)}).bialgebra_report()
    assert [(v.law, v.residual) for v in report.violations] == [("morphism-relations", "-1 + 1*t1^2")] * 2


def maps():
    """(name, source, target, images, is a bialgebra map)."""
    S = sl2_hopf(3)
    g1, g2, trig = (induce_bialgebra(builtin(name), 3) for name in ("grouplike-1", "grouplike-2", "trig"))

    def letter(B, name):
        return B.quotient.normal_form(B.ambient.gen(name))

    hopf = laurent_hopf()
    return [
        ("group-algebra", g1, T, {"g": T.gen(0)}, True),
        ("group-algebra-not-grouplike", g1, T, {"g": T.gen(0) + T.one()}, False),
        ("sl2-unit", g1, S, {"g": S.one()}, True),
        ("sl2-primitive", g1, S, {"g": S.gen(0)}, False),
        ("quotient", g1, g2, {"g": letter(g2, "g1")}, True),
        ("quotient-not-grouplike", g1, trig, {"g": letter(trig, "c")}, False),
        ("op-cop-identity", op_cop(trig), trig, {n: letter(trig, n) for n in ("c", "s")}, True),
        ("op-cop-swap", op_cop(trig), trig, {"c": letter(trig, "s"), "s": letter(trig, "c")}, False),
        ("hopf", hopf, T, {"g_0": T.gen(0), "g_1": T.gen(0, -1)}, True),
        ("hopf-ill-defined", hopf, T, {"g_0": T.gen(0), "g_1": T.gen(0, -1) + T.gen(0)}, False),
    ]


MAPS = {name: rest for name, *rest in maps()}


@pytest.mark.parametrize("name", sorted(MAPS))
def test_the_letter_certificate_agrees_with_every_class(name):
    source, target, images, expected = MAPS[name]
    f = MorphismTable(source, target, images)
    assert f.bialgebra_report().ok is expected
    assert class_report(f, "classes").ok is expected


@pytest.mark.parametrize("name", sorted(n for n, (_, target, _, _) in MAPS.items() if target.quotient is not None))
def test_image_is_apply_on_labels(name):
    source, target, images, _ = MAPS[name]
    f = MorphismTable(source, target, images)
    labels = source.labels_upto()
    for m in labels:
        assert f.image(m) == f.apply(source.ambient.monomial_elt(m)).vec
    x = source.ambient.elt(SparseVec((m, Fraction(i + 1, 2)) for i, m in enumerate(labels)))
    assert f.apply(x).vec == linear(f.image, x.vec)

