"""Memoized label maps of the checker protocol equal a fresh recomputation."""

from fractions import Fraction

import pytest

import poissonhopf.colimits as colimits
import poissonhopf.poisson as poisson
from poissonhopf.bialgebra import bialgebra_coequalizer, check_bialgebra, induce_bialgebra, op_cop
from poissonhopf.coalgebra import CoalgebraSpec, builtin
from poissonhopf.colimits import MorphismTable
from poissonhopf.free_hopf import free_poisson_hopf
from poissonhopf.lyndon import LyndonWord
from poissonhopf.poisson import PoissMonomial, poiss_bracket, poiss_product
from poissonhopf.verify import _pairs_within, check_poisson_compat


def trig_free():
    return induce_bialgebra(builtin("trig"), 3)


def trig_hopf():
    return free_poisson_hopf(builtin("trig"), 2, 3, check=False)


def trig_op_cop():
    return op_cop(induce_bialgebra(builtin("trig"), 3))


STRUCTURES = {"trig-free": trig_free, "trig-hopf": trig_hopf, "trig-op-cop": trig_op_cop}


@pytest.mark.parametrize("name", sorted(STRUCTURES))
def test_memoized_label_maps_match_recomputation(name):
    B = STRUCTURES[name]()
    q = B.quotient
    elt = B.ambient.monomial_elt
    pairs = list(_pairs_within(B))
    assert pairs
    if name == "trig-hopf":
        assert q.ideal.rank > 0
    for a, b in pairs:
        product = q.normal_form(poiss_product(elt(a), elt(b))).vec
        bracket = B.bracket_sign * q.normal_form(poiss_bracket(elt(a), elt(b))).vec
        assert B.product_labels(a, b) == product
        assert B.bracket_labels(a, b) == bracket
        assert B.product_labels(a, b) is B.product_labels(a, b)
        assert B.bracket_labels(a, b) is B.bracket_labels(a, b)
    for m in B.labels_upto():
        assert B.delta_label(m) == B.reduce_pair(B.delta_of_monomial(m))
        assert B.delta_label(m) is B.delta_label(m)
    tables = [*q._products.values(), *q._brackets.values(), *B._brackets.values(),
              *B._delta_quotient.monomials.values()]
    assert all(type(c) is int or c.denominator != 1 for v in tables for _, c in v.items())


def grouplike_coequalizer():
    src = induce_bialgebra(builtin("grouplike-1"), 4)
    tgt = induce_bialgebra(builtin("grouplike-2"), 4)
    f, g = (
        MorphismTable(src, tgt, {"g": tgt.quotient.normal_form(tgt.ambient.gen(name))})
        for name in ("g1", "g2")
    )
    return bialgebra_coequalizer(f, g).bialgebra


QUOTIENTS = {
    "trig-hopf": trig_hopf,
    "trig-hopf-op-cop": lambda: op_cop(trig_hopf()),
    "grouplike-coequalizer": grouplike_coequalizer,
}


@pytest.mark.parametrize("name", sorted(QUOTIENTS))
def test_label_maps_return_basis_labels(name):
    # the checkers never project: every label map output must already be a
    # normal form, a combination of basis labels of the quotient
    B = QUOTIENTS[name]()
    basis = set(B.quotient.basis_monomials())
    assert B.quotient.ideal.rank > 0
    antipode = B.antipode_label if B.antipode_table is not None else lambda m: None
    for m in B.labels_upto():
        assert all(a in basis and b in basis for a, b in B.delta_label(m).labels())
        image = antipode(m)
        assert image is None or set(image.labels()) <= basis
    for a, b in _pairs_within(B):
        assert set(B.product_labels(a, b).labels()) <= basis
        assert set(B.bracket_labels(a, b).labels()) <= basis


def test_op_cop_negates_the_shared_bracket_table():
    B = trig_free()
    twisted = op_cop(B)
    assert twisted.quotient is B.quotient
    for a, b in _pairs_within(B):
        assert twisted.bracket_labels(a, b) == -B.bracket_labels(a, b)
        assert twisted.product_labels(a, b) is B.product_labels(a, b)


def test_hopf_quotient_shares_the_quotient_table():
    H = trig_hopf()
    a, b = [m for m in H.labels_upto() if m.degree == 1][:2]
    assert H.bracket_labels(a, b) is H.quotient.bracket_labels(a, b)
    assert H.product_labels(a, b) is H.quotient.product_labels(a, b)


def test_second_check_does_no_poisson_arithmetic(monkeypatch):
    B = trig_free()
    first = check_poisson_compat(B)
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    for module in (poisson, colimits):
        monkeypatch.setattr(module, "poiss_product", counted(poiss_product))
        monkeypatch.setattr(module, "poiss_bracket", counted(poiss_bracket))
    second = check_poisson_compat(B)
    assert calls == []
    assert second == first and first.ok and first.checked > 0
    # the counter does see a structure whose tables are still empty
    check_poisson_compat(trig_free())
    assert calls


def test_memo_leaves_the_bialgebra_report_unchanged():
    B = trig_hopf()
    first = check_bialgebra(B)
    assert check_bialgebra(B) == first and first.ok


def test_antipode_label_memo_matches_recomputation():
    H = free_poisson_hopf(builtin("trig"), 3, 3, check=False)
    other = free_poisson_hopf(builtin("trig"), 3, 3, check=False)
    for m in H.labels_upto():
        got = H.antipode_label(m)
        assert got == H.antipode(H.ambient.monomial_elt(m)).vec
        assert H.antipode_label(m) is got
    memo = H._antipode.monomials
    assert len(memo) == len(H.labels_upto())
    # the memo belongs to the structure, not to the class or the quotient
    assert other._antipode.monomials == {}
    assert other._antipode.monomials is not memo


def test_builtin_counits_are_ints():
    for name in ("grouplike-1", "grouplike-2", "matrix-2", "trig"):
        spec = builtin(name)
        B = induce_bialgebra(spec, 2)
        assert all(type(spec.epsilon_label(x)) is int for x in spec.basis)
        assert all(type(v) is int for v in B.epsilon_table.values())
        assert all(type(B.epsilon_label(m)) is int for m in B.labels_upto())


def test_fractional_counit_stays_fraction():
    # delta(x) = 2 x (x) x with epsilon(x) = 1/2 is a coalgebra
    spec = CoalgebraSpec.make(("x",), {"x": [("x", "x", 2)]}, {"x": "1/2"})
    B = induce_bialgebra(spec, 2)
    assert spec.epsilon_label("x") == Fraction(1, 2) and type(spec.epsilon_label("x")) is Fraction
    x = PoissMonomial((LyndonWord((0,)),))
    xx = PoissMonomial((LyndonWord((0,)), LyndonWord((0,))))
    assert type(B.epsilon_label(x)) is Fraction
    assert B.epsilon_label(xx) == Fraction(1, 4)
    assert check_bialgebra(B).ok
