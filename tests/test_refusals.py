"""Refusals of malformed calls into the library: each raises ``ValueError`` with its message.

One row per refusal that no construction or command reaches on valid
input; the CLI's own refusals are pinned in ``tests/test_cli.py``.
"""

import pytest

from poissonhopf.bialgebra import induce_bialgebra
from poissonhopf.coalgebra import CoalgebraSpec, SpecError, builtin
from poissonhopf.colimits import (
    MorphismTable,
    difference_quotient,
    factorize_coproduct,
    free_quotient,
    ideal_saturate,
    poisson_coproduct,
)
from poissonhopf.poisson import FreePoissonAlgebra, PoissMonomial, graded_dimension
from poissonhopf.targets import GroupAlgebra, SymmetricLieHopf


def xy(n=3):
    return FreePoissonAlgebra(("x", "y"), n)


def over_budget():
    # x^4 in a budget of 3, built as a stored term, so not flagged lossy
    A = xy()
    (x,) = A.gen("x").vec
    return ideal_saturate(A, [A.monomial_elt(PoissMonomial(x.factors * 4))])


def identity(q):
    return MorphismTable(q, q, {n: q.ambient.gen(n) for n in q.ambient.alphabet})


def coproduct_of_two():
    return poisson_coproduct([free_quotient(FreePoissonAlgebra(("x",), 2)),
                              free_quotient(FreePoissonAlgebra(("y",), 2))])


def legs_without_a_common_target():
    cp = coproduct_of_two()
    return factorize_coproduct(cp, [identity(inj.source) for inj in cp.injections])


def maps_without_a_common_source():
    T = free_quotient(xy())
    f = MorphismTable(free_quotient(FreePoissonAlgebra(("x",), 3)), T, {"x": T.ambient.gen("x")})
    g = MorphismTable(free_quotient(FreePoissonAlgebra(("y",), 3)), T, {"y": T.ambient.gen("y")})
    return difference_quotient(f, g)


def maps_without_a_common_target():
    S = free_quotient(FreePoissonAlgebra(("x",), 3))
    T, U = free_quotient(xy()), free_quotient(FreePoissonAlgebra(("x", "z"), 3))
    return difference_quotient(MorphismTable(S, T, {"x": T.ambient.gen("y")}),
                               MorphismTable(S, U, {"x": U.ambient.gen("z")}))


REFUSALS = {
    "saturate-foreign-generator": (
        lambda: ideal_saturate(xy(), [FreePoissonAlgebra(("x",), 3).gen("x")]),
        ValueError, "generators must live in the ambient algebra"),
    "saturate-lossy-generator": (
        lambda: ideal_saturate(xy(), [xy().elt(xy().gen("x").vec, lossy=True)]),
        ValueError, "generators must be exact within the truncation"),
    "saturate-generator-over-budget": (over_budget, ValueError, "generator degree exceeds the budget"),
    "normal-form-of-a-foreign-element": (
        lambda: free_quotient(xy()).normal_form(xy(2).gen("x")),
        ValueError, "element not in the ambient algebra"),
    "morphism-without-an-image": (
        lambda: MorphismTable(free_quotient(xy()), free_quotient(xy()), {"x": xy().gen("x")}).apply(
            xy().gen("y")),
        ValueError, "no image for generator 'y'"),
    "morphism-of-a-foreign-element": (
        lambda: identity(free_quotient(xy())).apply(FreePoissonAlgebra(("x",), 3).gen("x")),
        ValueError, "element not in the morphism source"),
    "coproduct-of-nothing": (lambda: poisson_coproduct([]), ValueError, "need at least one operand"),
    "factorize-with-the-wrong-leg-count": (
        lambda: factorize_coproduct(coproduct_of_two(), []), ValueError, "one leg per operand required"),
    "factorize-legs-without-a-common-target": (
        legs_without_a_common_target, ValueError, "legs must share a target"),
    "coequalize-without-a-common-source": (
        maps_without_a_common_source, ValueError, "coequalizer needs a common source"),
    "coequalize-without-a-common-target": (
        maps_without_a_common_target, ValueError, "coequalizer needs a common target"),
    "duplicate-generator-names": (
        lambda: FreePoissonAlgebra(("x", "x"), 3), ValueError, r"duplicate generator names in \('x', 'x'\)"),
    "truncation-zero": (lambda: FreePoissonAlgebra(("x",), 0), ValueError, "truncation must be >= 1"),
    "graded-dimension-of-no-generators": (
        lambda: graded_dimension(0, 1), ValueError, "arguments must be >= 1"),
    "builtin-grouplike-0": (lambda: builtin("grouplike-0"), SpecError, "bad builtin size in 'grouplike-0'"),
    "builtin-matrix-0": (lambda: builtin("matrix-0"), SpecError, "bad builtin size in 'matrix-0'"),
    "group-algebra-of-rank-0": (lambda: GroupAlgebra(0), ValueError, "rank must be >= 1"),
    "symmetric-hopf-with-a-nonzero-self-bracket": (
        lambda: SymmetricLieHopf(("x", "y"), {(0, 0): {1: 1}}, 3), ValueError, "bracket table not antisymmetric"),
    # delta(x) = 2 x (x) x needs epsilon(x) = 1/2, not 1
    "induce-on-an-invalid-coalgebra": (
        lambda: induce_bialgebra(CoalgebraSpec.make(("x",), {"x": [("x", "x", 2)]}, {"x": 1}), 2),
        ValueError, r"invalid coalgebra: counit-left fails at \(x\): residual 1\*x; "
                    r"counit-right fails at \(x\): residual 1\*x"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_malformed_call_is_refused(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
