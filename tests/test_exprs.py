"""Expression grammar: evaluation, errors with positions, print/parse round-trip."""

from fractions import Fraction

import pytest

from poissonhopf.exprs import ParseError, parse
from poissonhopf.poisson import FreePoissonAlgebra, poiss_bracket, render


@pytest.fixture
def P():
    return FreePoissonAlgebra(("a", "b"), 4)


def test_bracket_of_product(P):
    a, b = P.gen("a"), P.gen("b")
    assert parse("{a, a*b}", P) == poiss_bracket(a, a * b)


def test_scalar_term_sum(P):
    expected = Fraction(2, 3) * P.gen("a") + P.gen("b")
    assert parse("2/3 * a + b", P) == expected


def test_square_brackets_are_poisson_brackets(P):
    assert parse("[a,b]", P) == parse("{a,b}", P)


def test_precedence_and_parentheses(P):
    a, b = P.gen("a"), P.gen("b")
    assert parse("a + b * a", P) == a + b * a
    assert parse("(a + b) * a", P) == (a + b) * a
    assert parse("-a - -b", P) == -a + b
    assert parse("2 * {a, b} - 1", P) == 2 * poiss_bracket(a, b) - P.one()


def test_syntax_error_positions(P):
    with pytest.raises(ParseError) as info:
        parse("{a,}", P)
    assert info.value.position == 3
    with pytest.raises(ParseError, match="unknown generator"):
        parse("a + q", P)
    with pytest.raises(ParseError, match="zero denominator"):
        parse("1/0", P)
    with pytest.raises(ParseError, match="trailing"):
        parse("a b", P)
    with pytest.raises(ParseError, match="unexpected character"):
        parse("a + $", P)


def test_round_trip_on_canonical_forms(P):
    a, b = P.gen("a"), P.gen("b")
    corpus = [
        P.zero(),
        P.one(),
        -2 * P.one(),
        a,
        Fraction(2, 3) * a + b,
        a * b - P.one(),
        poiss_bracket(a, b),
        a * poiss_bracket(a, b),
        poiss_bracket(a, poiss_bracket(a, b)) - Fraction(5, 7) * (b * b),
        poiss_bracket(poiss_bracket(a, b), b) + a * a * b,
    ]
    for e in corpus:
        assert parse(render(e), P) == e, render(e)


def test_deep_nesting_is_a_parse_error(P):
    depth = 3000
    with pytest.raises(ParseError, match="nested too deeply"):
        parse("{a," * depth + "b" + "}" * depth, P)
