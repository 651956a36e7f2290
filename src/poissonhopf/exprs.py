"""Expression parser for truncated free Poisson algebra elements.

Grammar, loosest binding first::

    expr   := term (('+' | '-') term)*
    term   := atom ('*' atom)*
    atom   := scalar | name | '(' expr ')' | '{' expr ',' expr '}'
            | '[' expr ',' expr ']' | '-' atom

Scalars are integer fractions ``p/q``.  Braces and square brackets both
denote the Poisson bracket; the square form is what the canonical printer
emits for Lyndon-word factors, so printed elements parse back to themselves.
Nesting deeper than the interpreter's recursion limit is a ``ParseError``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poisson import FreePoissonAlgebra, PoissElt, poiss_bracket


class ParseError(ValueError):
    """Syntax or name-resolution error, carrying a character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*/(){}\[\],]))")


def tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        number, name, punct = m.groups()
        start = m.end() - len(number or name or punct)
        if number is not None:
            try:
                tokens.append(("int", int(number), start))
            except ValueError:  # more digits than the interpreter converts
                raise ParseError(f"integer of {len(number)} digits is too long", start) from None
        elif name is not None:
            tokens.append(("name", name, start))
        else:
            tokens.append((punct, punct, start))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, algebra: FreePoissonAlgebra):
        self.tokens = tokens
        self.i = 0
        self.algebra = algebra

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            found = "end of input" if tok[0] == "end" else repr(tok[1])
            raise ParseError(f"expected {kind!r}, found {found}", tok[2])
        return tok

    def parse_expr(self) -> PoissElt:
        out = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.parse_term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def parse_term(self) -> PoissElt:
        out = self.parse_atom()
        while self.peek()[0] == "*":
            self.advance()
            out = out * self.parse_atom()
        return out

    def parse_atom(self) -> PoissElt:
        kind, value, pos = self.peek()
        if kind == "int":
            return self.algebra.scalar(self.parse_scalar())
        if kind == "name":
            self.advance()
            try:
                return self.algebra.gen(value)
            except KeyError:
                raise ParseError(f"unknown generator {value!r}", pos) from None
        if kind == "-":
            self.advance()
            return -self.parse_atom()
        if kind == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if kind in ("{", "["):
            closing = "}" if kind == "{" else "]"
            self.advance()
            left = self.parse_expr()
            self.expect(",")
            right = self.parse_expr()
            self.expect(closing)
            return poiss_bracket(left, right)
        raise ParseError("unexpected end of input" if kind == "end" else f"unexpected token {value!r}", pos)

    def parse_scalar(self) -> Fraction:
        tok = self.expect("int")
        value = Fraction(tok[1])
        if self.peek()[0] == "/":
            self.advance()
            den = self.expect("int")
            if den[1] == 0:
                raise ParseError("zero denominator", den[2])
            value /= den[1]
        return value


def parse(text: str, algebra: FreePoissonAlgebra) -> PoissElt:
    """Parse an expression into the given algebra; raises ParseError."""
    parser = _Parser(tokenize(text), algebra)
    try:
        result = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {value!r}", pos)
    return result
