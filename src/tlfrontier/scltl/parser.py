"""Concrete syntax for the co-safe fragment.

Grammar (precedence low to high): `|`, `&`, `U` (right-associative), then
the unary layer `!` (observations only), `F`, `true`, names, parentheses.
Observation names match [a-z][a-z0-9_]*. Nesting of parentheses, `F`
and `U` is bounded by `MAX_DEPTH`.
"""

from __future__ import annotations

import re

from .alphabet import ObservationSet
from .formula import TOP, Eventually, Formula, NegObs, Obs, Until, conj, disj

_TOKEN = re.compile(r"\s*(?:(?P<name>[a-z][a-z0-9_]*)|(?P<op>[!&|UFXG()])|(?P<bad>\S))")

_REJECTED = {"X": "next", "G": "globally"}

# Deepest nesting of parentheses, `F` and right-nested `U` a formula may
# have. The parser and every formula function recurse once per level, so
# deeper text is a ParseError rather than a RecursionError.
MAX_DEPTH = 100


class ParseError(ValueError):
    """Syntax or scoping error, with the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:  # only trailing whitespace left
            break
        if m.group("bad"):
            raise ParseError(f"unexpected character {m.group('bad')!r}", m.start("bad"))
        if m.group("name"):
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            op = m.group("op")
            if op in _REJECTED:
                raise ParseError(
                    f"operator {op!r} ({_REJECTED[op]}) is not part of this fragment",
                    m.start("op"),
                )
            tokens.append((op, op, m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, alphabet: ObservationSet):
        self.tokens = _tokenize(text)
        self.alphabet = alphabet
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}" if tok[0] != "end"
                             else f"expected {kind!r}, found end of input", tok[2])
        return tok

    def nested(self, parse, pos: int) -> Formula:
        """Run `parse` one nesting level deeper."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"formula nests deeper than {MAX_DEPTH} levels", pos)
        out = parse()
        self.depth -= 1
        return out

    def atom_name(self) -> str:
        kind, value, pos = self.take()
        if kind != "name":
            what = "end of input" if kind == "end" else repr(value)
            raise ParseError(f"expected an observation, found {what}", pos)
        if value == "true":
            raise ParseError("negation applies to observations only", pos)
        if value not in self.alphabet:
            raise ParseError(f"unknown observation {value!r}", pos)
        return value

    def parse_or(self) -> Formula:
        out = self.parse_and()
        while self.peek()[0] == "|":
            self.take()
            out = disj(out, self.parse_and())
        return out

    def parse_and(self) -> Formula:
        out = self.parse_until()
        while self.peek()[0] == "&":
            self.take()
            out = conj(out, self.parse_until())
        return out

    def parse_until(self) -> Formula:
        lhs = self.parse_unary()
        if self.peek()[0] == "U":
            pos = self.take()[2]
            return Until(lhs, self.nested(self.parse_until, pos))
        return lhs

    def parse_unary(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "!":
            self.take()
            return NegObs(self.atom_name())
        if kind == "F":
            self.take()
            return Eventually(self.nested(self.parse_unary, pos))
        if kind == "(":
            self.take()
            sub = self.nested(self.parse_or, pos)
            self.expect(")")
            return sub
        if kind == "name":
            self.take()
            if value == "true":
                return TOP
            if value not in self.alphabet:
                raise ParseError(f"unknown observation {value!r}", pos)
            return Obs(value)
        what = "end of input" if kind == "end" else repr(value)
        raise ParseError(f"expected a formula, found {what}", pos)


def parse_formula(text: str, alphabet: ObservationSet) -> Formula:
    """Parse `text` into a canonical formula over the declared observations."""
    parser = _Parser(text, alphabet)
    out = parser.parse_or()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected {value!r} after the formula", pos)
    return out
