"""Text syntax for operator words.

Grammar, loosest to tightest binding:

    expr  := comp (('+' | '/\\') comp)*     unions and meets, left associative
    comp  := power ('.' power)*             composition, right side applied first
    power := atom ('^' INT)*                iterated composition
    atom  := NAME | '(' expr ')'

Names: the operators Delta, delta, gamma, Ext, Int, Nbd, NbdInv and id, each
parsed to its own primitive, and the abbreviations alpha and beta, which name
no operator and expand to their chains (words.ALIASES) at parse time.  Powers
must be positive integers; larger relations are the normalizer's job, so the
parser does not bound the exponent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .words import (
    ALIASES,
    PRIMITIVES,
    Compose,
    Join,
    Meet,
    Power,
    Prim,
    Word,
    WordError,
    word_from_names,
)

__all__ = ["OperatorExpression", "ParseError", "parse_expression"]

_TOKEN = re.compile(r"(?P<name>[A-Za-z]+)|(?P<int>\d+)|(?P<op>/\\|[.^+()])")


class ParseError(ValueError):
    """Syntax error with the offending position in the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


@dataclass(frozen=True)
class OperatorExpression:
    source: str
    word: Word


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def expr(self) -> Word:
        w = self.comp()
        while True:
            tok = self.peek()
            if tok is None or tok[1] not in ("+", "/\\"):
                return w
            _, op, _ = self.take()
            rhs = self.comp()
            w = Join(w, rhs) if op == "+" else Meet(w, rhs)

    def comp(self) -> Word:
        w = self.power()
        while True:
            tok = self.peek()
            if tok is None or tok[1] != ".":
                return w
            _, _, pos = self.take()
            rhs = self.power()
            try:
                w = Compose(w, rhs)
            except WordError as e:
                raise ParseError(str(e), pos) from None

    def power(self) -> Word:
        w = self.atom()
        while True:
            tok = self.peek()
            if tok is None or tok[1] != "^":
                return w
            _, _, caret = self.take()
            kind, value, pos = self.take()
            if kind != "int":
                raise ParseError("expected an integer power", pos)
            k = int(value)
            if k <= 0:
                raise ParseError("power must be a positive integer", pos)
            try:
                w = Power(w, k)
            except WordError as e:
                raise ParseError(str(e), caret) from None

    def atom(self) -> Word:
        kind, value, pos = self.take()
        if kind == "name":
            if value in PRIMITIVES:
                return Prim(value)
            if value in ALIASES:
                return word_from_names(list(ALIASES[value]))
            raise ParseError(f"unknown name {value!r}", pos)
        if value == "(":
            w = self.expr()
            tok = self.peek()
            if tok is None or tok[1] != ")":
                raise ParseError("unbalanced parentheses", pos)
            self.take()
            return w
        raise ParseError(f"expected a name or '(', got {value!r}", pos)


def parse_expression(text: str) -> OperatorExpression:
    """Parse an operator expression, expanding alpha and beta."""
    parser = _Parser(text)
    if parser.peek() is None:
        raise ParseError("empty expression", 0)
    word = parser.expr()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"unexpected {tok[1]!r}", tok[2])
    return OperatorExpression(source=text, word=word)
