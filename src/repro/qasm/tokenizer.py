"""Tokenizer for the OpenQASM 2.0 subset QRIO jobs are written in.

Job circuits enter QRIO as QASM files uploaded through the visualizer, so
the library ships a small, dependency-free OpenQASM 2.0 front end.  The
tokenizer produces a flat token stream; :mod:`repro.qasm.parser` turns that
stream into a :class:`repro.circuits.QuantumCircuit`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.utils.exceptions import QASMError


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    Attributes
    ----------
    kind:
        One of ``ID``, ``NUMBER``, ``STRING``, ``SYMBOL``, ``ARROW``.
    text:
        The raw token text.
    line:
        1-based source line, used for error messages.
    """

    kind: str
    text: str
    line: int


_TOKEN_PATTERN = re.compile(
    r"""
    (?P<COMMENT>//[^\n]*)
  | (?P<STRING>"[^"\n]*")
  | (?P<NUMBER>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<ARROW>->)
  | (?P<ID>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<SYMBOL>[{}()\[\];,+\-*/^])
  | (?P<NEWLINE>\n)
  | (?P<WHITESPACE>[ \t\r]+)
  | (?P<MISMATCH>.)
    """,
    re.VERBOSE,
)


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source`` into a list of :class:`Token`.

    Comments and whitespace are dropped.  Any unrecognised character raises
    :class:`~repro.utils.exceptions.QASMError` with the offending line number.
    """
    tokens: List[Token] = []
    line = 1
    for match in _TOKEN_PATTERN.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "NEWLINE":
            line += 1
            continue
        if kind in ("WHITESPACE", "COMMENT"):
            continue
        if kind == "MISMATCH":
            raise QASMError(f"Unexpected character {text!r} on line {line}")
        tokens.append(Token(kind, text, line))
    return tokens


class TokenStream:
    """Cursor over a token list with the small lookahead the parser needs."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    def peek(self) -> Token:
        """Return the next token without consuming it."""
        if self._index >= len(self._tokens):
            raise QASMError("Unexpected end of QASM input")
        return self._tokens[self._index]

    def at_end(self) -> bool:
        """``True`` when every token has been consumed."""
        return self._index >= len(self._tokens)

    def advance(self) -> Token:
        """Consume and return the next token."""
        token = self.peek()
        self._index += 1
        return token

    def expect(self, text: str) -> Token:
        """Consume the next token, requiring its text to equal ``text``."""
        token = self.advance()
        if token.text != text:
            raise QASMError(
                f"Expected {text!r} on line {token.line}, found {token.text!r}"
            )
        return token

    def accept(self, text: str) -> bool:
        """Consume the next token if its text equals ``text``."""
        if not self.at_end() and self.peek().text == text:
            self._index += 1
            return True
        return False

    def expect_kind(self, kind: str) -> Token:
        """Consume the next token, requiring it to be of ``kind``."""
        token = self.advance()
        if token.kind != kind:
            raise QASMError(
                f"Expected a {kind} token on line {token.line}, found {token.text!r}"
            )
        return token
