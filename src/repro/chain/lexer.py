"""Lexer for the chain-spec DSL.

The paper used ANTLR (120 lines of grammar) to parse NF chain specifications;
this is a dependency-free replacement that scans with one compiled regular
expression. Tokens carry line/column for error reporting.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import List

from repro.exceptions import SpecSyntaxError


class TokenType(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    ARROW = "->"
    ASSIGN = "="
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    LBRACE = "{"
    RBRACE = "}"
    COLON = ":"
    COMMA = ","
    AT = "@"
    DOLLAR = "$"
    NEWLINE = "newline"
    EOF = "eof"


@dataclass
class Token:
    type: TokenType
    value: object
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.type.name}, {self.value!r}, {self.line}:{self.column})"


_SINGLE_CHAR = {
    "=": TokenType.ASSIGN,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    ":": TokenType.COLON,
    ",": TokenType.COMMA,
    "@": TokenType.AT,
    "$": TokenType.DOLLAR,
}


_OPENERS = (TokenType.LPAREN, TokenType.LBRACKET, TokenType.LBRACE)
_CLOSERS = (TokenType.RPAREN, TokenType.RBRACKET, TokenType.RBRACE)

#: a string literal's body, by quote: no newline, and a backslash only
#: before n, t, a backslash or that quote
_BODIES = {"'": r"(?:[^'\\\n]|\\[nt\\'])*", '"': r'(?:[^"\\\n]|\\[nt\\"])*'}
#: Spaces, comments and backslash-newline continuations, then at most one
#: token: one alternative per token kind, tried in this order. ``\d`` is
#: a decimal digit (what ``int`` reads) and ``\w`` is ``str.isalnum`` or
#: ``_``. ``str.isdigit`` also holds for digits ``int`` cannot read
#: (``²``); a literal holding one is an error, found after the match
#: (:func:`_digit_run`).
_TOKEN = re.compile(r"(?:[ \t\r]+|#[^\n]*|\\\n)*(?:" + "|".join((
    r"(?P<hex>-?0[xX][0-9a-fA-F]*)",
    r"(?P<number>-?\d+(?:\.\d+)?)",
    r"(?P<word>\w+)",
    r"(?P<arrow>->)",
    r"(?P<single>[=()\[\]{}:,@$])",
    r"(?P<newline>\n)",
    "(?P<string>" + "|".join(
        quote + body + quote for quote, body in _BODIES.items()) + ")",
    r"(?P<quote>['\"])",
)) + ")?")
_STRING_BODY = {quote: re.compile(body) for quote, body in _BODIES.items()}
_ESCAPE = re.compile(r"\\(.)")
_ESCAPED = {"n": "\n", "t": "\t"}


class Lexer:
    """Tokenizes a chain-spec string.

    Newlines are significant (statement separators) except inside brackets,
    where they are swallowed — matching the DSL's BESS-script heritage.
    One compiled pattern (``_TOKEN``) scans the text token by token.
    """

    def __init__(self, text: str):
        self.text = text

    def tokens(self) -> List[Token]:
        text = self.text
        match = _TOKEN.match
        out: List[Token] = []
        pos = line_start = depth = 0
        line = 1
        while True:
            m = match(text, pos)
            kind = m.lastgroup
            start = m.start(kind) if kind else m.end()
            if start != pos and "\n" in text[pos:start]:
                # backslash-newlines continued the line
                line += text.count("\n", pos, start)
                line_start = text.rfind("\n", pos, start) + 1
            column = start - line_start + 1
            if kind is None:
                if start == len(text):
                    out.append(Token(TokenType.EOF, None, line, column))
                    return out
                raise _unmatched(text, start, line, column)
            pos = m.end()
            if kind == "word":
                first = text[start]
                if first.isdigit():
                    raise _bad_number(text, start, line, column)
                if not (first.isalpha() or first == "_"):
                    raise SpecSyntaxError(
                        f"unexpected character {first!r}", line, column
                    )
                out.append(Token(TokenType.IDENT, m.group(kind), line,
                                 column))
            elif kind == "arrow":
                out.append(Token(TokenType.ARROW, "->", line, column))
            elif kind == "single":
                ch = text[start]
                token_type = _SINGLE_CHAR[ch]
                if token_type in _OPENERS:
                    depth += 1
                elif token_type in _CLOSERS:
                    depth = max(0, depth - 1)
                out.append(Token(token_type, ch, line, column))
            elif kind == "newline":
                if depth == 0:
                    out.append(Token(TokenType.NEWLINE, "\n", line, column))
                line += 1
                line_start = pos
            elif kind == "number":
                literal = m.group(kind)
                if _digit_run(text, start) != pos:
                    raise _bad_number(text, start, line, column)
                try:
                    value: object = (float(literal) if "." in literal
                                     else int(literal))
                except ValueError:
                    raise _bad_number(text, start, line, column) from None
                out.append(Token(TokenType.NUMBER, value, line, column))
            elif kind == "hex":
                literal = m.group(kind)
                try:
                    value = int(literal, 16)
                except ValueError:
                    raise SpecSyntaxError(
                        f"bad hex literal {literal!r}", line, column
                    ) from None
                out.append(Token(TokenType.NUMBER, value, line, column))
            elif kind == "string":
                body = text[start + 1:pos - 1]
                if "\\" in body:
                    body = _ESCAPE.sub(
                        lambda e: _ESCAPED.get(e.group(1), e.group(1)), body
                    )
                out.append(Token(TokenType.STRING, body, line, column))
            else:  # an opening quote with no well-formed string after it
                raise _bad_string(text, start, line, column, line_start)


def _digit_run(text: str, pos: int) -> int:
    """Where a number literal starting at ``pos`` ends when digits are
    what ``str.isdigit`` accepts: an optional ``-``, digits, and at most
    one ``.`` that a digit follows."""
    end = pos + (text[pos] == "-")
    seen_dot = False
    while end < len(text):
        ch = text[end]
        if ch == "." and not seen_dot and text[end + 1:end + 2].isdigit():
            seen_dot = True
        elif not ch.isdigit():
            break
        end += 1
    return end


def _bad_number(text: str, pos: int, line: int,
                column: int) -> SpecSyntaxError:
    literal = text[pos:_digit_run(text, pos)]
    return SpecSyntaxError(f"bad number literal {literal!r}", line, column)


def _unmatched(text: str, pos: int, line: int,
               column: int) -> SpecSyntaxError:
    """The error for a position no token starts at: a ``-`` before a
    digit ``int`` cannot read, or a character the DSL does not use."""
    if text[pos] == "-" and text[pos + 1:pos + 2].isdigit():
        return _bad_number(text, pos, line, column)
    return SpecSyntaxError(f"unexpected character {text[pos]!r}", line, column)


def _bad_string(text: str, pos: int, line: int, column: int,
                line_start: int) -> SpecSyntaxError:
    """Why the string literal opening at ``pos`` is malformed."""
    quote = text[pos]
    end = _STRING_BODY[quote].match(text, pos + 1).end()
    stop = text[end:end + 1]
    if stop == "":
        return SpecSyntaxError("unterminated string literal", line, column)
    if stop == "\n":
        return SpecSyntaxError("newline in string literal", line, column)
    # a backslash whose escape is not one of n, t, \ or the quote
    return SpecSyntaxError(f"bad escape \\{text[end + 1:end + 2]}", line,
                           end - line_start + 1)
