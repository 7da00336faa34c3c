"""The one-pattern lexer scans exactly as the per-character one did.

``CharLexer`` below is the lexer the DSL had before it scanned with one
compiled pattern: ``_peek``/``_advance`` per character. It is kept here
as the oracle, with one fix: a run of digits that ``int``/``float``
cannot read (``²`` is a digit to ``str.isdigit``) raises
``SpecSyntaxError`` at the literal's start rather than ``ValueError``.
For any text, both lexers must give the same tokens (type, value, line,
column) or the same error (message, line, column).
"""

from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.lexer import _SINGLE_CHAR, Lexer, Token, TokenType
from repro.exceptions import SpecSyntaxError


class CharLexer:
    """The lexer as it scanned before: ``_peek``/``_advance`` per
    character, with ``bad number literal`` for a run of digits ``int``
    or ``float`` cannot read."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1
        self._bracket_depth = 0

    def tokens(self) -> List[Token]:
        out: List[Token] = []
        while True:
            token = self._next_token()
            if token is None:
                continue
            out.append(token)
            if token.type is TokenType.EOF:
                return out

    # -- internals ----------------------------------------------------------

    def _peek(self, ahead: int = 0) -> str:
        index = self.pos + ahead
        return self.text[index] if index < len(self.text) else ""

    def _advance(self, count: int = 1) -> str:
        chunk = self.text[self.pos:self.pos + count]
        for ch in chunk:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return chunk

    def _next_token(self) -> Optional[Token]:
        # skip spaces/tabs and comments; backslash-newline continues a line
        while True:
            ch = self._peek()
            if ch in (" ", "\t", "\r"):
                self._advance()
            elif ch == "#":
                while self._peek() not in ("", "\n"):
                    self._advance()
            elif ch == "\\" and self._peek(1) == "\n":
                self._advance(2)
            else:
                break

        line, column = self.line, self.column
        ch = self._peek()

        if ch == "":
            return Token(TokenType.EOF, None, line, column)

        if ch == "\n":
            self._advance()
            if self._bracket_depth > 0:
                return None  # newlines inside brackets are insignificant
            return Token(TokenType.NEWLINE, "\n", line, column)

        if ch == "-" and self._peek(1) == ">":
            self._advance(2)
            return Token(TokenType.ARROW, "->", line, column)

        if ch in "'\"":
            return self._string(ch, line, column)

        if ch.isdigit() or (ch == "-" and self._peek(1).isdigit()):
            return self._number(line, column)

        if ch.isalpha() or ch == "_":
            return self._ident(line, column)

        if ch in _SINGLE_CHAR:
            token_type = _SINGLE_CHAR[ch]
            if token_type in (TokenType.LPAREN, TokenType.LBRACKET, TokenType.LBRACE):
                self._bracket_depth += 1
            elif token_type in (TokenType.RPAREN, TokenType.RBRACKET, TokenType.RBRACE):
                self._bracket_depth = max(0, self._bracket_depth - 1)
            self._advance()
            return Token(token_type, ch, line, column)

        raise SpecSyntaxError(f"unexpected character {ch!r}", line, column)

    def _string(self, quote: str, line: int, column: int) -> Token:
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            ch = self._peek()
            if ch == "":
                raise SpecSyntaxError("unterminated string literal", line, column)
            if ch == "\n":
                raise SpecSyntaxError("newline in string literal", line, column)
            if ch == "\\":
                escape = self._peek(1)
                mapping = {"n": "\n", "t": "\t", "\\": "\\", quote: quote}
                if escape in mapping:
                    chars.append(mapping[escape])
                    self._advance(2)
                    continue
                raise SpecSyntaxError(f"bad escape \\{escape}", self.line, self.column)
            if ch == quote:
                self._advance()
                return Token(TokenType.STRING, "".join(chars), line, column)
            chars.append(self._advance())

    def _number(self, line: int, column: int) -> Token:
        chars: List[str] = []
        if self._peek() == "-":
            chars.append(self._advance())
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            chars.append(self._advance(2))
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                chars.append(self._advance())
            try:
                return Token(TokenType.NUMBER, int("".join(chars), 16), line, column)
            except ValueError:
                raise SpecSyntaxError(f"bad hex literal {''.join(chars)!r}", line, column)
        seen_dot = False
        while self._peek().isdigit() or (self._peek() == "." and not seen_dot):
            if self._peek() == ".":
                if not self._peek(1).isdigit():
                    break  # trailing dot belongs to something else
                seen_dot = True
            chars.append(self._advance())
        text = "".join(chars)
        try:
            value: object = float(text) if seen_dot else int(text)
        except ValueError:
            raise SpecSyntaxError(f"bad number literal {text!r}", line, column)
        return Token(TokenType.NUMBER, value, line, column)

    def _ident(self, line: int, column: int) -> Token:
        chars: List[str] = []
        while self._peek().isalnum() or self._peek() == "_":
            chars.append(self._advance())
        return Token(TokenType.IDENT, "".join(chars), line, column)


def outcome(lexer_class, text):
    try:
        return [(t.type, t.value, t.line, t.column)
                for t in lexer_class(text).tokens()]
    except SpecSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


#: the DSL's own characters, with the digits, quotes, escapes and
#: brackets that steer the scanner, and a few non-ASCII digits/letters
DSL_ALPHABET = (
    " \t\r\n#\\->=()[]{}:,@$'\"._xX0123456789abcdefACLNATBPF"
    "²³¹٣١٥०½Ⅻéß"
)


@settings(max_examples=600, deadline=None)
@given(text=st.text(alphabet=DSL_ALPHABET, max_size=80))
def test_dsl_alphabet_lexes_as_before(text):
    assert outcome(Lexer, text) == outcome(CharLexer, text)


@settings(max_examples=400, deadline=None)
@given(text=st.text(max_size=80))
def test_arbitrary_unicode_lexes_as_before(text):
    assert outcome(Lexer, text) == outcome(CharLexer, text)


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(
    st.one_of(
        st.sampled_from(["ACL", "->", "(", ")", "[", "]", ",", ":", "=",
                         "\n", " ", "\\\n", "# c\n", "'s'", '"a\\"b"',
                         "-", "0x", "0x1F", ".", "1.5", "-3", "rules"]),
        st.text(max_size=3),
    ),
    max_size=24,
))
def test_token_soup_lexes_as_before(parts):
    text = "".join(parts)
    assert outcome(Lexer, text) == outcome(CharLexer, text)


def test_branchy_spec_lexes_as_before():
    spec = (
        "chain chain2: Encrypt -> LB -> [NAT, NAT, NAT] -> IPv4Fwd\n"
        "chain chain4: Dedup -> ACL(rules=2048, x=0x1f, y=-1.5) -> "
        "[{'dst_port': 80}: NAT, default: LB] -> IPv4Fwd  # tail\n"
    )
    assert outcome(Lexer, spec) == outcome(CharLexer, spec)
