"""Lexer tests for the chain-spec DSL."""

import pytest

from repro.chain.lexer import Lexer, TokenType
from repro.exceptions import SpecSyntaxError


def tokens_of(text):
    return [(t.type, t.value) for t in Lexer(text).tokens()]


class TestBasics:
    def test_arrow_and_idents(self):
        toks = tokens_of("ACL -> Encrypt")
        assert toks == [
            (TokenType.IDENT, "ACL"),
            (TokenType.ARROW, "->"),
            (TokenType.IDENT, "Encrypt"),
            (TokenType.EOF, None),
        ]

    def test_numbers(self):
        toks = tokens_of("1 2.5 0x1f -3")
        values = [v for t, v in toks if t is TokenType.NUMBER]
        assert values == [1, 2.5, 0x1F, -3]

    def test_strings_and_escapes(self):
        toks = tokens_of(r"'a\'b' " + '"c\\nd"')
        values = [v for t, v in toks if t is TokenType.STRING]
        assert values == ["a'b", "c\nd"]

    def test_comments_skipped(self):
        toks = tokens_of("ACL # a comment -> Encrypt\n")
        assert (TokenType.IDENT, "ACL") in toks
        assert all(v != "Encrypt" for _t, v in toks)

    def test_newline_token_outside_brackets(self):
        toks = tokens_of("a\nb")
        assert (TokenType.NEWLINE, "\n") in toks

    def test_newline_swallowed_inside_brackets(self):
        toks = tokens_of("[a,\nb]")
        assert (TokenType.NEWLINE, "\n") not in toks

    def test_line_continuation(self):
        toks = tokens_of("a \\\n-> b")
        assert (TokenType.ARROW, "->") in toks
        assert (TokenType.NEWLINE, "\n") not in toks


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(SpecSyntaxError):
            Lexer("'abc").tokens()

    def test_unexpected_character(self):
        with pytest.raises(SpecSyntaxError):
            Lexer("a ~ b").tokens()

    @pytest.mark.parametrize("text, column, literal", [
        ("chain z9: ACL(rules=²) -> IPv4Fwd", 21, "²"),
        ("ACL(rules=1²)", 11, "1²"),
        ("ACL(rules=-1.²)", 11, "-1.²"),
        ("ACL(rules=-²)", 11, "-²"),
    ])
    def test_a_digit_int_cannot_read_is_a_syntax_error(
            self, text, column, literal):
        """``str.isdigit`` accepts ``²``, ``int`` does not: the literal
        is refused at its start, as a syntax error, not a ValueError."""
        with pytest.raises(SpecSyntaxError) as caught:
            Lexer("\n" + text).tokens()
        assert (caught.value.line, caught.value.column) == (2, column)
        assert f"bad number literal {literal!r}" in str(caught.value)

    def test_decimal_digits_of_any_script_still_read(self):
        assert tokens_of("x=٣")[2] == (TokenType.NUMBER, 3)

    def test_error_has_position(self):
        try:
            Lexer("abc\n  ~").tokens()
        except SpecSyntaxError as exc:
            assert exc.line == 2
        else:  # pragma: no cover
            pytest.fail("expected SpecSyntaxError")


class TestPunctuation:
    def test_all_single_chars(self):
        toks = tokens_of("= ( ) [ ] { } : , @ $")
        types = [t for t, _v in toks][:-1]
        assert TokenType.ASSIGN in types
        assert TokenType.AT in types
        assert TokenType.DOLLAR in types
        assert len(types) == 11
