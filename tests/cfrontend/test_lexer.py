"""Unit tests for the CMini lexer."""

import pytest

from repro.cfrontend.errors import LexError
from repro.cfrontend.lexer import Token, tokenize


def kinds(source):
    return [(t.kind, t.value) for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == "eof"

    def test_identifier(self):
        assert kinds("foo _bar x1") == [
            ("id", "foo"), ("id", "_bar"), ("id", "x1"),
        ]

    def test_keywords_are_distinguished_from_identifiers(self):
        assert kinds("int intx") == [("kw", "int"), ("id", "intx")]

    def test_all_keywords(self):
        for kw in ["int", "float", "void", "if", "else", "while", "for",
                   "do", "return", "break", "continue", "const"]:
            assert kinds(kw) == [("kw", kw)]

    def test_punctuation(self):
        assert kinds("(){}[];,") == [
            ("punct", c) for c in "(){}[];,"
        ]


class TestNumericLiterals:
    def test_decimal_int(self):
        assert kinds("42") == [("int", 42)]

    def test_zero(self):
        assert kinds("0") == [("int", 0)]

    def test_hex_int(self):
        assert kinds("0xFF 0x10") == [("int", 255), ("int", 16)]

    def test_float_with_point(self):
        assert kinds("3.25") == [("float", 3.25)]

    def test_float_leading_dot_digits(self):
        assert kinds(".5") == [("float", 0.5)]

    def test_float_exponent(self):
        assert kinds("1e3 2.5e-2 1E+2") == [
            ("float", 1000.0), ("float", 0.025), ("float", 100.0),
        ]

    def test_float_f_suffix(self):
        assert kinds("1.5f") == [("float", 1.5)]

    def test_int_then_member_like_is_error(self):
        with pytest.raises(LexError):
            tokenize("12abc")

    def test_malformed_hex(self):
        with pytest.raises(LexError):
            tokenize("0x")

    @pytest.mark.parametrize("source", ["0x1G", "0x1g", "0xF_", "0XAz"])
    def test_hex_then_letter_is_error(self, source):
        # Hex literals get the same trailing-letter check as decimals.
        with pytest.raises(LexError) as info:
            tokenize("x = " + source)
        assert (info.value.message, info.value.line, info.value.col) == (
            "malformed numeric literal", 1, 5,
        )


class TestOperators:
    def test_multichar_operators_maximal_munch(self):
        assert kinds("a <<= b") == [
            ("id", "a"), ("op", "<<="), ("id", "b"),
        ]
        assert kinds("a << = b")[1:3] == [("op", "<<"), ("op", "=")]

    def test_comparison_operators(self):
        assert kinds("< <= > >= == !=") == [
            ("op", o) for o in ["<", "<=", ">", ">=", "==", "!="]
        ]

    def test_logical_and_bitwise(self):
        assert kinds("&& || & | ^ ~ !") == [
            ("op", o) for o in ["&&", "||", "&", "|", "^", "~", "!"]
        ]

    def test_increment_decrement(self):
        assert kinds("++ --") == [("op", "++"), ("op", "--")]

    def test_compound_assignment(self):
        for op in ["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="]:
            assert kinds(op) == [("op", op)]


class TestCommentsAndWhitespace:
    def test_line_comment(self):
        assert kinds("a // comment\nb") == [("id", "a"), ("id", "b")]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [("id", "a"), ("id", "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a /* never ends")

    def test_line_numbers_advance(self):
        tokens = tokenize("a\nb\n  c")
        assert [t.line for t in tokens[:-1]] == [1, 2, 3]
        assert tokens[2].col == 3

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a $ b")

    @pytest.mark.parametrize("char", ["\u00b2", "\u0663", "\u00e9", "\u00aa"])
    def test_non_ascii_is_unexpected_character(self, char):
        # The lexical grammar is ASCII: a Unicode digit or letter (which
        # str.isdigit()/isalpha() accept) is a LexError at its position,
        # never a raw ValueError from int().
        with pytest.raises(LexError) as info:
            tokenize("int x;\nint y = " + char + ";")
        assert (info.value.message, info.value.line, info.value.col) == (
            "unexpected character %r" % char, 2, 9,
        )

    def test_non_ascii_inside_identifier_or_after_number(self):
        with pytest.raises(LexError, match=r"1:2: unexpected character"):
            tokenize("a\u00e9")
        with pytest.raises(LexError, match=r"1:2: unexpected character"):
            tokenize("1\u00b2")

    def test_non_ascii_in_comments_is_fine(self):
        assert kinds("a // \u00b2\nb /* \u00e9 */") == [
            ("id", "a"), ("id", "b"),
        ]


class TestTokenEquality:
    def test_tokens_compare_by_kind_and_value(self):
        a = Token("id", "x", 1, 1)
        b = Token("id", "x", 5, 9)
        assert a == b
        assert hash(a) == hash(b)

    def test_repr_mentions_position(self):
        assert "line=2" in repr(Token("id", "x", 2, 7))
