"""Unit tests for the Devil lexer."""

import pytest

from repro.devil.errors import DevilLexError
from repro.devil.lexer import KEYWORDS, Lexer, TokenKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]  # drop EOF


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestBasicTokens:
    def test_identifier(self):
        (token,) = tokenize("sig_reg")[:-1]
        assert token.kind is TokenKind.IDENT
        assert token.text == "sig_reg"

    def test_keywords_are_distinguished(self):
        tokens = tokenize("register foo")
        assert tokens[0].kind is TokenKind.KEYWORD
        assert tokens[1].kind is TokenKind.IDENT

    def test_all_keywords_lex_as_keywords(self):
        for word in KEYWORDS:
            (token,) = tokenize(word)[:-1]
            assert token.kind is TokenKind.KEYWORD, word

    def test_decimal_integer(self):
        (token,) = tokenize("42")[:-1]
        assert token.kind is TokenKind.INT
        assert token.value == 42

    def test_hex_integer(self):
        (token,) = tokenize("0x3C")[:-1]
        assert token.value == 0x3C

    def test_zero_at_end_of_input_is_an_integer(self):
        *_, zero, eof = tokenize("x = 0")
        assert (zero.kind, zero.text, zero.value) == (TokenKind.INT, "0", 0)
        assert eof.kind is TokenKind.EOF

    def test_binary_integer(self):
        (token,) = tokenize("0b1011")[:-1]
        assert token.value == 0b1011

    def test_bit_pattern(self):
        (token,) = tokenize("'1001000.'")[:-1]
        assert token.kind is TokenKind.BITPATTERN
        assert token.text == "1001000."

    def test_bit_pattern_with_all_classes(self):
        (token,) = tokenize("'01.*-'")[:-1]
        assert token.text == "01.*-"

    def test_eof_token_terminates(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF


class TestPunctuation:
    @pytest.mark.parametrize("source,kind", [
        ("@", TokenKind.AT),
        ("#", TokenKind.HASH),
        ("..", TokenKind.DOTDOT),
        ("=", TokenKind.ASSIGN),
        ("==", TokenKind.EQ),
        ("=>", TokenKind.ARROW_WRITE),
        ("<=", TokenKind.ARROW_READ),
        ("<=>", TokenKind.ARROW_BOTH),
        ("*", TokenKind.STAR),
        ("{", TokenKind.LBRACE),
        (";", TokenKind.SEMICOLON),
    ])
    def test_single_punctuation(self, source, kind):
        (token,) = tokenize(source)[:-1]
        assert token.kind is kind

    def test_arrow_both_beats_arrow_read(self):
        assert kinds("<=>") == [TokenKind.ARROW_BOTH]

    def test_range_vs_two_numbers(self):
        assert kinds("6..5") == [TokenKind.INT, TokenKind.DOTDOT,
                                 TokenKind.INT]

    def test_eq_vs_two_assigns(self):
        assert kinds("==") == [TokenKind.EQ]


class TestComments:
    def test_line_comment(self):
        assert texts("foo // comment\nbar") == ["foo", "bar"]

    def test_block_comment(self):
        assert texts("foo /* x\ny */ bar") == ["foo", "bar"]

    def test_unterminated_block_comment(self):
        with pytest.raises(DevilLexError):
            tokenize("/* never closed")


class TestLocations:
    def test_line_and_column(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[0].location.column == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_filename_propagates(self):
        token = tokenize("x", filename="m.devil")[0]
        assert token.location.filename == "m.devil"


class TestErrors:
    def test_unterminated_bit_pattern(self):
        with pytest.raises(DevilLexError):
            tokenize("'101")

    def test_empty_bit_pattern(self):
        with pytest.raises(DevilLexError):
            tokenize("''")

    def test_invalid_bit_pattern_character(self):
        with pytest.raises(DevilLexError):
            tokenize("'1012'")

    def test_stray_character(self):
        with pytest.raises(DevilLexError):
            tokenize("$")

    def test_identifier_starting_with_digit(self):
        with pytest.raises(DevilLexError):
            tokenize("1abc")

    def test_incomplete_hex(self):
        with pytest.raises(DevilLexError):
            tokenize("0x")

    def test_invalid_hex_digits(self):
        with pytest.raises(DevilLexError):
            tokenize("0xZZ")

    @pytest.mark.parametrize("source,column", [("²", 1), ("1²", 2)],
                             ids=["alone", "after_a_digit"])
    def test_non_decimal_digit_is_an_unexpected_character(self, source,
                                                          column):
        with pytest.raises(DevilLexError) as caught:
            tokenize(source)
        assert caught.value.message == "unexpected character '²'"
        assert caught.value.location.column == column

    def test_non_decimal_digit_in_a_spec_is_a_lex_error(self):
        from repro.devil.compiler import compile_spec
        from repro.specs import load_source
        source = load_source("busmouse").replace("@ 0", "@ ²", 1)
        assert source != load_source("busmouse")
        with pytest.raises(DevilLexError, match="unexpected character"):
            compile_spec(source)


class TestFigureOne:
    """The complete Figure 1 specification must tokenize."""

    def test_busmouse_source_tokenizes(self):
        from repro.specs import load_source
        tokens = tokenize(load_source("busmouse"))
        assert tokens[-1].kind is TokenKind.EOF
        assert len(tokens) > 100

    def test_iterator_form_matches_list_form(self):
        source = "device d (p : bit[8] port @ {0..1}) { }"
        assert list(Lexer(source).tokens()) == tokenize(source)
