"""Tokenizer for the Devil specification language.

The concrete syntax follows the figures of the OSDI 2000 paper: C-style
comments, single-quoted bit patterns such as ``'1001000.'``, the ``@``
port constructor, ``#`` register concatenation, ``..`` ranges, and the
enumerated-type arrows ``=>``, ``<=`` and ``<=>``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator

from .errors import DevilLexError, SourceLocation


class TokenKind(enum.Enum):
    """Lexical categories of the Devil language."""

    IDENT = "identifier"
    KEYWORD = "keyword"
    INT = "integer"
    BITPATTERN = "bit pattern"

    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    AT = "@"
    COLON = ":"
    SEMICOLON = ";"
    COMMA = ","
    HASH = "#"
    STAR = "*"
    DOTDOT = ".."
    PLUS = "+"
    ASSIGN = "="
    EQ = "=="
    ARROW_WRITE = "=>"
    ARROW_READ = "<="
    ARROW_BOTH = "<=>"

    EOF = "end of input"


#: Reserved words.  ``int``, ``bool``, ``signed``, ``bit`` and ``port`` are
#: keywords because they begin type expressions; the behaviour qualifiers
#: and action introducers are keywords because they follow commas where an
#: identifier would be ambiguous.
KEYWORDS = frozenset({
    "device", "register", "variable", "structure", "type", "private",
    "read", "write", "mask", "pre", "post", "set",
    "trigger", "volatile", "block", "except", "for",
    "serialized", "as", "if",
    "int", "signed", "bool", "bit", "port",
    "true", "false",
})

#: Characters allowed inside a quoted bit pattern.  ``.`` marks a bit
#: defined by a device variable, ``*`` and ``-`` mark irrelevant bits, and
#: ``0``/``1`` mark bits forced to a fixed value when written.  (The
#: paper's prose and its figures swap the roles of ``*`` and ``.``; we
#: follow the figures, which are self-consistent across all five example
#: devices — see ``repro.devil.mask``.)
BITPATTERN_CHARS = frozenset("01.*-")

#: Punctuation, spelled by its kind's value (the other kinds' values are
#: descriptive words).
_PUNCTUATION = {kind.value: kind for kind in TokenKind
                if not kind.value[0].isalpha()}

_BIT = "[" + re.escape("".join(sorted(BITPATTERN_CHARS))) + "]"

#: One token after any whitespace and comments.  The alternatives keep
#: the order of precedence of Devil's lexical grammar.  ``odd`` matches
#: wherever the others fail, so consecutive matches tile the source:
#: lexical errors, and words and numbers that start outside ASCII or
#: need a look at the character after them (see :func:`_odd_token`).
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*"
    r"(?:(?P<word>[A-Za-z_]\w*)"
    r"|(?P<punct>" + "|".join(map(re.escape, sorted(
        _PUNCTUATION, key=len, reverse=True))) + ")"
    r"|(?P<dec>(?!0[xX])\d+(?!\w))"
    r"|(?P<radix>0[xX][^\W_]+|0[bB][^\W_]*)"
    rf"|(?P<bits>'{_BIT}+')"
    r"|(?P<eof>\Z)"
    r"|(?P<odd>\d+|[^\W\d]\w*|.))", re.DOTALL)
_BITS = re.compile(_BIT + "*")


@dataclass(frozen=True)
class Token:
    """One lexical unit, with its source text and location."""

    kind: TokenKind
    text: str
    location: SourceLocation
    value: int | None = None  # decoded value for INT tokens

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def __str__(self) -> str:
        if self.kind in (TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.INT):
            return f"{self.kind.value} '{self.text}'"
        if self.kind is TokenKind.BITPATTERN:
            return f"bit pattern '{self.text}'"
        return f"'{self.kind.value}'"


class Lexer:
    """Regex scanner producing :class:`Token` objects.

    The scanner is deliberately simple and fully deterministic: the only
    context sensitivity in Devil's lexical grammar is the single-quoted
    bit pattern, which is recognised as one token.
    """

    def __init__(self, source: str, filename: str = "<devil>"):
        self._source = source
        self._filename = filename

    def tokens(self) -> Iterator[Token]:
        """Yield every token, ending with a single ``EOF`` token."""
        source, filename = self._source, self._filename
        line, line_start = 1, 0
        for found in _TOKEN.finditer(source):
            group = found.lastgroup
            start, end = found.span(group)
            trivia = found.start()
            newline = source.rfind("\n", trivia, start)
            if newline >= 0:
                line += source.count("\n", trivia, newline + 1)
                line_start = newline + 1
            location = SourceLocation(line, start - line_start + 1, filename)
            text = source[start:end]
            if group == "word":
                kind = TokenKind.KEYWORD if text in KEYWORDS \
                    else TokenKind.IDENT
                yield Token(kind, text, location)
            elif group == "punct":
                yield Token(_PUNCTUATION[text], text, location)
            elif group == "dec":
                yield Token(TokenKind.INT, text, location, value=int(text))
            elif group == "radix":
                base, name = (16, "hexadecimal") if text[1] in "xX" \
                    else (2, "binary")
                try:
                    value = int(text, base)
                except ValueError:
                    raise DevilLexError(f"invalid {name} literal {text!r}",
                                        location) from None
                yield Token(TokenKind.INT, text, location, value=value)
            elif group == "bits":
                yield Token(TokenKind.BITPATTERN, text[1:-1], location)
            elif group == "eof":
                yield Token(TokenKind.EOF, "", location)
                return
            else:
                yield _odd_token(source, start, end, location)


def _odd_token(source: str, start: int, end: int,
               location: SourceLocation) -> Token:
    """Lex the ``odd`` match ``source[start:end]``, or raise the
    diagnostic of the token that starts there."""
    text = source[start:end]
    char = text[0]
    if source.startswith("/*", start):
        raise DevilLexError("unterminated block comment", location)
    if char == "'":
        stop = _BITS.match(source, start + 1).end()
        bad = source[stop:stop + 1]
        if bad == "'":
            raise DevilLexError("empty bit pattern", location)
        if bad in ("", "\n"):
            raise DevilLexError("unterminated bit pattern", location)
        raise DevilLexError(
            f"invalid character {bad!r} in bit pattern "
            f"(allowed: 0 1 . * -)",
            SourceLocation(location.line, location.column + stop - start,
                           location.filename))
    if source.startswith(("0x", "0X"), start):
        raise DevilLexError("incomplete hexadecimal literal", location)
    if char.isdecimal():
        follow = source[end:end + 1]
        if follow.isalpha() or follow == "_":
            raise DevilLexError(
                f"identifier may not start with a digit near {text!r}",
                location)
        return Token(TokenKind.INT, text, location, value=int(text))
    if char.isalpha():
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, location)
    raise DevilLexError(f"unexpected character {char!r}", location)


def tokenize(source: str, filename: str = "<devil>") -> list[Token]:
    """Tokenize ``source`` completely; convenience wrapper over Lexer."""
    return list(Lexer(source, filename).tokens())
