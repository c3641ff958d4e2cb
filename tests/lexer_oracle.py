"""Reference scanners for the lexer differential tests.

These are the original character-at-a-time Devil and mini-C scanners,
kept verbatim (only renamed) as a test oracle for the regex tokenizers
in ``repro.devil.lexer`` and ``repro.minic.lexer``.  Nothing outside
the tests imports this module.
"""

from __future__ import annotations

from typing import Iterator

from repro.devil.errors import DevilLexError, SourceLocation
from repro.devil.lexer import KEYWORDS, Token, TokenKind
from repro.minic.lexer import CLexError, CToken, CTokenKind

BITPATTERN_CHARS = frozenset("01.*-")

_PUNCTUATION_3 = {"<=>": TokenKind.ARROW_BOTH}
_PUNCTUATION_2 = {
    "..": TokenKind.DOTDOT,
    "==": TokenKind.EQ,
    "=>": TokenKind.ARROW_WRITE,
    "<=": TokenKind.ARROW_READ,
}
_PUNCTUATION_1 = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "@": TokenKind.AT,
    ":": TokenKind.COLON,
    ";": TokenKind.SEMICOLON,
    ",": TokenKind.COMMA,
    "#": TokenKind.HASH,
    "*": TokenKind.STAR,
    "+": TokenKind.PLUS,
    "=": TokenKind.ASSIGN,
}


class OracleLexer:
    """Hand-written scanner producing :class:`Token` objects.

    The scanner is deliberately simple and fully deterministic: the only
    context sensitivity in Devil's lexical grammar is the single-quoted
    bit pattern, which is recognised as one token.
    """

    def __init__(self, source: str, filename: str = "<devil>"):
        self._source = source
        self._filename = filename
        self._pos = 0
        self._line = 1
        self._column = 1

    def _location(self) -> SourceLocation:
        return SourceLocation(self._line, self._column, self._filename)

    def _peek(self, ahead: int = 0) -> str:
        index = self._pos + ahead
        if index >= len(self._source):
            return ""
        return self._source[index]

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos >= len(self._source):
                return
            if self._source[self._pos] == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1
            self._pos += 1

    def _skip_trivia(self) -> None:
        """Skip whitespace and both comment styles."""
        while self._pos < len(self._source):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while self._pos < len(self._source) and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                start = self._location()
                self._advance(2)
                while self._pos < len(self._source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise DevilLexError("unterminated block comment", start)
            else:
                return

    def _lex_bit_pattern(self) -> Token:
        start = self._location()
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            char = self._peek()
            if char == "'":
                self._advance()
                break
            if char == "" or char == "\n":
                raise DevilLexError("unterminated bit pattern", start)
            if char not in BITPATTERN_CHARS:
                raise DevilLexError(
                    f"invalid character {char!r} in bit pattern "
                    f"(allowed: 0 1 . * -)", self._location())
            chars.append(char)
            self._advance()
        if not chars:
            raise DevilLexError("empty bit pattern", start)
        return Token(TokenKind.BITPATTERN, "".join(chars), start)

    def _lex_number(self) -> Token:
        start = self._location()
        begin = self._pos
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            if not self._peek().isalnum():
                raise DevilLexError("incomplete hexadecimal literal", start)
            while self._peek().isalnum():
                self._advance()
            text = self._source[begin:self._pos]
            try:
                value = int(text, 16)
            except ValueError:
                raise DevilLexError(f"invalid hexadecimal literal {text!r}",
                                    start) from None
        elif self._peek() == "0" and self._peek(1) in "bB":
            self._advance(2)
            while self._peek().isalnum():
                self._advance()
            text = self._source[begin:self._pos]
            try:
                value = int(text, 2)
            except ValueError:
                raise DevilLexError(f"invalid binary literal {text!r}",
                                    start) from None
        else:
            while self._peek().isdigit():
                self._advance()
            text = self._source[begin:self._pos]
            value = int(text, 10)
            if self._peek().isalpha() or self._peek() == "_":
                raise DevilLexError(
                    f"identifier may not start with a digit near {text!r}",
                    start)
        return Token(TokenKind.INT, text, start, value=value)

    def _lex_word(self) -> Token:
        start = self._location()
        begin = self._pos
        while self._peek().isalnum() or self._peek() == "_":
            self._advance()
        text = self._source[begin:self._pos]
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        return Token(kind, text, start)

    def next_token(self) -> Token:
        """Return the next token (``EOF`` forever once input is spent)."""
        self._skip_trivia()
        start = self._location()
        char = self._peek()
        if char == "":
            return Token(TokenKind.EOF, "", start)
        if char == "'":
            return self._lex_bit_pattern()
        if char.isdigit():
            return self._lex_number()
        if char.isalpha() or char == "_":
            return self._lex_word()

        three = self._source[self._pos:self._pos + 3]
        if three in _PUNCTUATION_3:
            self._advance(3)
            return Token(_PUNCTUATION_3[three], three, start)
        two = self._source[self._pos:self._pos + 2]
        if two in _PUNCTUATION_2:
            self._advance(2)
            return Token(_PUNCTUATION_2[two], two, start)
        if char in _PUNCTUATION_1:
            self._advance()
            return Token(_PUNCTUATION_1[char], char, start)
        raise DevilLexError(f"unexpected character {char!r}", start)

    def tokens(self) -> Iterator[Token]:
        """Yield every token, ending with a single ``EOF`` token."""
        while True:
            token = self.next_token()
            yield token
            if token.kind is TokenKind.EOF:
                return


# Operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ".",
]
_PUNCTUATION = ["(", ")", "[", "]", "{", "}", ",", ";"]


def oracle_tokenize_c(source: str) -> list[CToken]:
    """Tokenize ``source``; raises :class:`CLexError` on bad input."""
    tokens: list[CToken] = []
    position = 0
    line = 1
    length = len(source)

    def peek(ahead: int = 0) -> str:
        index = position + ahead
        return source[index] if index < length else ""

    while position < length:
        char = source[position]
        if char == "\n":
            line += 1
            position += 1
            continue
        if char in " \t\r":
            position += 1
            continue
        if char == "/" and peek(1) == "/":
            while position < length and source[position] != "\n":
                position += 1
            continue
        if char == "/" and peek(1) == "*":
            end = source.find("*/", position + 2)
            if end < 0:
                raise CLexError(f"line {line}: unterminated comment")
            line += source.count("\n", position, end)
            position = end + 2
            continue
        if char == "#":
            start = position
            # A directive runs to the end of line, honouring \ splices.
            while position < length and source[position] != "\n":
                if source[position] == "\\" and peek(1) == "\n":
                    position += 2
                    line += 1
                    continue
                position += 1
            tokens.append(CToken(CTokenKind.DIRECTIVE,
                                 source[start:position], start, line))
            continue
        if char.isdigit() or (char == "." and peek(1).isdigit()):
            start = position
            while position < length and (source[position].isalnum()
                                         or source[position] in "._"):
                position += 1
            text = source[start:position]
            _validate_number(text, line)
            tokens.append(CToken(CTokenKind.NUMBER, text, start, line))
            continue
        if char.isalpha() or char == "_":
            start = position
            while position < length and (source[position].isalnum()
                                         or source[position] == "_"):
                position += 1
            tokens.append(CToken(CTokenKind.IDENT, source[start:position],
                                 start, line))
            continue
        if char == "'":
            start = position
            position += 1
            while position < length and source[position] != "'":
                if source[position] == "\\":
                    position += 1
                position += 1
            if position >= length:
                raise CLexError(f"line {line}: unterminated char literal")
            position += 1
            text = source[start:position]
            if len(text) < 3:
                raise CLexError(f"line {line}: empty char literal")
            tokens.append(CToken(CTokenKind.CHAR, text, start, line))
            continue
        if char == '"':
            start = position
            position += 1
            while position < length and source[position] != '"':
                if source[position] == "\\":
                    position += 1
                position += 1
            if position >= length:
                raise CLexError(f"line {line}: unterminated string")
            position += 1
            tokens.append(CToken(CTokenKind.STRING,
                                 source[start:position], start, line))
            continue
        for operator in _OPERATORS:
            if source.startswith(operator, position):
                tokens.append(CToken(CTokenKind.OPERATOR, operator,
                                     position, line))
                position += len(operator)
                break
        else:
            if char in _PUNCTUATION:
                tokens.append(CToken(CTokenKind.PUNCT, char, position,
                                     line))
                position += 1
            else:
                raise CLexError(f"line {line}: stray character {char!r}")
    tokens.append(CToken(CTokenKind.EOF, "", length, line))
    return tokens


def _validate_number(text: str, line: int) -> None:
    """Reject ill-formed numeric literals the way a C lexer would."""
    body = text
    # Strip integer suffixes.
    while body and body[-1] in "uUlL":
        body = body[:-1]
    if not body:
        raise CLexError(f"line {line}: bad numeric literal {text!r}")
    try:
        if body.lower().startswith("0x"):
            if len(body) == 2:
                raise ValueError
            int(body, 16)
        elif body.startswith("0") and len(body) > 1 and "." not in body:
            int(body, 8)
        elif "." in body or "e" in body.lower():
            float(body)
        else:
            int(body, 10)
    except ValueError:
        raise CLexError(
            f"line {line}: bad numeric literal {text!r}") from None
