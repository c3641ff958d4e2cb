"""Tokenizer for the C subset used by the mutation analysis.

The paper's Table 1 asks, for every single-character mutation of the
hardware operating code, "would the C compiler reject this?".  To
answer that offline we model the relevant front-end of a C compiler:
this lexer covers the token classes that appear in driver code —
identifiers, integer literals (decimal/octal/hex), character and
string literals, the full C operator set, and preprocessor directives
(which are delivered as single DIRECTIVE tokens, one per line).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass


class CTokenKind(enum.Enum):
    IDENT = "identifier"
    NUMBER = "number"
    CHAR = "char literal"
    STRING = "string literal"
    OPERATOR = "operator"
    PUNCT = "punctuation"
    DIRECTIVE = "preprocessor directive"
    EOF = "end of input"


#: C keywords recognised by the subset (delivered as IDENT tokens but
#: never treated as user symbols).
C_KEYWORDS = frozenset({
    "auto", "break", "case", "char", "const", "continue", "default",
    "do", "double", "else", "enum", "extern", "float", "for", "goto",
    "if", "inline", "int", "long", "register", "return", "short",
    "signed", "sizeof", "static", "struct", "switch", "typedef",
    "union", "unsigned", "void", "volatile", "while",
})

# Operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "?", ":", ".",
]


class CLexError(Exception):
    """The text does not form valid C tokens."""


@dataclass(frozen=True)
class CToken:
    kind: CTokenKind
    text: str
    offset: int       # character offset in the source
    line: int

    def __str__(self) -> str:
        return f"{self.kind.value} {self.text!r}"


#: One token after any whitespace and comments, in the order of
#: precedence of the C lexical grammar.  ``odd`` and ``other`` match
#: wherever the others fail, so consecutive matches tile the source:
#: lexical errors, and tokens that start outside ASCII or with a ``.``
#: before a non-ASCII character (see :func:`_odd_token`).
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*"
    r"(?:(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<punct>[()\[\]{},;])"
    r"|(?P<number>\.?\d[\w.]*)"
    r"|(?P<odd>/\*|\.(?=[^\x00-\x7f])|[^\x00-\x7f\W\d]\w*)"
    r"|(?P<operator>" + "|".join(map(re.escape, _OPERATORS)) + ")"
    r"|(?P<directive>\#(?:[^\n\\]|\\\n?)*)"
    r"|(?P<char>'(?:[^'\\]|\\.)+')"
    r"|(?P<string>\"(?:[^\"\\]|\\.)*\")"
    r"|(?P<eof>\Z)"
    r"|(?P<other>.))", re.DOTALL)
_NUMBER_TAIL = re.compile(r"[\w.]*")

_KINDS = {
    "ident": CTokenKind.IDENT, "punct": CTokenKind.PUNCT,
    "number": CTokenKind.NUMBER, "operator": CTokenKind.OPERATOR,
    "directive": CTokenKind.DIRECTIVE, "char": CTokenKind.CHAR,
    "string": CTokenKind.STRING,
}


def tokenize_c(source: str) -> list[CToken]:
    """Tokenize ``source``; raises :class:`CLexError` on bad input."""
    tokens: list[CToken] = []
    line = 1
    for found in _TOKEN.finditer(source):
        group = found.lastgroup
        start, end = found.span(group)
        line += source.count("\n", found.start(), start)
        text = source[start:end]
        kind = _KINDS.get(group)
        if kind is None:
            if group == "eof":
                break
            tokens.append(_odd_token(source, start, end, line))
            continue
        if kind is CTokenKind.NUMBER:
            _validate_number(text, line)
        elif kind is CTokenKind.DIRECTIVE:
            # The token's line is the last one a \-newline splice reaches.
            line += text.count("\n")
        tokens.append(CToken(kind, text, start, line))
    tokens.append(CToken(CTokenKind.EOF, "", len(source), line))
    return tokens


def _odd_token(source: str, start: int, end: int, line: int) -> CToken:
    """Lex the ``odd``/``other`` match ``source[start:end]``, or raise
    the diagnostic of the token that starts there."""
    text = source[start:end]
    char = text[0]
    if source.startswith("/*", start):
        raise CLexError(f"line {line}: unterminated comment")
    if char == "'":
        if source.startswith("''", start):
            raise CLexError(f"line {line}: empty char literal")
        raise CLexError(f"line {line}: unterminated char literal")
    if char == '"':
        raise CLexError(f"line {line}: unterminated string")
    if char.isdigit() or (char == "." and source[end:end + 1].isdigit()):
        # A literal led by a digit outside ASCII never validates.
        text = source[start:_NUMBER_TAIL.match(source, start + 1).end()]
        raise CLexError(f"line {line}: bad numeric literal {text!r}")
    if char.isalpha():
        return CToken(CTokenKind.IDENT, text, start, line)
    if char == ".":
        return CToken(CTokenKind.OPERATOR, text, start, line)
    raise CLexError(f"line {line}: stray character {char!r}")


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


def number_value(text: str) -> int | float:
    """Decode a validated C numeric literal."""
    body = text
    while body and body[-1] in "uUlL":
        body = body[:-1]
    if body.lower().startswith("0x"):
        return int(body, 16)
    if body.startswith("0") and len(body) > 1 and "." not in body:
        return int(body, 8)
    if "." in body or "e" in body.lower():
        return float(body)
    return int(body, 10)
