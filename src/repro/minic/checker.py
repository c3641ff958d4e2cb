"""Semantic checker for the C subset: what would the C compiler catch?

The mutation analysis of Table 1 needs a faithful model of compile-time
error detection in C.  This module parses the driver fragments of the
mutation corpus (a C subset: preprocessor defines, declarations,
functions, statements and full C expressions) and reports the
diagnostics a year-2000 ``gcc -Wall`` build would:

**errors** (always detected)
    syntax errors, use of an undeclared identifier, assignment to a
    non-lvalue, wrong argument count for a known function or
    function-like macro, duplicate definitions in one scope;

**warnings** (detected when ``warnings_detect`` is on, the default)
    implicit declaration of a function (legal in C89, which is why a
    mutated *call* name still compiles — the paper's drivers predate
    C99), macro redefinition.

The checker is deliberately permissive about everything a C compiler
is permissive about: integer literals of any value, ``|`` versus
``||``, wrong-but-declared identifiers, shifts by any amount — these
are exactly the silent failures the paper's experiment quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..relex import LexBaseline
from .lexer import C_KEYWORDS, CLexError, CToken, CTokenKind, tokenize_c

_TYPE_KEYWORDS = frozenset({
    "void", "char", "short", "int", "long", "float", "double",
    "signed", "unsigned", "const", "volatile", "static", "extern",
    "register", "inline", "struct", "union", "enum",
})


class CParseError(Exception):
    """The fragment is not syntactically valid in the C subset."""


@dataclass
class CDiagnostic:
    severity: str     # "error" or "warning"
    message: str
    line: int

    def __str__(self) -> str:
        return f"line {self.line}: {self.severity}: {self.message}"


@dataclass
class Symbol:
    name: str
    kind: str                 # "var", "func", "macro", "macro-func"
    arity: int | None = None  # known parameter count, if any


@dataclass
class CheckResult:
    diagnostics: list[CDiagnostic] = field(default_factory=list)
    #: Names of functions the fragment defines or prototypes — the link
    #: surface the surrounding driver refers to.
    defined_functions: set[str] = field(default_factory=set)
    #: The fragment's tokens, for checks layered on top of this one.
    tokens: list[CToken] = field(default_factory=list)

    @property
    def errors(self) -> list[CDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> list[CDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    def detected(self, warnings_detect: bool = True) -> bool:
        """Would the build surface this (as error, or warning if
        ``warnings_detect``)?"""
        if self.errors:
            return True
        return warnings_detect and bool(self.warnings)


def check_c(source: str,
            externals: dict[str, int | None] | None = None,
            constants: frozenset[str] | set[str] | None = None,
            base: LexBaseline | None = None) -> CheckResult:
    """Check one C fragment.

    ``externals`` maps pre-declared function names to their arity (or
    None when unknown) — the kernel environment (``inb``/``outb``) for
    the C corpus, the generated stub prototypes for the CDevil corpus.
    ``constants`` pre-declares value symbols (the enum constants of a
    generated header).  Raises :class:`CParseError` /
    :class:`~.lexer.CLexError` when the fragment is not syntactically
    valid (mutants that do not parse are excluded from the analysis,
    per the paper's rules).  ``base`` is a lexing baseline for
    :func:`~.lexer.tokenize_c`.
    """
    tokens = tokenize_c(source, base=base)
    checker = _Checker(tokens, externals or {}, constants or set())
    checker.run()
    checker.result.tokens = tokens
    return checker.result


_DEFAULT_EXTERNALS: dict[str, int | None] = {
    "inb": 1, "outb": 2, "inw": 1, "outw": 2, "inl": 1, "outl": 2,
    "insw": 3, "outsw": 3, "insl": 3, "outsl": 3,
    "readl": 1, "writel": 2, "udelay": 1, "printk": None,
    "memcpy": 3, "memset": 3,
}


def kernel_externals() -> dict[str, int | None]:
    """The I/O helpers a Linux 2.2 driver can call without declaring."""
    return dict(_DEFAULT_EXTERNALS)


class _Checker:
    """Single-pass parser + symbol checker."""

    def __init__(self, tokens: list[CToken],
                 externals: dict[str, int | None],
                 constants: frozenset[str] | set[str] = frozenset()):
        self._tokens = tokens
        self._index = 0
        self.result = CheckResult()
        # Scope stack: scopes[0] is the global scope.
        self._scopes: list[dict[str, Symbol]] = [{}]
        for name, arity in externals.items():
            self._scopes[0][name] = Symbol(name, "func", arity)
        for name in constants:
            self._scopes[0][name] = Symbol(name, "macro")

    # ------------------------------------------------------------------
    # Diagnostics and symbols
    # ------------------------------------------------------------------

    def _error(self, message: str, line: int) -> None:
        self.result.diagnostics.append(CDiagnostic("error", message, line))

    def _warning(self, message: str, line: int) -> None:
        self.result.diagnostics.append(
            CDiagnostic("warning", message, line))

    def _declare(self, symbol: Symbol, line: int) -> None:
        scope = self._scopes[-1]
        previous = scope.get(symbol.name)
        if previous is not None:
            if symbol.kind.startswith("macro"):
                self._warning(f"macro {symbol.name!r} redefined", line)
            elif previous.kind == "func" and symbol.kind == "func":
                pass  # redeclaration of a function is legal
            else:
                self._error(f"redefinition of {symbol.name!r}", line)
        scope[symbol.name] = symbol

    def _lookup(self, name: str) -> Symbol | None:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    # ------------------------------------------------------------------
    # Token stream
    # ------------------------------------------------------------------

    @property
    def _current(self) -> CToken:
        return self._tokens[self._index]

    def _advance(self) -> CToken:
        token = self._current
        if token.kind is not CTokenKind.EOF:
            self._index += 1
        return token

    def _check_text(self, text: str) -> bool:
        return self._current.text == text and self._current.kind in (
            CTokenKind.OPERATOR, CTokenKind.PUNCT, CTokenKind.IDENT)

    def _accept(self, text: str) -> bool:
        if self._check_text(text):
            self._advance()
            return True
        return False

    def _expect(self, text: str, context: str) -> None:
        if not self._accept(text):
            raise CParseError(
                f"line {self._current.line}: expected {text!r} {context}, "
                f"found {self._current}")

    def _at_type(self) -> bool:
        return self._current.kind is CTokenKind.IDENT and \
            self._current.text in _TYPE_KEYWORDS

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def run(self) -> None:
        while self._current.kind is not CTokenKind.EOF:
            self._top_level()

    def _top_level(self) -> None:
        token = self._current
        if token.kind is CTokenKind.DIRECTIVE:
            self._advance()
            self._directive(token)
            return
        if self._at_type():
            self._declaration_or_function()
            return
        # Loose statements are allowed so tagged fragments check alone.
        self._statement()

    # ------------------------------------------------------------------
    # Preprocessor
    # ------------------------------------------------------------------

    def _directive(self, token: CToken) -> None:
        text = token.text
        if text.startswith("#include") or text.startswith("#ifdef") or \
                text.startswith("#ifndef") or text.startswith("#endif") or \
                text.startswith("#else") or text.startswith("#undef") or \
                text.startswith("#if") or text.startswith("#pragma"):
            return
        if not text.startswith("#define"):
            raise CParseError(
                f"line {token.line}: unsupported directive {text!r}")
        try:
            body_tokens = tokenize_c(text[len("#define"):])
        except CLexError as error:
            raise CParseError(str(error)) from None
        if not body_tokens or body_tokens[0].kind is not CTokenKind.IDENT:
            raise CParseError(
                f"line {token.line}: malformed #define")
        name = body_tokens[0].text
        if name in C_KEYWORDS:
            raise CParseError(
                f"line {token.line}: cannot #define keyword {name!r}")
        rest = body_tokens[1:-1]  # strip EOF
        # Function-like only when '(' immediately follows the name.
        is_function_like = bool(rest) and rest[0].text == "(" and \
            rest[0].offset == body_tokens[0].offset + len(name)
        param_names: set[str] = set()
        if is_function_like:
            param_names, body = self._parse_macro_params(rest, token.line)
            self._declare(Symbol(name, "macro-func", len(param_names)),
                          token.line)
        else:
            body = rest
            self._declare(Symbol(name, "macro"), token.line)
        # The fragments use every macro they define, so the expansion
        # is compiled: check identifiers in the body now (against the
        # symbols visible so far, like a single expansion would be).
        for body_token in body:
            if body_token.kind is CTokenKind.IDENT and \
                    body_token.text not in C_KEYWORDS and \
                    body_token.text not in param_names:
                if self._lookup(body_token.text) is None:
                    self._error(
                        f"{body_token.text!r} undeclared in macro "
                        f"{name!r}", token.line)

    @staticmethod
    def _parse_macro_params(rest: list[CToken],
                            line: int) -> tuple[set[str], list[CToken]]:
        index = 1  # past '('
        params: set[str] = set()
        expect_name = True
        while index < len(rest) and rest[index].text != ")":
            token = rest[index]
            if expect_name:
                if token.kind is not CTokenKind.IDENT:
                    raise CParseError(
                        f"line {line}: malformed macro parameter list")
                params.add(token.text)
                expect_name = False
            else:
                if token.text != ",":
                    raise CParseError(
                        f"line {line}: malformed macro parameter list")
                expect_name = True
            index += 1
        if index >= len(rest):
            raise CParseError(f"line {line}: unterminated macro "
                              f"parameter list")
        return params, rest[index + 1:]

    # ------------------------------------------------------------------
    # Declarations and functions
    # ------------------------------------------------------------------

    def _skip_type(self) -> None:
        saw = False
        while self._at_type():
            text = self._advance().text
            saw = True
            if text in ("struct", "union", "enum"):
                if self._current.kind is CTokenKind.IDENT:
                    self._advance()
        if not saw:
            raise CParseError(
                f"line {self._current.line}: expected a type")

    def _declaration_or_function(self) -> None:
        self._skip_type()
        while self._accept("*"):
            pass
        name_token = self._current
        if name_token.kind is not CTokenKind.IDENT or \
                name_token.text in C_KEYWORDS:
            raise CParseError(
                f"line {name_token.line}: expected declarator, found "
                f"{name_token}")
        self._advance()
        if self._check_text("("):
            self._function_tail(name_token)
            return
        self._variable_tail(name_token)

    def _function_tail(self, name_token: CToken) -> None:
        self._expect("(", "after function name")
        params: list[str] = []
        if not self._check_text(")"):
            while True:
                if self._accept("void") and self._check_text(")"):
                    break
                self._skip_type()
                while self._accept("*"):
                    pass
                if self._current.kind is CTokenKind.IDENT and \
                        self._current.text not in C_KEYWORDS:
                    params.append(self._advance().text)
                while self._accept("["):
                    self._expect("]", "in array parameter")
                if not self._accept(","):
                    break
        self._expect(")", "after parameters")
        self._declare(Symbol(name_token.text, "func", len(params)),
                      name_token.line)
        self.result.defined_functions.add(name_token.text)
        if self._accept(";"):
            return  # prototype
        self._scopes.append({})
        for param in params:
            self._declare(Symbol(param, "var"), name_token.line)
        self._compound()
        self._scopes.pop()

    def _variable_tail(self, name_token: CToken) -> None:
        while True:
            self._declare(Symbol(name_token.text, "var"), name_token.line)
            while self._accept("["):
                if not self._check_text("]"):
                    self._expression()
                self._expect("]", "in array declarator")
            if self._accept("="):
                self._assignment_expression()
            if self._accept(","):
                while self._accept("*"):
                    pass
                name_token = self._current
                if name_token.kind is not CTokenKind.IDENT:
                    raise CParseError(
                        f"line {name_token.line}: expected declarator")
                self._advance()
                continue
            break
        self._expect(";", "after declaration")

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _compound(self) -> None:
        self._expect("{", "to open block")
        self._scopes.append({})
        while not self._check_text("}"):
            if self._current.kind is CTokenKind.EOF:
                raise CParseError("unexpected end of input in block")
            self._statement()
        self._scopes.pop()
        self._expect("}", "to close block")

    def _statement(self) -> None:
        token = self._current
        if token.kind is CTokenKind.DIRECTIVE:
            self._advance()
            self._directive(token)
            return
        if self._check_text("{"):
            self._compound()
            return
        if self._at_type():
            self._declaration_or_function()
            return
        if self._accept(";"):
            return
        if self._accept("if"):
            self._expect("(", "after 'if'")
            self._expression()
            self._expect(")", "after condition")
            self._statement()
            if self._accept("else"):
                self._statement()
            return
        if self._accept("while"):
            self._expect("(", "after 'while'")
            self._expression()
            self._expect(")", "after condition")
            self._statement()
            return
        if self._accept("do"):
            self._statement()
            self._expect("while", "after do body")
            self._expect("(", "after 'while'")
            self._expression()
            self._expect(")", "after condition")
            self._expect(";", "after do/while")
            return
        if self._accept("for"):
            self._expect("(", "after 'for'")
            if not self._check_text(";"):
                if self._at_type():
                    self._declaration_or_function()
                else:
                    self._expression()
                    self._expect(";", "in for header")
            else:
                self._advance()
            if not self._check_text(";"):
                self._expression()
            self._expect(";", "in for header")
            if not self._check_text(")"):
                self._expression()
            self._expect(")", "after for header")
            self._statement()
            return
        if self._accept("return"):
            if not self._check_text(";"):
                self._expression()
            self._expect(";", "after return")
            return
        if self._accept("break") or self._accept("continue"):
            self._expect(";", "after jump statement")
            return
        if self._accept("goto"):
            if self._current.kind is CTokenKind.IDENT:
                self._advance()
            self._expect(";", "after goto")
            return
        self._expression()
        self._expect(";", "after expression statement")

    # ------------------------------------------------------------------
    # Expressions (precedence climbing); returns lvalue-ness
    # ------------------------------------------------------------------

    def _expression(self) -> bool:
        lvalue = self._assignment_expression()
        while self._accept(","):
            lvalue = self._assignment_expression()
        return lvalue

    _ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                   "<<=", ">>="}

    def _assignment_expression(self) -> bool:
        line = self._current.line
        lvalue = self._conditional_expression()
        if self._current.kind is CTokenKind.OPERATOR and \
                self._current.text in self._ASSIGN_OPS:
            operator = self._advance().text
            if not lvalue:
                self._error(
                    f"left operand of {operator!r} is not an lvalue",
                    line)
            self._assignment_expression()
            return False
        return lvalue

    def _conditional_expression(self) -> bool:
        lvalue = self._binary_expression(0)
        if self._accept("?"):
            self._expression()
            self._expect(":", "in conditional expression")
            self._conditional_expression()
            return False
        return lvalue

    _BINARY_LEVELS = [
        ["||"], ["&&"], ["|"], ["^"], ["&"],
        ["==", "!="], ["<", ">", "<=", ">="],
        ["<<", ">>"], ["+", "-"], ["*", "/", "%"],
    ]

    def _binary_expression(self, level: int) -> bool:
        if level >= len(self._BINARY_LEVELS):
            return self._unary_expression()
        lvalue = self._binary_expression(level + 1)
        operators = self._BINARY_LEVELS[level]
        while self._current.kind is CTokenKind.OPERATOR and \
                self._current.text in operators:
            self._advance()
            self._binary_expression(level + 1)
            lvalue = False
        return lvalue

    def _unary_expression(self) -> bool:
        token = self._current
        if token.kind is CTokenKind.OPERATOR:
            if token.text in ("++", "--"):
                self._advance()
                line = self._current.line
                if not self._unary_expression():
                    self._error(
                        f"operand of {token.text!r} is not an lvalue",
                        line)
                return False
            if token.text in ("!", "~", "+", "-"):
                self._advance()
                self._unary_expression()
                return False
            if token.text == "*":
                self._advance()
                self._unary_expression()
                return True  # dereference yields an lvalue
            if token.text == "&":
                self._advance()
                self._unary_expression()
                return False
        if token.kind is CTokenKind.IDENT and token.text == "sizeof":
            self._advance()
            if self._accept("("):
                if self._at_type():
                    self._skip_type()
                    while self._accept("*"):
                        pass
                else:
                    self._expression()
                self._expect(")", "after sizeof")
            else:
                self._unary_expression()
            return False
        return self._postfix_expression()

    def _postfix_expression(self) -> bool:
        lvalue = self._primary_expression()
        while True:
            if self._accept("["):
                self._expression()
                self._expect("]", "after index")
                lvalue = True
            elif self._check_text("."):
                self._advance()
                if self._current.kind is not CTokenKind.IDENT:
                    raise CParseError(
                        f"line {self._current.line}: expected member name")
                self._advance()
                lvalue = True
            elif self._check_text("->"):
                self._advance()
                if self._current.kind is not CTokenKind.IDENT:
                    raise CParseError(
                        f"line {self._current.line}: expected member name")
                self._advance()
                lvalue = True
            elif self._current.kind is CTokenKind.OPERATOR and \
                    self._current.text in ("++", "--"):
                line = self._current.line
                self._advance()
                if not lvalue:
                    self._error("operand of postfix ++/-- is not an "
                                "lvalue", line)
                lvalue = False
            else:
                return lvalue

    def _primary_expression(self) -> bool:
        token = self._current
        if token.kind in (CTokenKind.NUMBER, CTokenKind.CHAR,
                          CTokenKind.STRING):
            self._advance()
            return False
        if self._accept("("):
            if self._at_type():  # cast
                self._skip_type()
                while self._accept("*"):
                    pass
                self._expect(")", "after cast")
                self._unary_expression()
                return False
            lvalue = self._expression()
            self._expect(")", "after expression")
            return lvalue
        if token.kind is CTokenKind.IDENT:
            if token.text in C_KEYWORDS:
                raise CParseError(
                    f"line {token.line}: unexpected keyword "
                    f"{token.text!r} in expression")
            self._advance()
            if self._check_text("("):
                self._call_tail(token)
                return False
            symbol = self._lookup(token.text)
            if symbol is None:
                self._error(f"{token.text!r} undeclared", token.line)
            return symbol is None or symbol.kind in ("var", "macro")
        raise CParseError(
            f"line {token.line}: expected an expression, found {token}")

    def _call_tail(self, name_token: CToken) -> None:
        self._expect("(", "in call")
        argument_count = 0
        if not self._check_text(")"):
            while True:
                self._assignment_expression()
                argument_count += 1
                if not self._accept(","):
                    break
        self._expect(")", "after call arguments")
        symbol = self._lookup(name_token.text)
        if symbol is None:
            # Legal in C89; every 2.2-era kernel build only warns.
            self._warning(
                f"implicit declaration of function {name_token.text!r}",
                name_token.line)
            return
        if symbol.kind == "var":
            self._error(f"called object {name_token.text!r} is not a "
                        f"function", name_token.line)
            return
        if symbol.arity is not None and symbol.arity != argument_count:
            if symbol.kind == "macro-func":
                self._error(
                    f"macro {name_token.text!r} takes {symbol.arity} "
                    f"argument(s), got {argument_count}",
                    name_token.line)
            else:
                self._warning(
                    f"call of {name_token.text!r} with {argument_count} "
                    f"argument(s), expected {symbol.arity}",
                    name_token.line)
