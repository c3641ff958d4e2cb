"""Recursive-descent parser for the Devil language.

The grammar covers everything exercised by the paper's figures:

* device declarations parameterized by ranged ports,
* registers with read/write ports, masks, ``pre``/``post``/``set``
  action blocks, explicit bit widths, indexed register constructors and
  their instantiations,
* variables built from bit-range chunks of one or more registers
  (``#`` concatenation), behaviour qualifiers (``volatile``, ``block``,
  ``[read|write] trigger [except SYM | for VALUE]``), ``set`` actions
  and ``serialized as`` clauses,
* structures with conditional serialization,
* boolean, integer, integer-set and enumerated types, plus named
  ``type`` declarations.
"""

from __future__ import annotations

from . import ast
from .errors import DevilParseError, SourceLocation
from ..relex import LexBaseline
from .lexer import Lexer, Token, TokenKind
from .types import EnumDirection


class Parser:
    """Parses one Devil source text into a :class:`ast.DeviceDecl`."""

    def __init__(self, source: str, filename: str = "<devil>",
                 base: LexBaseline | None = None):
        self._tokens = list(Lexer(source, filename, base).tokens())
        self._index = 0

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _location(self) -> SourceLocation:
        return self._current.location

    def _advance(self) -> Token:
        token = self._current
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _check(self, kind: TokenKind) -> bool:
        return self._current.kind is kind

    def _check_keyword(self, word: str) -> bool:
        return self._current.is_keyword(word)

    def _accept(self, kind: TokenKind) -> Token | None:
        if self._check(kind):
            return self._advance()
        return None

    def _accept_keyword(self, word: str) -> Token | None:
        if self._check_keyword(word):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, context: str) -> Token:
        if not self._check(kind):
            raise DevilParseError(
                f"expected {kind.value} {context}, found {self._current}",
                self._location())
        return self._advance()

    def _expect_keyword(self, word: str, context: str) -> Token:
        if not self._check_keyword(word):
            raise DevilParseError(
                f"expected '{word}' {context}, found {self._current}",
                self._location())
        return self._advance()

    def _expect_int(self, context: str) -> int:
        token = self._expect(TokenKind.INT, context)
        assert token.value is not None
        return token.value

    def _expect_ident(self, context: str) -> Token:
        return self._expect(TokenKind.IDENT, context)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def parse_device(self) -> ast.DeviceDecl:
        """Parse a whole specification (types + one device declaration)."""
        leading_types: list[ast.TypeDecl] = []
        while self._check_keyword("type"):
            leading_types.append(self._parse_type_decl())
        location = self._location()
        self._expect_keyword("device", "at start of specification")
        name = self._expect_ident("as device name").text
        self._expect(TokenKind.LPAREN, "after device name")
        params = [self._parse_port_param()]
        while self._accept(TokenKind.COMMA):
            params.append(self._parse_port_param())
        self._expect(TokenKind.RPAREN, "after device parameters")
        self._expect(TokenKind.LBRACE, "to open device body")
        declarations: list[ast.Declaration] = list(leading_types)
        while not self._check(TokenKind.RBRACE):
            declarations.append(self._parse_declaration())
        self._expect(TokenKind.RBRACE, "to close device body")
        if not self._check(TokenKind.EOF):
            raise DevilParseError(
                f"unexpected {self._current} after device declaration",
                self._location())
        return ast.DeviceDecl(name, params, declarations, location)

    # ------------------------------------------------------------------
    # Device parameters
    # ------------------------------------------------------------------

    def _parse_port_param(self) -> ast.PortParam:
        location = self._location()
        name = self._expect_ident("as port parameter name").text
        self._expect(TokenKind.COLON, "after port parameter name")
        self._expect_keyword("bit", "in port parameter type")
        self._expect(TokenKind.LBRACKET, "after 'bit'")
        width = self._expect_int("as port data width")
        self._expect(TokenKind.RBRACKET, "after port data width")
        self._expect_keyword("port", "in port parameter type")
        offsets = [(0, 0)]
        if self._accept(TokenKind.AT):
            self._expect(TokenKind.LBRACE, "after '@' in port range")
            offsets = self._parse_int_ranges("in port offset range")
            self._expect(TokenKind.RBRACE, "to close port offset range")
        return ast.PortParam(name, width, offsets, location)

    def _parse_int_ranges(self, context: str) -> list[tuple[int, int]]:
        ranges = [self._parse_int_range(context)]
        while self._accept(TokenKind.COMMA):
            ranges.append(self._parse_int_range(context))
        return ranges

    def _parse_int_range(self, context: str) -> tuple[int, int]:
        location = self._location()
        low = self._expect_int(context)
        high = low
        if self._accept(TokenKind.DOTDOT):
            high = self._expect_int(context)
        if high < low:
            raise DevilParseError(
                f"reversed range {low}..{high} {context}", location)
        return (low, high)

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    def _parse_declaration(self) -> ast.Declaration:
        if self._check_keyword("register"):
            return self._parse_register_decl()
        if self._check_keyword("variable") or self._check_keyword("private"):
            return self._parse_variable_decl()
        if self._check_keyword("structure"):
            return self._parse_structure_decl()
        if self._check_keyword("type"):
            return self._parse_type_decl()
        if self._check(TokenKind.IDENT) and self._current.text == "mode":
            return self._parse_mode_decl()
        raise DevilParseError(
            f"expected a declaration, found {self._current}",
            self._location())

    def _parse_type_decl(self) -> ast.TypeDecl:
        location = self._location()
        self._expect_keyword("type", "at start of type declaration")
        name = self._expect_ident("as type name").text
        self._expect(TokenKind.ASSIGN, "after type name")
        type_expr = self._parse_type_expr()
        self._expect(TokenKind.SEMICOLON, "after type declaration")
        return ast.TypeDecl(name, type_expr, location)

    def _parse_mode_decl(self) -> ast.ModeDecl:
        location = self._location()
        self._expect_ident("at start of mode declaration")
        names = [self._expect_ident("as mode name").text]
        while self._accept(TokenKind.COMMA):
            names.append(self._expect_ident("as mode name").text)
        self._expect(TokenKind.SEMICOLON, "after mode declaration")
        return ast.ModeDecl(names, location)

    # -- registers ------------------------------------------------------

    def _parse_register_decl(self) -> ast.RegisterDecl:
        location = self._location()
        self._expect_keyword("register", "at start of register declaration")
        name = self._expect_ident("as register name").text
        params: list[ast.IndexParam] = []
        if self._accept(TokenKind.LPAREN):
            params.append(self._parse_index_param())
            while self._accept(TokenKind.COMMA):
                params.append(self._parse_index_param())
            self._expect(TokenKind.RPAREN, "after register parameters")
        self._expect(TokenKind.ASSIGN, "after register name")

        decl = ast.RegisterDecl(name, params=params, location=location)
        self._parse_register_rhs(decl)
        while self._accept(TokenKind.COMMA):
            self._parse_register_attr(decl)
        if self._accept(TokenKind.COLON):
            self._expect_keyword("bit", "in register width")
            self._expect(TokenKind.LBRACKET, "after 'bit'")
            decl.width = self._expect_int("as register width")
            self._expect(TokenKind.RBRACKET, "after register width")
        self._expect(TokenKind.SEMICOLON, "after register declaration")
        return decl

    def _parse_index_param(self) -> ast.IndexParam:
        location = self._location()
        name = self._expect_ident("as register parameter name").text
        self._expect(TokenKind.COLON, "after register parameter name")
        type_expr = self._parse_type_expr()
        return ast.IndexParam(name, type_expr, location)

    def _parse_register_rhs(self, decl: ast.RegisterDecl) -> None:
        """First clause after '=': a port, 'read/write port', or I(23)."""
        if self._check_keyword("read") or self._check_keyword("write"):
            self._parse_register_attr(decl)
            return
        # Either "ident @ off" (port) or "ident ( args )" (instantiation).
        location = self._location()
        name = self._expect_ident("as port or register constructor").text
        if self._check(TokenKind.LPAREN):
            self._advance()
            arguments = [self._expect_int("as constructor argument")]
            while self._accept(TokenKind.COMMA):
                arguments.append(self._expect_int("as constructor argument"))
            self._expect(TokenKind.RPAREN, "after constructor arguments")
            decl.base = ast.RegisterInstantiation(name, arguments, location)
            return
        port = self._finish_port_expr(name, location)
        decl.read_port = port
        decl.write_port = port

    def _finish_port_expr(self, base: str,
                          location: SourceLocation) -> ast.PortExpr:
        """Parse the optional ``@ offset`` clause.

        The offset is a constant, a register-constructor parameter, or
        a ``constant + parameter`` sum (either order), supporting the
        register-array idiom ``base @ 1 + i``.
        """
        offset = 0
        offset_param: str | None = None
        if self._accept(TokenKind.AT):
            if self._check(TokenKind.INT):
                offset = self._expect_int("as port offset")
                if self._accept_plus():
                    offset_param = self._expect_ident(
                        "as offset parameter").text
            else:
                offset_param = self._expect_ident(
                    "as port offset or parameter").text
                if self._accept_plus():
                    offset = self._expect_int("as offset constant")
        return ast.PortExpr(base, offset, offset_param, location)

    def _accept_plus(self) -> bool:
        return self._accept(TokenKind.PLUS) is not None

    def _parse_port_expr(self) -> ast.PortExpr:
        location = self._location()
        base = self._expect_ident("as port name").text
        return self._finish_port_expr(base, location)

    def _parse_register_attr(self, decl: ast.RegisterDecl) -> None:
        location = self._location()
        if self._accept_keyword("read"):
            if decl.read_port is not None and decl.write_port is decl.read_port:
                decl.write_port = None  # the bare port was write-implied
            if decl.read_port is not None and decl.write_port is not decl.read_port:
                raise DevilParseError("duplicate read port clause", location)
            decl.read_port = self._parse_port_expr()
        elif self._accept_keyword("write"):
            if decl.write_port is not None and decl.read_port is decl.write_port:
                decl.read_port = None
            elif decl.write_port is not None:
                raise DevilParseError("duplicate write port clause", location)
            decl.write_port = self._parse_port_expr()
        elif self._accept_keyword("mask"):
            if decl.mask_pattern is not None:
                raise DevilParseError("duplicate mask clause", location)
            token = self._expect(TokenKind.BITPATTERN, "after 'mask'")
            decl.mask_pattern = token.text
        elif self._accept_keyword("pre"):
            decl.pre_actions.extend(self._parse_action_block())
        elif self._accept_keyword("post"):
            decl.post_actions.extend(self._parse_action_block())
        elif self._accept_keyword("set"):
            decl.set_actions.extend(self._parse_action_block())
        elif self._check(TokenKind.IDENT) and self._current.text == "in":
            self._advance()
            if decl.mode is not None:
                raise DevilParseError("duplicate mode clause", location)
            decl.mode = self._expect_ident("as mode name").text
        else:
            raise DevilParseError(
                f"expected register attribute, found {self._current}",
                location)

    # -- variables ------------------------------------------------------

    def _parse_variable_decl(self) -> ast.VariableDecl:
        location = self._location()
        private = self._accept_keyword("private") is not None
        self._expect_keyword("variable", "at start of variable declaration")
        name = self._expect_ident("as variable name").text
        decl = ast.VariableDecl(name, private=private, location=location)

        if self._accept(TokenKind.ASSIGN):
            decl.chunks = [self._parse_chunk()]
            while self._accept(TokenKind.HASH):
                decl.chunks.append(self._parse_chunk())
        while self._accept(TokenKind.COMMA):
            self._parse_variable_attr(decl)
        if self._accept(TokenKind.COLON):
            decl.type_expr = self._parse_type_expr()
        if self._accept_keyword("serialized"):
            self._expect_keyword("as", "after 'serialized'")
            decl.serialization = self._parse_serialization_block()
        self._expect(TokenKind.SEMICOLON, "after variable declaration")
        return decl

    def _parse_chunk(self) -> ast.Chunk:
        location = self._location()
        register = self._expect_ident("as register name in chunk").text
        ranges: list[ast.BitRange] | None = None
        if self._accept(TokenKind.LBRACKET):
            ranges = [self._parse_bit_range()]
            while self._accept(TokenKind.COMMA):
                ranges.append(self._parse_bit_range())
            self._expect(TokenKind.RBRACKET, "after bit range")
        return ast.Chunk(register, ranges, location)

    def _parse_bit_range(self) -> ast.BitRange:
        location = self._location()
        msb = self._expect_int("as bit index")
        lsb = msb
        if self._accept(TokenKind.DOTDOT):
            lsb = self._expect_int("as bit index")
        if lsb > msb:
            raise DevilParseError(
                f"bit range {msb}..{lsb} is reversed (msb first)", location)
        return ast.BitRange(msb, lsb, location)

    def _parse_variable_attr(self, decl: ast.VariableDecl) -> None:
        location = self._location()
        if self._accept_keyword("volatile"):
            decl.behaviors.volatile = True
        elif self._accept_keyword("block"):
            decl.behaviors.block = True
        elif self._accept_keyword("set"):
            decl.set_actions.extend(self._parse_action_block())
        else:
            direction = ast.AccessDirection.BOTH
            if self._accept_keyword("read"):
                direction = ast.AccessDirection.READ
            elif self._accept_keyword("write"):
                direction = ast.AccessDirection.WRITE
            self._expect_keyword("trigger", "in behaviour qualifier")
            spec = ast.TriggerSpec(direction, location=location)
            if self._accept_keyword("except"):
                spec.except_symbol = self._expect_ident(
                    "as neutral value after 'except'").text
            elif self._accept_keyword("for"):
                spec.for_value = self._parse_action_value()
            if decl.behaviors.trigger is not None:
                raise DevilParseError(
                    "duplicate trigger qualifier", location)
            decl.behaviors.trigger = spec

    # -- structures -----------------------------------------------------

    def _parse_structure_decl(self) -> ast.StructureDecl:
        location = self._location()
        self._expect_keyword("structure", "at start of structure declaration")
        name = self._expect_ident("as structure name").text
        self._expect(TokenKind.ASSIGN, "after structure name")
        self._expect(TokenKind.LBRACE, "to open structure body")
        members: list[ast.VariableDecl] = []
        while not self._check(TokenKind.RBRACE):
            members.append(self._parse_variable_decl())
        self._expect(TokenKind.RBRACE, "to close structure body")
        serialization = None
        if self._accept_keyword("serialized"):
            self._expect_keyword("as", "after 'serialized'")
            serialization = self._parse_serialization_block()
        self._expect(TokenKind.SEMICOLON, "after structure declaration")
        return ast.StructureDecl(name, members, serialization, location)

    # -- serialization --------------------------------------------------

    def _parse_serialization_block(self) -> list[ast.SerStmt]:
        self._expect(TokenKind.LBRACE, "to open serialization block")
        statements: list[ast.SerStmt] = []
        while not self._check(TokenKind.RBRACE):
            statements.append(self._parse_ser_stmt())
        self._expect(TokenKind.RBRACE, "to close serialization block")
        return statements

    def _parse_ser_stmt(self) -> ast.SerStmt:
        location = self._location()
        if self._accept_keyword("if"):
            self._expect(TokenKind.LPAREN, "after 'if'")
            variable = self._expect_ident("as condition variable").text
            self._expect(TokenKind.EQ, "in serialization condition")
            value = self._parse_action_value()
            self._expect(TokenKind.RPAREN, "after serialization condition")
            body = self._parse_ser_stmt()
            return ast.SerIf(variable, value, body, location)
        register = self._expect_ident("as register in serialization").text
        # Semicolons separate steps; the one before '}' may be omitted,
        # matching the paper's "{cnt_low; cnt_high}" spelling.
        if not self._check(TokenKind.RBRACE):
            self._expect(TokenKind.SEMICOLON, "after serialization step")
        return ast.SerWrite(register, location)

    # -- actions --------------------------------------------------------

    def _parse_action_block(self) -> list[ast.Action]:
        self._expect(TokenKind.LBRACE, "to open action block")
        actions = [self._parse_action()]
        while self._accept(TokenKind.SEMICOLON):
            if self._check(TokenKind.RBRACE):
                break
            actions.append(self._parse_action())
        self._expect(TokenKind.RBRACE, "to close action block")
        return actions

    def _parse_action(self) -> ast.Action:
        location = self._location()
        target = self._expect_ident("as action target").text
        self._expect(TokenKind.ASSIGN, "in action")
        value = self._parse_action_value()
        return ast.Action(target, value, location)

    def _parse_action_value(self) -> ast.ActionValue:
        location = self._location()
        token = self._current
        if token.kind is TokenKind.INT:
            self._advance()
            assert token.value is not None
            return ast.IntValue(token.value, location)
        if token.kind is TokenKind.STAR:
            self._advance()
            return ast.WildcardValue(location)
        if token.is_keyword("true"):
            self._advance()
            return ast.BoolValue(True, location)
        if token.is_keyword("false"):
            self._advance()
            return ast.BoolValue(False, location)
        if token.kind is TokenKind.IDENT:
            self._advance()
            return ast.SymbolValue(token.text, location)
        if token.kind is TokenKind.LBRACE:
            self._advance()
            fields = [self._parse_struct_field()]
            while self._accept(TokenKind.SEMICOLON):
                if self._check(TokenKind.RBRACE):
                    break
                fields.append(self._parse_struct_field())
            self._expect(TokenKind.RBRACE, "to close structure value")
            return ast.StructValue(fields, location)
        raise DevilParseError(
            f"expected a value, found {self._current}", location)

    def _parse_struct_field(self) -> tuple[str, ast.ActionValue]:
        name = self._expect_ident("as structure field name").text
        self._expect(TokenKind.ARROW_WRITE, "after structure field name")
        return (name, self._parse_action_value())

    # -- types ----------------------------------------------------------

    def _parse_type_expr(self) -> ast.TypeExpr:
        location = self._location()
        if self._accept_keyword("bool"):
            return ast.BoolTypeExpr(location)
        if self._check_keyword("signed"):
            self._advance()
            self._expect_keyword("int", "after 'signed'")
            self._expect(TokenKind.LPAREN, "after 'int'")
            width = self._expect_int("as integer width")
            self._expect(TokenKind.RPAREN, "after integer width")
            return ast.IntTypeExpr(width, signed=True, location=location)
        if self._accept_keyword("int"):
            if self._accept(TokenKind.LPAREN):
                width = self._expect_int("as integer width")
                self._expect(TokenKind.RPAREN, "after integer width")
                return ast.IntTypeExpr(width, signed=False, location=location)
            self._expect(TokenKind.LBRACE, "after 'int'")
            ranges = self._parse_int_ranges("in integer set type")
            self._expect(TokenKind.RBRACE, "to close integer set type")
            return ast.IntSetTypeExpr(ranges, location)
        if self._check(TokenKind.LBRACE):
            return self._parse_enum_type_expr()
        if self._check(TokenKind.IDENT):
            name = self._advance().text
            return ast.NamedTypeExpr(name, location)
        raise DevilParseError(
            f"expected a type, found {self._current}", location)

    def _parse_enum_type_expr(self) -> ast.EnumTypeExpr:
        location = self._location()
        self._expect(TokenKind.LBRACE, "to open enumerated type")
        items = [self._parse_enum_item()]
        while self._accept(TokenKind.COMMA):
            items.append(self._parse_enum_item())
        self._expect(TokenKind.RBRACE, "to close enumerated type")
        return ast.EnumTypeExpr(items, location)

    def _parse_enum_item(self) -> ast.EnumItemExpr:
        location = self._location()
        name = self._expect_ident("as enumerated symbol").text
        if self._accept(TokenKind.ARROW_WRITE):
            direction = EnumDirection.WRITE
        elif self._accept(TokenKind.ARROW_READ):
            direction = EnumDirection.READ
        elif self._accept(TokenKind.ARROW_BOTH):
            direction = EnumDirection.BOTH
        else:
            raise DevilParseError(
                f"expected '=>', '<=' or '<=>' after symbol {name!r}, "
                f"found {self._current}", self._location())
        pattern = self._expect(TokenKind.BITPATTERN,
                               "as enumerated value").text
        return ast.EnumItemExpr(name, pattern, direction, location)


def parse(source: str, filename: str = "<devil>",
          base: LexBaseline | None = None) -> ast.DeviceDecl:
    """Parse a complete Devil specification from ``source``; ``base``
    is a lexing baseline for :class:`~repro.devil.lexer.Lexer`."""
    return Parser(source, filename, base).parse_device()
