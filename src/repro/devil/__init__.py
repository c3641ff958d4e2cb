"""The Devil language toolchain.

Pipeline: source text -> :mod:`~repro.devil.lexer` ->
:mod:`~repro.devil.parser` (AST in :mod:`~repro.devil.ast`) ->
:mod:`~repro.devil.checker` (the §3.1 verification rules, producing the
resolved :mod:`~repro.devil.model`) -> the C header backend
(:mod:`~repro.devil.codegen.c_backend`) or executable stubs: the
interpreting runtime (:mod:`~repro.devil.runtime`) and the bind-time
specializer (:mod:`~repro.devil.specialize`).
"""

from .compiler import CompiledSpec, compile_file, compile_spec
from .errors import (
    DevilCheckError,
    DevilCodegenError,
    DevilError,
    DevilLexError,
    DevilParseError,
    DevilRuntimeError,
)

__all__ = [
    "CompiledSpec",
    "DevilCheckError",
    "DevilCodegenError",
    "DevilError",
    "DevilLexError",
    "DevilParseError",
    "DevilRuntimeError",
    "compile_file",
    "compile_spec",
]
