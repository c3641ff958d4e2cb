"""Pipeline driver: the public entry point of the Devil compiler.

Mirrors the paper's toolchain: source → parse → static verification →
backends.  :func:`compile_spec` runs the front end and returns a
:class:`CompiledSpec` from which callers can

* bind executable Python stubs to a simulated bus (:meth:`CompiledSpec.bind`),
* emit the C stub header (:meth:`CompiledSpec.emit_c`), or
* emit a standalone Python stub module (:meth:`CompiledSpec.emit_python`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..relex import LexBaseline
from . import ast
from .checker import check
from .errors import Diagnostic, DiagnosticSink
from .model import ResolvedDevice
from .parser import parse

if TYPE_CHECKING:
    from ..bus import Bus
    from .runtime import DeviceInstance


@dataclass
class CompiledSpec:
    """A successfully verified specification and its artifacts."""

    source: str
    filename: str
    syntax: ast.DeviceDecl
    model: ResolvedDevice
    warnings: list[Diagnostic] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.model.name

    def bind(self, bus: Bus, bases: dict[str, int],
             debug: bool = True,
             composition: str = "cache",
             strategy: str = "interpret",
             shadow_cache: bool = False) -> DeviceInstance:
        """Instantiate executable stubs on ``bus`` at ``bases``.

        ``debug=True`` enables the run-time checks of §3.2, the
        equivalent of compiling with ``DEVIL_DEBUG`` defined.
        ``composition`` selects the shared-register write strategy
        (``"cache"``, Devil's; ``"read-modify-write"`` for the
        ablation benchmark).  ``strategy`` selects how the stubs
        execute: ``"interpret"`` (walk the resolved model per call),
        ``"specialize"`` (partial evaluation into straight-line
        closures at bind time — same semantics, faster calls; see
        :mod:`repro.devil.specialize`).  Any other value raises
        :class:`~repro.devil.errors.DevilRuntimeError`.
        ``shadow_cache=True`` enables the volatility-aware register
        shadow cache: reads of registers whose last raw value is still
        authoritative are served without port I/O (see
        :mod:`repro.devil.plan`).
        """
        from .runtime import DeviceInstance

        return DeviceInstance(self.model, bus, bases, debug=debug,
                              composition=composition,
                              strategy=strategy,
                              shadow_cache=shadow_cache)

    def emit_c(self, prefix: str | None = None, debug: bool = False) -> str:
        """Generate the C stub header (Figure 3c's artifact)."""
        from .codegen.c_backend import generate_c_header
        return generate_c_header(self.model, prefix=prefix, debug=debug)

    def emit_python(self, observe: bool = False) -> str:
        """Generate a standalone Python stub module.

        ``observe=True`` emits :mod:`repro.obs` telemetry hooks (span
        decorators on public stubs, action-record probes); the default
        module has no hooks and no overhead.
        """
        from .codegen.py_backend import generate_python_module
        return generate_python_module(self.model, observe=observe)

    def emit_doc(self) -> str:
        """Generate the Markdown datasheet (§4.1: specs double as
        documentation)."""
        from .docgen import generate_markdown
        return generate_markdown(self.model)


def compile_spec(source: str, filename: str = "<devil>",
                 base: LexBaseline | None = None) -> CompiledSpec:
    """Compile one Devil specification from source text.

    ``base``, a :func:`~repro.devil.lexer.devil_baseline` of a related
    source, lets the lexer re-scan only the edited window.  Raises
    :class:`~repro.devil.errors.DevilParseError` or
    :class:`~repro.devil.errors.DevilCheckError` on invalid input.
    """
    syntax = parse(source, filename, base)
    sink = DiagnosticSink()
    model = check(syntax, sink)
    return CompiledSpec(source, filename, syntax, model,
                        warnings=list(sink.warnings))


def compile_file(path: str) -> CompiledSpec:
    """Compile a ``.devil`` file from disk."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    return compile_spec(source, filename=path)
