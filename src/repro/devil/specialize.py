"""Bind-time stub specialization: straight-line closures per variable.

The paper's headline performance claim (§4.3) is that Devil stubs have
no execution overhead because the compiler folds masks, shifts and
addresses into straight-line code.  :mod:`repro.devil.runtime`
re-interprets the resolved model on every call; this module is the
repository's one compiled Python lowering, the analogue of the C
header :mod:`repro.devil.codegen.c_backend` emits: at
``bind(strategy="specialize")`` time it partially evaluates the
:class:`~repro.devil.model.ResolvedDevice` against the concrete base
addresses and emits one Python closure per stub, with

* register masks (AND/OR constants),
* chunk shifts and widths,
* *absolute* port addresses (base + offset folded to one literal),
* enum encode/decode tables, trigger-neutral values, and
* the debug/release check variants

all resolved to literals in generated source that is ``exec``-ed once
and cached per ``(model, bases, debug, composition)``.

The specialized closures share the :class:`DeviceInstance`'s mutable
state (register/structure caches, memory variables, ``_last_written``,
transactions), so mixing specialized stubs with the generic
:meth:`DeviceInstance.get`/:meth:`~DeviceInstance.set` API — or with
:meth:`~DeviceInstance.transaction` blocks — behaves exactly like the
interpreter.  Semantics parity is bit-exact: identical bus traces,
identical :class:`~repro.bus.IoAccounting` counters, and identical
:class:`~repro.devil.errors.DevilRuntimeError` messages.  The fast
path is inlined; every rarely-taken path (illegal values, unusual
types, open transactions) delegates back to the interpreter so the two
execution strategies cannot drift apart.
"""

from __future__ import annotations

import threading

from .errors import DevilRuntimeError, SourceLocation
from .plan import access_plan
from .model import (
    ParamRef,
    ResolvedAction,
    ResolvedDevice,
    ResolvedRegister,
    ResolvedValue,
    ResolvedVariable,
    SerStep,
    VarRef,
    Wildcard,
    stub_catalog,
)
from .types import BoolType, EnumType, IntSetType, IntType

#: Sentinel distinguishing "absent" from any legal table value.
_MISSING = object()


def _struct_args_error(name: str, members, values, location) -> None:
    """Raise the interpreter's structure-argument errors verbatim."""
    missing = set(members) - set(values)
    if missing:
        raise DevilRuntimeError(
            f"structure write of {name!r} must provide every member "
            f"(missing: {sorted(missing)})", location)
    unknown = set(values) - set(members)
    raise DevilRuntimeError(
        f"unknown member(s) {sorted(unknown)} in structure write "
        f"of {name!r}", location)


def _raise_param(name: str, location) -> None:
    raise DevilRuntimeError(
        f"unsubstituted constructor parameter {name!r}", location)


class _Specializer:
    """Generates the ``_factory(_I)`` source for one specialization key.

    The factory takes a bound :class:`DeviceInstance`, captures its hot
    state (bus methods, caches) in closure cells, defines one function
    per stub and returns the dict of public stubs.  Compilation happens
    once per key; running the factory per instance is cheap.
    """

    def __init__(self, model: ResolvedDevice, bases: dict[str, int],
                 debug: bool, composition: str,
                 instrumented: bool = False,
                 shadow_cache: bool = False):
        self.model = model
        self.bases = dict(bases)
        self.debug = debug
        self.composition = composition
        #: When True, getters of fully-cacheable variables test the
        #: instance's shadow-validity set and serve reads straight from
        #: the register cache; register accesses maintain the set per
        #: the static access plan.  Off, no shadow code is emitted at
        #: all — the source is byte-identical to the pre-shadow output.
        self.shadow_cache = shadow_cache
        self.plan = access_plan(model)
        #: When True (telemetry enabled at bind time), every action
        #: site additionally emits an ``_obs_act(kind, target)`` probe
        #: mirroring the interpreter's ``_run_actions`` recording, so
        #: span action streams are identical across strategies.  The
        #: uninstrumented source is byte-identical to a telemetry-free
        #: build.
        self.instrumented = instrumented
        self.lines: list[str] = []
        self._indent = 0
        #: Objects injected into the exec globals (tables, locations...).
        self.namespace: dict[str, object] = {
            "_DRE": DevilRuntimeError,
            "_MISS": _MISSING,
            "_vars": model.variables,
            "_struct_args_error": _struct_args_error,
            "_raise_param": _raise_param,
        }
        self._locs: dict[SourceLocation, int] = {}
        self._loc_list: list[SourceLocation] = []
        self.namespace["_locs"] = self._loc_list
        #: The public stubs the factory returns, in
        #: :func:`~repro.devil.model.stub_catalog` order.
        self.stub_names: list[str] = []

    # -- low-level emission -------------------------------------------

    def _w(self, text: str = "") -> None:
        prefix = "    " * self._indent if text else ""
        self.lines.append(prefix + text)

    def _push(self) -> None:
        self._indent += 1

    def _pop(self) -> None:
        self._indent -= 1

    def _loc(self, location: SourceLocation) -> str:
        index = self._locs.get(location)
        if index is None:
            index = len(self._loc_list)
            self._locs[location] = index
            self._loc_list.append(location)
        return f"_locs[{index}]"

    def _structure_registers(self, name: str) -> list[str]:
        structure = self.model.structures[name]
        ordered: list[str] = []
        for member_name in structure.members:
            for chunk in self.model.variables[member_name].chunks:
                if chunk.register not in ordered:
                    ordered.append(chunk.register)
        return ordered

    # -- port folding -------------------------------------------------

    def _address(self, port: tuple[str, int]) -> int:
        base, offset = port
        return self.bases[base] + offset

    def _port_width(self, port: tuple[str, int]) -> int:
        return self.model.params[port[0]].data_width

    # -- enum / set tables --------------------------------------------

    def _tables_for(self, variable: ResolvedVariable) -> None:
        var_type = variable.type
        name = variable.name
        if isinstance(var_type, EnumType):
            # First match wins, exactly like the interpreter's linear
            # scans (EnumType.item / EnumType.decode).  A name whose
            # first occurrence is read-only stays off the fast path so
            # the slow path can raise the interpreter's error.
            encode_table: dict[str, int] = {}
            seen_names = set()
            for item in var_type.items:
                if item.name in seen_names:
                    continue
                seen_names.add(item.name)
                if item.direction.writable:
                    encode_table[item.name] = item.value
            decode_table: dict[int, str] = {}
            for item in var_type.readable_items:
                if item.value not in decode_table:
                    decode_table[item.value] = item.name
            self.namespace.setdefault(f"_ENC_{name}", encode_table)
            self.namespace.setdefault(f"_DEC_{name}", decode_table)
        elif isinstance(var_type, IntSetType):
            self.namespace.setdefault(f"_SET_{name}",
                                      frozenset(var_type.values))

    # -- action lowering ----------------------------------------------

    def _value_expr(self, value: ResolvedValue, context: dict[str, str],
                    loc_expr: str) -> str:
        if isinstance(value, Wildcard):
            return "0"
        if isinstance(value, ParamRef):
            return f"_raise_param({value.name!r}, {loc_expr})"
        if isinstance(value, VarRef):
            if value.name in context:
                return context[value.name]
            return f"_lwget({value.name!r}, {loc_expr})"
        # bool before int: True is an int.
        if isinstance(value, (bool, int, str)):
            return repr(value)
        raise AssertionError(f"unexpected action value {value!r}")

    def _emit_action(self, action: ResolvedAction,
                     context: dict[str, str],
                     kind: str = "reg-set") -> None:
        loc_expr = self._loc(action.location)
        if self.instrumented:
            self._w(f"_obs_act({kind!r}, {action.target!r})")
        if action.target_kind == "structure":
            assert isinstance(action.value, dict)
            if action.target in self.model.structures and \
                    self.model.structure_writable(action.target):
                arguments = ", ".join(
                    f"{member}={self._value_expr(inner, context, loc_expr)}"
                    for member, inner in action.value.items())
                self._w(f"set_{action.target}({arguments})")
            else:
                # The interpreter calls set_structure without checking
                # writability; no specialized setter exists, so keep the
                # interpreted path (and its errors).
                items = ", ".join(
                    f"{member!r}: "
                    f"{self._value_expr(inner, context, loc_expr)}"
                    for member, inner in action.value.items())
                self._w(f"_I.set_structure({action.target!r}, "
                        f"{{{items}}})")
            return
        expr = self._value_expr(action.value, context, loc_expr)
        target = self.model.variables.get(action.target)
        if target is not None and self.model.writable(target):
            self._w(f"set_{action.target}({expr})")
        else:
            # No specialized setter exists; the interpreter path raises
            # (or handles) exactly like an interpreted action would.
            self._w(f"_set({action.target!r}, {expr})")

    def _emit_actions(self, actions: list[ResolvedAction],
                      context: dict[str, str],
                      kind: str = "reg-set") -> None:
        for action in actions:
            self._emit_action(action, context, kind)

    # -- debug checks -------------------------------------------------

    def _emit_mode_check(self, register: ResolvedRegister) -> None:
        if not self.debug or register.mode is None:
            return
        message = (f"register {register.name!r} is only addressable in "
                   f"mode {register.mode!r}, but the device is in %r")
        self._w("_dm = _mem.get('device_mode')")
        self._w(f"if _dm != {register.mode!r}:")
        self._push()
        self._w(f"raise _DRE({message!r} % (_dm,), "
                f"{self._loc(register.location)})")
        self._pop()

    # -- raw register access ------------------------------------------

    def _emit_register_read(self, register: ResolvedRegister,
                            context: dict[str, str]) -> None:
        port = register.read_port
        assert port is not None
        self._emit_mode_check(register)
        self._emit_actions(register.pre_actions, context, "pre")
        self._w(f"raw_{register.name} = "
                f"_read({self._address(port):#x}, {self._port_width(port)})")
        self._emit_shadow_update(register, read=True)
        self._emit_actions(register.post_actions, context, "post")
        self._emit_actions(register.set_actions, context)
        # The interpreter caches the full raw value after the actions.
        self._w(f"_rc[{register.name!r}] = raw_{register.name}")

    def _emit_register_write(self, register: ResolvedRegister,
                             composed: str,
                             context: dict[str, str]) -> None:
        port = register.write_port
        assert port is not None
        name = register.name
        self._w(f"_w_{name} = {composed}")
        self._emit_mode_check(register)
        self._emit_actions(register.pre_actions, context, "pre")
        forced = register.mask.forced_value
        on_bus = f"_w_{name} | {forced:#x}" if forced else f"_w_{name}"
        self._w(f"_write({on_bus}, {self._address(port):#x}, "
                f"{self._port_width(port)})")
        self._emit_shadow_update(register, read=False)
        self._emit_actions(register.post_actions, context, "post")
        self._emit_actions(register.set_actions, context)
        self._w(f"_rc[{name!r}] = _w_{name}")

    def _emit_shadow_update(self, register: ResolvedRegister,
                            read: bool) -> None:
        """Shadow-validity maintenance after a bus access (plan-driven)."""
        if not self.shadow_cache:
            return
        plan = self.plan[register.name]
        barrier = plan.read_barrier if read else plan.write_barrier
        if barrier:
            self._w("_sv.clear()")
        elif plan.read_elidable:
            self._w(f"_sv.add({register.name!r})")

    def _emit_rmw_refresh(self, register: ResolvedRegister,
                          context: dict[str, str]) -> None:
        """Ablation strategy: refresh neighbour bits from the device."""
        if self.composition == "read-modify-write" and \
                register.readable and \
                len(self.model.variables_of_register(register.name)) > 1:
            self._emit_register_read(register, {})
        del context  # the interpreter's refresh read runs with {}

    # -- value (de)composition ----------------------------------------

    def _extract_expr(self, source: str, msb: int, lsb: int,
                      source_width: int) -> str:
        """Extract bits lsb..msb of ``source`` (a value < 2**source_width)."""
        width = msb - lsb + 1
        mask = (1 << width) - 1
        if lsb == 0 and width >= source_width:
            return source
        if lsb == 0:
            return f"({source} & {mask:#x})"
        if msb == source_width - 1:
            return f"({source} >> {lsb})"
        return f"(({source} >> {lsb}) & {mask:#x})"

    def _assemble_expr(self, variable: ResolvedVariable,
                       raw_of) -> str:
        """MSB-first chunk concatenation; ``raw_of(register)`` gives the
        raw-value expression of one register."""
        parts = []
        offset = variable.width
        for chunk in variable.chunks:
            offset -= chunk.width
            register = self.model.registers[chunk.register]
            extract = self._extract_expr(raw_of(chunk.register),
                                         chunk.msb, chunk.lsb,
                                         register.width)
            parts.append(f"({extract} << {offset})" if offset else extract)
        return " | ".join(parts) if parts else "0"

    def _compose_var_write(self, register: ResolvedRegister,
                           writing: ResolvedVariable,
                           raw_expr: str = "raw") -> str:
        self_bits = 0
        inserts = []
        for chunk, value_lsb in writing.chunks_of(register.name):
            chunk_mask = (1 << chunk.width) - 1
            self_bits |= chunk_mask << chunk.lsb
            extract = self._extract_expr(raw_expr,
                                         value_lsb + chunk.width - 1,
                                         value_lsb, writing.width)
            inserts.append(f"({extract} << {chunk.lsb})"
                           if chunk.lsb else extract)
        neutral_bits, neutral_value = self._neutral_of(
            register, {writing.name})
        keep = register.mask.variable_bits & ~self_bits & ~neutral_bits
        parts = []
        if keep:
            parts.append(f"(_rc.get({register.name!r}, 0) & {keep:#x})")
        parts.extend(inserts)
        if neutral_value:
            parts.append(f"{neutral_value:#x}")
        return " | ".join(parts) if parts else "0"

    def _compose_struct_write(self, register: ResolvedRegister,
                              members: list[ResolvedVariable]) -> str:
        member_names = {m.name for m in members}
        written = 0
        parts = []
        for member in members:
            for chunk, value_lsb in member.chunks_of(register.name):
                chunk_mask = (1 << chunk.width) - 1
                written |= chunk_mask << chunk.lsb
                extract = self._extract_expr(f"_u[{member.name!r}]",
                                             value_lsb + chunk.width - 1,
                                             value_lsb, member.width)
                parts.append(f"({extract} << {chunk.lsb})"
                             if chunk.lsb else extract)
        neutral_bits, neutral_value = self._neutral_of(
            register, member_names)
        keep = register.mask.variable_bits & ~written & ~neutral_bits
        expr = []
        if keep:
            expr.append(f"(_rc.get({register.name!r}, 0) & {keep:#x})")
        expr.extend(parts)
        if neutral_value:
            expr.append(f"{neutral_value:#x}")
        return " | ".join(expr) if expr else "0"

    def _neutral_of(self, register: ResolvedRegister,
                    excluded: set[str]) -> tuple[int, int]:
        """Folded trigger-neutral bits of the register's neighbours."""
        neutral_bits = 0
        neutral_value = 0
        for neighbour in self.model.variables_of_register(register.name):
            if neighbour.name in excluded:
                continue
            if neighbour.behaviors.write_triggers and \
                    neighbour.trigger_neutral_raw is not None:
                for chunk, value_lsb in neighbour.chunks_of(register.name):
                    chunk_mask = (1 << chunk.width) - 1
                    neutral_bits |= chunk_mask << chunk.lsb
                    field = (neighbour.trigger_neutral_raw >> value_lsb) \
                        & chunk_mask
                    neutral_value |= field << chunk.lsb
        return neutral_bits, neutral_value

    # -- encode / decode ----------------------------------------------

    def _emit_encode(self, variable: ResolvedVariable,
                     value_expr: str = "value",
                     target: str = "raw") -> None:
        """``target = encode(value_expr)``.

        The fast path covers exactly the values on which debug and
        release encoding agree and succeed; everything else delegates to
        ``DeviceInstance._encode`` for identical results and errors.
        """
        var_type = variable.type
        name = variable.name
        self._tables_for(variable)
        if isinstance(var_type, BoolType):
            self._w(f"if isinstance({value_expr}, bool) "
                    f"or {value_expr} == 0 or {value_expr} == 1:")
            self._push()
            self._w(f"{target} = 1 if {value_expr} else 0")
            self._pop()
            self._w("else:")
            self._push()
            self._w(f"{target} = _enc({name!r}, {value_expr})")
            self._pop()
        elif isinstance(var_type, EnumType):
            self._w(f"{target} = _ENC_{name}.get({value_expr}, _MISS) "
                    f"if type({value_expr}) is str else _MISS")
            self._w(f"if {target} is _MISS:")
            self._push()
            self._w(f"{target} = _enc({name!r}, {value_expr})")
            self._pop()
        elif isinstance(var_type, IntSetType):
            self._w(f"if type({value_expr}) is int "
                    f"and {value_expr} in _SET_{name}:")
            self._push()
            self._w(f"{target} = {value_expr}")
            self._pop()
            self._w("else:")
            self._push()
            self._w(f"{target} = _enc({name!r}, {value_expr})")
            self._pop()
        elif isinstance(var_type, IntType):
            self._w(f"if type({value_expr}) is int and "
                    f"{var_type.minimum} <= {value_expr} "
                    f"<= {var_type.maximum}:")
            self._push()
            if var_type.signed:
                mask = (1 << var_type.width) - 1
                self._w(f"{target} = {value_expr} & {mask:#x}")
            else:
                self._w(f"{target} = {value_expr}")
            self._pop()
            self._w("else:")
            self._push()
            self._w(f"{target} = _enc({name!r}, {value_expr})")
            self._pop()
        else:
            # Unknown type: interpret.
            self._w(f"{target} = _enc({name!r}, {value_expr})")

    def _emit_decode(self, variable: ResolvedVariable, raw_expr: str,
                     target: str) -> None:
        """``target = decode(raw_expr)`` (raw_expr < 2**width)."""
        var_type = variable.type
        name = variable.name
        self._tables_for(variable)
        if isinstance(var_type, BoolType):
            self._w(f"{target} = bool({raw_expr})")
        elif isinstance(var_type, EnumType):
            if raw_expr != target and not raw_expr.isidentifier():
                self._w(f"_r = {raw_expr}")
                raw_expr = "_r"
            self._w(f"{target} = _DEC_{name}.get({raw_expr}, _MISS)")
            self._w(f"if {target} is _MISS:")
            self._push()
            self._w(f"{target} = _dec({name!r}, {raw_expr})")
            self._pop()
        elif isinstance(var_type, IntSetType):
            self._w(f"{target} = {raw_expr}")
            self._w(f"if {target} not in _SET_{name}:")
            self._push()
            self._w(f"{target} = _dec({name!r}, {target})")
            self._pop()
        elif isinstance(var_type, IntType) and var_type.signed:
            half = 1 << (var_type.width - 1)
            full = 1 << var_type.width
            self._w(f"{target} = {raw_expr}")
            self._w(f"if {target} >= {half:#x}:")
            self._push()
            self._w(f"{target} = {target} - {full:#x}")
            self._pop()
        elif isinstance(var_type, IntType):
            self._w(f"{target} = {raw_expr}")
        else:
            self._w(f"{target} = _dec({name!r}, {raw_expr})")

    # -- stub emitters ------------------------------------------------

    def _emit_memory_accessors(self, variable: ResolvedVariable) -> None:
        name = variable.name
        message = f"memory variable {name!r} read before initialisation"
        self._w(f"def get_{name}():")
        self._push()
        self._w("if _I._txn is not None:")
        self._push()
        self._w("_flush()")
        self._pop()
        self._w(f"if {name!r} in _mem:")
        self._push()
        self._w(f"return _mem[{name!r}]")
        self._pop()
        self._w(f"raise _DRE({message!r}, {self._loc(variable.location)})")
        self._pop()
        self._w()
        self._w(f"def set_{name}(value):")
        self._push()
        # The interpreter encodes (and so validates) memory writes, then
        # stores the abstract value without running set-actions.
        self._emit_encode(variable)
        self._w(f"_mem[{name!r}] = value")
        self._w(f"_lw[{name!r}] = value")
        self._pop()
        self._w()

    def _emit_getter(self, variable: ResolvedVariable) -> None:
        name = variable.name
        self._w(f"def get_{name}():")
        self._push()
        self._w("if _I._txn is not None:")
        self._push()
        self._w("_flush()")
        self._pop()
        if self.shadow_cache and self.plan.variable_elidable(variable):
            self._emit_elided_branch(variable)
        for register_name in variable.registers():
            self._emit_register_read(self.model.registers[register_name], {})
        raw = self._assemble_expr(variable, lambda reg: f"raw_{reg}")
        self._emit_decode(variable, raw, "_v")
        self._w("return _v")
        self._pop()
        self._w()

    def _emit_elided_branch(self, variable: ResolvedVariable) -> None:
        """Serve the read from the shadow cache when it is valid."""
        registers = variable.registers()
        condition = " and ".join(f"{reg!r} in _sv" for reg in registers)
        self._w(f"if {condition}:")
        self._push()
        for register_name in registers:
            register = self.model.registers[register_name]
            self._emit_mode_check(register)
            self._w(f"_raw_{register_name} = "
                    f"_rc.get({register_name!r}, 0)")
            if self.instrumented:
                port = register.read_port
                assert port is not None
                vb = register.mask.variable_bits
                self._w(f"_obs_elide({self._address(port):#x}, "
                        f"_raw_{register_name} & {vb:#x}, "
                        f"{self._port_width(port)})")
        self._w(f"_note_elided({len(registers)})")
        raw = self._assemble_expr(variable, lambda reg: f"_raw_{reg}")
        self._emit_decode(variable, raw, "_v")
        self._w("return _v")
        self._pop()

    def _emit_member_getter(self, variable: ResolvedVariable) -> None:
        name = variable.name
        structure = variable.structure
        assert structure is not None
        self._w(f"def get_{name}():")
        self._push()
        self._w("if _I._txn is not None:")
        self._push()
        self._w("_flush()")
        self._pop()
        self._w(f"_snap = _sc.get({structure!r})")
        raw = self._assemble_expr(variable,
                                  lambda reg: f"_snap[{reg!r}]")
        if self.debug:
            message = (f"variable {name!r} read before its structure "
                       f"{structure!r} was fetched — call "
                       f"get_{structure}() first")
            self._w("if _snap is None:")
            self._push()
            self._w(f"raise _DRE({message!r}, "
                    f"{self._loc(variable.location)})")
            self._pop()
            self._w(f"_raw = {raw}")
        else:
            self._w("if _snap is None:")
            self._push()
            self._w("_raw = 0")
            self._pop()
            self._w("else:")
            self._push()
            self._w(f"_raw = {raw}")
            self._pop()
        self._emit_decode(variable, "_raw", "_v")
        self._w("return _v")
        self._pop()
        self._w()

    def _emit_setter(self, variable: ResolvedVariable) -> None:
        name = variable.name
        context = {name: "value"}
        self._w(f"def set_{name}(value):")
        self._push()
        # Open transactions defer writes: encode on the inlined fast
        # path, then record the raw value in the transaction.  Single-
        # register variables get the deferral inlined (the common case
        # — one dict probe, one barrier test); multi-register and
        # serialized variables go through the shared interpreter
        # deferral so the ordering logic cannot drift.
        registers = variable.registers()
        self._w("if _I._txn is not None:")
        self._push()
        self._emit_encode(variable)
        if len(registers) == 1 and variable.serialization is None:
            register_name = registers[0]
            self._w("_t = _I._txn")
            self._w("_tr = _t['registers']")
            self._w(f"_p = _tr.get({register_name!r})")
            if variable.behaviors.write_triggers:
                # Trigger barrier: a repeated write to a write-trigger
                # variable must reach the device twice.
                self._w(f"if _p is not None and {name!r} in _p:")
                self._push()
                self._w("_flush()")
                self._w("_t = _I._txn")
                self._w("_tr = _t['registers']")
                self._w("_p = None")
                self._pop()
            self._w("if _p is None:")
            self._push()
            self._w(f"_tr[{register_name!r}] = _p = {{}}")
            self._w(f"_t['order'].append({register_name!r})")
            self._pop()
            self._w(f"_p[{name!r}] = raw")
            self._w(f"_t['variables'][{name!r}] = value")
            self._w("_t['deferred'] += 1")
            self._w(f"_lw[{name!r}] = value")
            if self.instrumented:
                self._w("_c = _bus.collector")
                self._w("if _c is not None:")
                self._push()
                self._w("_c.mark_coalesced()")
                self._pop()
        else:
            self._w(f"_defer(_vars[{name!r}], value, raw)")
        self._w("return")
        self._pop()
        self._emit_encode(variable)
        for register_name in variable.registers():
            register = self.model.registers[register_name]
            self._emit_rmw_refresh(register, context)
            composed = self._compose_var_write(register, variable)
            self._emit_register_write(register, composed, context)
        self._w(f"_lw[{name!r}] = value")
        self._emit_actions(variable.set_actions, context, "var-set")
        self._pop()
        self._w()

    def _emit_struct_getter(self, structure_name: str) -> None:
        structure = self.model.structures[structure_name]
        register_names = self._structure_registers(structure_name)
        self._w(f"def get_{structure_name}():")
        self._push()
        self._w("if _I._txn is not None:")
        self._push()
        self._w("_flush()")
        self._pop()
        for register_name in register_names:
            self._emit_register_read(self.model.registers[register_name], {})
        snapshot = ", ".join(f"{reg!r}: raw_{reg}"
                             for reg in register_names)
        self._w(f"_sc[{structure_name!r}] = {{{snapshot}}}")
        for member_name in structure.members:
            member = self.model.variables[member_name]
            raw = self._assemble_expr(member, lambda reg: f"raw_{reg}")
            self._emit_decode(member, raw, f"_v_{member_name}")
        items = ", ".join(f"{m!r}: _v_{m}" for m in structure.members)
        self._w(f"return {{{items}}}")
        self._pop()
        self._w()

    def _emit_struct_setter(self, structure_name: str) -> None:
        structure = self.model.structures[structure_name]
        members = [self.model.variables[m] for m in structure.members]
        context = {m.name: f"values[{m.name!r}]" for m in members}
        loc_expr = self._loc(structure.location)
        members_set = f"_M_{structure_name}"
        self.namespace[members_set] = frozenset(structure.members)

        # Per-member encoders (runtime iteration preserves the
        # interpreter's values-order encoding and error order).
        for member in members:
            self._w(f"def _e_{structure_name}_{member.name}(value):")
            self._push()
            self._emit_encode(member)
            self._w("return raw")
            self._pop()
            self._w()
        encoders = ", ".join(
            f"{m.name!r}: _e_{structure_name}_{m.name}" for m in members)
        self._w(f"_E_{structure_name} = {{{encoders}}}")
        self._w()

        # Per-member set-action runners (only members that have any).
        post_members = [m for m in members if m.set_actions]
        for member in post_members:
            self._w(f"def _p_{structure_name}_{member.name}(values):")
            self._push()
            self._emit_actions(member.set_actions, context, "var-set")
            self._pop()
            self._w()
        posts = ", ".join(f"{m.name!r}: _p_{structure_name}_{m.name}"
                          for m in post_members)
        self._w(f"_P_{structure_name} = {{{posts}}}")
        self._w()

        self._w(f"def set_{structure_name}(**values):")
        self._push()
        self._w("if _I._txn is not None:")
        self._push()
        self._w("_flush()")
        self._pop()
        self._w(f"if {members_set}.symmetric_difference(values):")
        self._push()
        self._w(f"_struct_args_error({structure_name!r}, {members_set}, "
                f"values, {loc_expr})")
        self._pop()
        self._w("_u = {}")
        self._w("for _k, _v in values.items():")
        self._push()
        self._w(f"_u[_k] = _E_{structure_name}[_k](_v)")
        self._pop()
        steps = structure.serialization
        if steps is None:
            steps = [SerStep(reg)
                     for reg in self._structure_registers(structure_name)]
        for step in steps:
            register = self.model.registers[step.register]
            if step.condition is not None:
                cond_var, expected = step.condition
                if isinstance(expected, (bool, int, str)):
                    expected_expr = repr(expected)
                else:
                    # Non-literal condition values compare by identity
                    # semantics the interpreter would apply; inject the
                    # object itself.
                    expected_expr = f"_COND_{structure_name}_{len(self.namespace)}"
                    self.namespace[expected_expr] = expected
                self._w(f"if _u.get({cond_var!r}) == {expected_expr}:")
                self._push()
                self._emit_struct_step(register, members, context)
                self._pop()
            else:
                self._emit_struct_step(register, members, context)
        self._w("for _k, _v in values.items():")
        self._push()
        self._w("_lw[_k] = _v")
        self._w(f"_r = _P_{structure_name}.get(_k)")
        self._w("if _r is not None:")
        self._push()
        self._w("_r(values)")
        self._pop()
        self._pop()
        self._pop()
        self._w()

    def _emit_struct_step(self, register: ResolvedRegister,
                          members: list[ResolvedVariable],
                          context: dict[str, str]) -> None:
        self._emit_rmw_refresh(register, context)
        composed = self._compose_struct_write(register, members)
        self._emit_register_write(register, composed, context)

    def _block_shape_ok(self, variable: ResolvedVariable) -> bool:
        if len(variable.chunks) != 1:
            return False
        chunk = variable.chunks[0]
        register = self.model.registers[chunk.register]
        return chunk.width == register.width and chunk.lsb == 0

    def _emit_block_stubs(self, variable: ResolvedVariable) -> None:
        name = variable.name
        shape_ok = self._block_shape_ok(variable)
        register = self.model.registers[variable.chunks[0].register] \
            if variable.chunks else None
        if self.model.readable(variable):
            self._w(f"def read_{name}_block(count):")
            self._push()
            self._w("if _I._txn is not None:")
            self._push()
            self._w("_flush()")
            self._pop()
            if shape_ok and register is not None and register.readable:
                port = register.read_port
                self._emit_actions(register.pre_actions, {}, "pre")
                self._w(f"_vals = _block_read({self._address(port):#x}, "
                        f"count, {self._port_width(port)})")
                if self.shadow_cache:
                    self._w("_sv.clear()")
                self._emit_actions(register.post_actions, {}, "post")
                self._emit_actions(register.set_actions, {})
                self._w("return _vals")
            else:
                # Malformed block variables raise at call time exactly
                # like the interpreter.
                self._w(f"return _I.read_block({name!r}, count)")
            self._pop()
            self._w()
        if self.model.writable(variable):
            self._w(f"def write_{name}_block(values):")
            self._push()
            self._w("if _I._txn is not None:")
            self._push()
            self._w("_flush()")
            self._pop()
            if shape_ok and register is not None and register.writable:
                port = register.write_port
                self._emit_actions(register.pre_actions, {}, "pre")
                self._w(f"_n = _block_write({self._address(port):#x}, "
                        f"values, {self._port_width(port)})")
                if self.shadow_cache:
                    self._w("_sv.clear()")
                self._emit_actions(register.post_actions, {}, "post")
                self._emit_actions(register.set_actions, {})
                self._w("return _n")
            else:
                self._w(f"return _I.write_block({name!r}, values)")
            self._pop()
            self._w()

    # -- driver -------------------------------------------------------

    # -- specialized transaction flush writers ------------------------

    def _txn_writer_registers(self) -> list:
        """Registers whose transaction flush can run straight-line.

        A register qualifies when composing it needs no model walk at
        flush time: ``cache`` composition, a write port, no register
        actions (actions may consult the deferred-values context, which
        the interpreter's generic flush provides).  Registers that do
        not qualify simply fall back to the interpreter's
        ``_compose_register_write`` path — semantics are identical
        either way, only the dispatch cost differs.
        """
        if self.composition != "cache":
            return []
        result = []
        for register in self.model.registers.values():
            if register.write_port is None:
                continue
            if register.pre_actions or register.post_actions or \
                    register.set_actions:
                continue
            owners = self.model.variables_of_register(register.name)
            if not any(self.model.writable(owner) and not owner.memory and
                       owner.structure is None for owner in owners):
                continue
            result.append(register)
        return result

    def _emit_txn_writer(self, register: ResolvedRegister) -> None:
        """``_txn_write_<reg>(updates)``: the specialized equivalent of
        ``_compose_register_write`` + ``write_register`` for one
        register, with masks, neutral values and the port address
        folded in.  Must compose exactly what the interpreter would:
        updated owners contribute their new bits, write-trigger
        neighbours their neutral value, everyone else their cached
        bits."""
        name = register.name
        width_mask = (1 << register.width) - 1
        self._w(f"def _txn_write_{name}(_u):")
        self._push()
        self._w(f"_x = _rc.get({name!r}, 0) & "
                f"{register.mask.variable_bits:#x}")
        for owner in self.model.variables_of_register(name):
            bits = 0
            inserts = []
            for chunk, value_lsb in owner.chunks_of(name):
                chunk_mask = (1 << chunk.width) - 1
                bits |= chunk_mask << chunk.lsb
                extract = self._extract_expr(
                    "_v", value_lsb + chunk.width - 1, value_lsb,
                    owner.width)
                inserts.append(f"({extract} << {chunk.lsb})"
                               if chunk.lsb else extract)
            keep = ~bits & width_mask
            neutral = None
            if owner.behaviors.write_triggers and \
                    owner.trigger_neutral_raw is not None:
                neutral = 0
                for chunk, value_lsb in owner.chunks_of(name):
                    chunk_mask = (1 << chunk.width) - 1
                    field = (owner.trigger_neutral_raw >> value_lsb) \
                        & chunk_mask
                    neutral |= field << chunk.lsb
            deferrable = self.model.writable(owner) and not owner.memory \
                and owner.structure is None
            if deferrable:
                self._w(f"_v = _u.get({owner.name!r})")
                self._w("if _v is not None:")
                self._push()
                self._w(f"_x = (_x & {keep:#x}) | "
                        f"{' | '.join(inserts)}")
                self._pop()
                if neutral is not None:
                    self._w("else:")
                    self._push()
                    self._w(f"_x = (_x & {keep:#x}) | {neutral:#x}")
                    self._pop()
            elif neutral is not None:
                self._w(f"_x = (_x & {keep:#x}) | {neutral:#x}")
        self._emit_register_write(register, "_x", {})
        self._pop()
        self._w()

    def generate(self) -> str:
        model = self.model
        self._w(f"# Specialized stubs for {model.name!r} "
                f"(debug={self.debug}, composition={self.composition!r}, "
                f"instrumented={self.instrumented}, "
                f"shadow_cache={self.shadow_cache}).")
        self._w("# Generated by repro.devil.specialize; do not edit.")
        self._w()
        self._w("def _factory(_I):")
        self._push()
        self._w("_bus = _I.bus")
        self._w("_read = _bus.read")
        self._w("_write = _bus.write")
        self._w("_block_read = _bus.block_read")
        self._w("_block_write = _bus.block_write")
        self._w("_rc = _I._register_cache")
        self._w("_sc = _I._structure_cache")
        self._w("_mem = _I._memory")
        self._w("_lw = _I._last_written")
        self._w("_encode = _I._encode")
        self._w("_decode = _I._decode")
        self._w("_set = _I.set")
        self._w("_flush = _I._flush_pending")
        self._w("_defer = _I._defer_write")
        if self.shadow_cache:
            self._w("_sv = _I._shadow_valid")
            self._w("_note_elided = _bus.note_elided")
        self._w()
        self._w("def _enc(name, value):")
        self._push()
        self._w("return _encode(_vars[name], value)")
        self._pop()
        self._w()
        self._w("def _dec(name, raw):")
        self._push()
        self._w("return _decode(_vars[name], raw)")
        self._pop()
        self._w()
        self._w("def _lwget(name, loc):")
        self._push()
        self._w("if name in _lw:")
        self._push()
        self._w("return _lw[name]")
        self._pop()
        self._w("raise _DRE('action reads variable %r before any value "
                "was written to it' % (name,), loc)")
        self._pop()
        self._w()
        if self.instrumented:
            self._w("def _obs_act(kind, target):")
            self._push()
            self._w("_c = _bus.collector")
            self._w("if _c is not None:")
            self._push()
            self._w("_c.record_action(kind, target)")
            self._pop()
            self._pop()
            self._w()
        if self.instrumented and self.shadow_cache:
            self._w("def _obs_elide(port, value, width):")
            self._push()
            self._w("_c = _bus.collector")
            self._w("if _c is not None and _bus.tracing:")
            self._push()
            self._w("_c.io_event('r', port, value, width, 1, True)")
            self._pop()
            self._pop()
            self._w()

        for variable in model.variables.values():
            if variable.memory:
                self._emit_memory_accessors(variable)
            else:
                if model.readable(variable):
                    if variable.structure is not None:
                        self._emit_member_getter(variable)
                    else:
                        self._emit_getter(variable)
                if model.writable(variable):
                    self._emit_setter(variable)
            if variable.behaviors.block:
                self._emit_block_stubs(variable)
        for name in model.structures:
            if model.structure_readable(name):
                self._emit_struct_getter(name)
            if model.structure_writable(name):
                self._emit_struct_setter(name)

        writer_registers = self._txn_writer_registers()
        for register in writer_registers:
            self._emit_txn_writer(register)
        if writer_registers:
            writer_entries = ", ".join(
                f"{register.name!r}: _txn_write_{register.name}"
                for register in writer_registers)
            self._w(f"_I._txn_writers = {{{writer_entries}}}")
        else:
            self._w("_I._txn_writers = None")

        self.stub_names = [stub for stub, _, _ in stub_catalog(model)]
        entries = ", ".join(f"{stub!r}: {stub}" for stub in self.stub_names)
        self._w(f"return {{{entries}}}")
        self._pop()
        return "\n".join(self.lines) + "\n"


# ---------------------------------------------------------------------------
# Factory cache and instance attachment
# ---------------------------------------------------------------------------

#: ``id(model) -> (model, {(bases, debug, composition): entry})``.  The
#: model reference pins the id so keys can never alias; the number of
#: distinct specialized models per process is small (shipped specs are
#: memoized by ``specs.compile_shipped``).
_FACTORY_CACHE: dict[int, tuple[ResolvedDevice, dict]] = {}

#: Serializes cache *misses* only (generation + ``exec`` of one
#: specialization).  Hits never touch it: a published entry is complete
#: (the per-model dict assignment is atomic), so concurrent binds of an
#: already-specialized key stay lock-free.
_FACTORY_LOCK = threading.Lock()


def specialized_factory(model: ResolvedDevice, bases: dict[str, int],
                        debug: bool, composition: str,
                        instrumented: bool = False,
                        shadow_cache: bool = False):
    """Return ``(factory, source, stub_names)`` for one specialization key.

    Generation, ``compile`` and ``exec`` run once per key; rebinding the
    same specification at the same addresses only re-runs the factory.
    ``instrumented`` selects the telemetry variant (action probes
    emitted inline); it is part of the key, so enabling
    :mod:`repro.obs` never mutates sources served to uninstrumented
    bindings.  Thread-safe: two threads binding the same spec
    concurrently specialize it exactly once (double-checked under
    :data:`_FACTORY_LOCK`) and both receive the same entry.
    """
    key = (tuple(sorted(bases.items())), debug, composition, instrumented,
           shadow_cache)
    _, per_model = _FACTORY_CACHE.setdefault(id(model), (model, {}))
    entry = per_model.get(key)
    if entry is None:
        with _FACTORY_LOCK:
            entry = per_model.get(key)
            if entry is None:
                specializer = _Specializer(model, bases, debug,
                                           composition, instrumented,
                                           shadow_cache)
                source = specializer.generate()
                code = compile(source,
                               f"<devil-specialize:{model.name}>",
                               "exec")
                namespace = specializer.namespace
                exec(code, namespace)
                entry = (namespace["_factory"], source,
                         tuple(specializer.stub_names))
                per_model[key] = entry
    return entry


def generate_specialized_source(model: ResolvedDevice,
                                bases: dict[str, int],
                                debug: bool = True,
                                composition: str = "cache",
                                instrumented: bool = False,
                                shadow_cache: bool = False) -> str:
    """The generated factory source (for inspection and tests)."""
    return _Specializer(model, bases, debug, composition,
                        instrumented, shadow_cache).generate()


def specialize_instance(instance) -> None:
    """Replace ``instance``'s interpreted stubs with specialized closures.

    Only the stub attributes the interpreter attached are overwritten,
    so the public surface of the instance is identical in both
    strategies; the generic ``get``/``set``/``transaction`` API keeps
    using the interpreter against the same shared state.
    """
    factory, source, stub_names = specialized_factory(
        instance.model, instance.bases, instance.debug,
        instance.composition,
        instrumented=getattr(instance, "_instrumented", False),
        shadow_cache=getattr(instance, "shadow_cache", False))
    stubs = factory(instance)
    instance._specialized_source = source
    instance._specialized_stubs = stubs
    for name in stub_names:
        setattr(instance, name, stubs[name])
