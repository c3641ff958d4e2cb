"""Cross-check harness: interpreted vs specialized vs generated stubs.

Three artifacts claim to implement one semantics — the interpreting
runtime (``strategy="interpret"``), the bind-time specializer
(``strategy="specialize"``) and the standalone generated Python module
(``emit_python()``).  For every shipped specification this module runs
the same driver workload (from :mod:`repro.obs.workloads`, shared with
the telemetry tests and the ``devilc trace`` CLI) against identical
simulated machines under all three and asserts byte-identical
:attr:`Bus.trace` I/O traces, identical :class:`IoAccounting` counters,
identical decoded results and byte-equal device-model end state.

Debug-mode error parity is checked separately: interpreted and
specialized stubs must raise the *same* ``DevilRuntimeError`` text for
out-of-range writes, illegal enum symbols, structure-protocol violations
and missing/unknown structure members — and must perform no I/O while
doing so.
"""

import re

import pytest

from repro.devil.errors import DevilRuntimeError
from repro.devil.specialize import specialized_factory
from repro.devil.types import EnumType, IntSetType, IntType
from repro.obs.workloads import (
    MOUSE_BASE,
    STRATEGIES,
    WORKLOADS,
    bind_stubs,
    build_machine,
    run_workload,
)
from repro.specs import SPEC_NAMES
from tests.conftest import shipped_spec

# ---------------------------------------------------------------------------
# Three-way trace / accounting / result / end-state parity
# ---------------------------------------------------------------------------


def _normalize(value, seen=None):
    """Address-free snapshot of a device model's state for comparison."""
    if seen is None:
        seen = set()
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    if hasattr(value, "tobytes"):       # numpy arrays, memoryviews
        return value.tobytes()
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(item, seen) for item in value)
    if isinstance(value, dict):
        return tuple(sorted(
            (key, _normalize(item, seen)) for key, item in value.items()))
    if hasattr(value, "__dict__"):
        if id(value) in seen:
            return "<cycle>"
        seen.add(id(value))
        return _normalize(vars(value), seen)
    return value


class TestThreeWayParity:
    @pytest.mark.parametrize("name", SPEC_NAMES)
    @pytest.mark.parametrize("debug", [False, True],
                             ids=["release", "debug"])
    def test_traces_accounting_results_identical(self, name, debug):
        outputs = {kind: run_workload(name, kind, debug)
                   for kind in STRATEGIES}
        reference_results, reference_trace, reference_acct = \
            outputs["interpret"]
        for kind in ("specialize", "generated"):
            results, trace, acct = outputs[kind]
            assert trace == reference_trace, kind
            assert acct == reference_acct, kind
            assert results == reference_results, kind

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_debug_and_release_do_identical_io(self, name):
        """§3.2: debug checks are CPU-side only — in both strategies."""
        for kind in ("interpret", "specialize"):
            _, release_trace, release_acct = run_workload(
                name, kind, debug=False)
            _, debug_trace, debug_acct = run_workload(
                name, kind, debug=True)
            assert debug_trace == release_trace
            assert debug_acct == release_acct

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_device_end_state_byte_equal(self, name):
        states = {}
        for kind in STRATEGIES:
            bus, aux, bases = build_machine(name, tracing=False)
            stubs = bind_stubs(name, kind, bus, bases, debug=True)
            WORKLOADS[name](stubs, aux)
            states[kind] = {label: _normalize(model)
                            for label, model in aux.items()}
        for kind in ("specialize", "generated"):
            assert states[kind] == states["interpret"], \
                f"{kind} device end-state differs"


# ---------------------------------------------------------------------------
# Debug-mode error parity (interpret vs specialize, message-exact)
# ---------------------------------------------------------------------------


def _fresh_pair(name: str, debug: bool = True):
    instances = []
    for kind in ("interpret", "specialize"):
        bus, aux, bases = build_machine(name)
        instances.append((bus,
                          bind_stubs(name, kind, bus, bases, debug)))
    return instances


def _error_scenarios(name: str):
    """Derive no-I/O error calls from the model, uniformly per spec.

    Every scenario raises before any bus access (encode failures,
    structure protocol, missing members), so it can run on a fresh
    machine without disturbing device state.
    """
    model = shipped_spec(name).model
    scenarios = []
    for variable in model.public_variables():
        if variable.memory or variable.structure is not None:
            continue
        registers_writable = all(
            model.registers[c.register].writable for c in variable.chunks)
        if not registers_writable:
            continue
        var_type = variable.type
        if isinstance(var_type, IntType):
            scenarios.append((f"set_{variable.name}:out-of-range",
                              f"set_{variable.name}",
                              (var_type.maximum + 1,)))
        elif isinstance(var_type, IntSetType):
            scenarios.append((f"set_{variable.name}:not-a-member",
                              f"set_{variable.name}",
                              (max(var_type.values) + 1,)))
        elif isinstance(var_type, EnumType):
            scenarios.append((f"set_{variable.name}:bad-symbol",
                              f"set_{variable.name}", ("__NOPE__",)))
    for structure in model.structures.values():
        member = structure.members[0]
        member_var = model.variables[member]
        if all(model.registers[c.register].readable
               for c in member_var.chunks):
            scenarios.append((f"get_{member}:before-fetch",
                              f"get_{member}", ()))
        break  # one structure-protocol case per spec is enough
    return scenarios


class TestDebugErrorParity:
    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_identical_errors_and_no_io(self, name):
        scenarios = _error_scenarios(name)
        assert scenarios, f"spec {name} produced no error scenarios"
        for label, stub_name, arguments in scenarios:
            captured = []
            for bus, stubs in _fresh_pair(name):
                stub = getattr(stubs, stub_name, None)
                if stub is None:
                    captured.append(None)
                    continue
                with pytest.raises(DevilRuntimeError) as excinfo:
                    stub(*arguments)
                captured.append(str(excinfo.value))
                assert bus.trace == [], (label, "performed I/O")
            assert captured[0] == captured[1], label

    def test_out_of_range_write_messages(self):
        """The concrete §3.2 examples, message-exact in both strategies."""
        for name, stub_name, bad in (
                ("busmouse", "set_signature", 256),
                ("ide", "set_head", 16),
                ("cs4236", "set_mic_left_volume", 32),
                ("permedia2", "set_rect_width", 1 << 16)):
            messages = []
            for _, stubs in _fresh_pair(name):
                with pytest.raises(DevilRuntimeError) as excinfo:
                    getattr(stubs, stub_name)(bad)
                messages.append(str(excinfo.value))
            assert messages[0] == messages[1], name
            assert "outside range" in messages[0]

    def test_structure_member_errors_identical(self):
        for values, fragment in (
                ({"left_dac_attenuation": 9, "left_dac_mute": True},
                 "must provide every member"),
                ({"left_dac_attenuation": 9, "left_dac_mute": True,
                  "left_dac_pad": False, "bogus": 1},
                 "unknown member(s)")):
            messages = []
            for _, stubs in _fresh_pair("cs4236"):
                with pytest.raises(DevilRuntimeError) as excinfo:
                    stubs.set_left_dac_output(**values)
                messages.append(str(excinfo.value))
            assert messages[0] == messages[1]
            assert fragment in messages[0]

    def test_mode_violation_identical(self):
        messages = []
        for bus, stubs in _fresh_pair("pic8259"):
            with pytest.raises(DevilRuntimeError) as excinfo:
                stubs.set_irq_mask(0xFF)  # still in initialization mode
            messages.append(str(excinfo.value))
            assert bus.trace == []
        assert messages[0] == messages[1]
        assert "only addressable in mode" in messages[0]


# ---------------------------------------------------------------------------
# Interop and caching behaviour of the specializer itself
# ---------------------------------------------------------------------------


class TestSpecializedInstance:
    def test_generic_api_shares_state_with_specialized_stubs(self):
        bus, aux, bases = build_machine("busmouse")
        stubs = bind_stubs("busmouse", "specialize", bus, bases,
                           debug=True)
        stubs.get_mouse_state()
        # The generic (interpreted) member read sees the snapshot the
        # specialized structure getter took.
        assert stubs.get("dx") == stubs.get_dx() == 5
        stubs.set("signature", 0x5A)
        assert stubs.get_signature() == 0x5A

    def test_transaction_coalescing_identical(self):
        traces = []
        for kind in ("interpret", "specialize"):
            bus, aux, bases = build_machine("ide")
            stubs = bind_stubs("ide", kind, bus, bases, debug=True)
            with stubs.transaction():
                stubs.set_lba_mode(True)
                stubs.set_drive("MASTER")
                stubs.set_head(5)
            traces.append([(e.op, e.port, e.value, e.width)
                           for e in bus.trace])
        assert traces[0] == traces[1]
        assert len(traces[0]) == 1  # one coalesced device_reg write

    def test_factory_cached_per_key(self):
        model = shipped_spec("busmouse").model
        first = specialized_factory(model, {"base": MOUSE_BASE},
                                    debug=True, composition="cache")
        second = specialized_factory(model, {"base": MOUSE_BASE},
                                     debug=True, composition="cache")
        assert first is second
        other_debug = specialized_factory(model, {"base": MOUSE_BASE},
                                          debug=False,
                                          composition="cache")
        other_base = specialized_factory(model, {"base": 0x300},
                                         debug=True, composition="cache")
        assert other_debug is not first
        assert other_base is not first

    def test_addresses_folded_into_source(self):
        bus, aux, bases = build_machine("busmouse")
        stubs = bind_stubs("busmouse", "specialize", bus, bases,
                           debug=False)
        source = stubs._specialized_source
        assert hex(MOUSE_BASE + 1) in source  # sig_reg absolute port
        assert "def get_dx" in source
        assert "def set_config" in source

    def test_unknown_strategy_rejected(self):
        bus, aux, bases = build_machine("busmouse")
        with pytest.raises(DevilRuntimeError, match="execution strategy"):
            shipped_spec("busmouse").bind(bus, bases, strategy="jit")

    @pytest.mark.parametrize("strategy", ["native", "auto"])
    def test_unknown_strategy_names_the_choices(self, strategy):
        bus, aux, bases = build_machine("busmouse")
        with pytest.raises(DevilRuntimeError) as caught:
            shipped_spec("busmouse").bind(bus, bases, strategy=strategy)
        message = str(caught.value)
        assert re.search(
            rf"unknown execution strategy '{strategy}' "
            rf"\(choose 'interpret' or 'specialize'\)$", message), message

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_public_surface_identical(self, name):
        """Specialization must not add or remove public stubs."""
        bus_a, _, bases = build_machine(name)
        bus_b, _, _ = build_machine(name)
        interpreted = shipped_spec(name).bind(bus_a, bases)
        specialized = shipped_spec(name).bind(bus_b, bases,
                                              strategy="specialize")
        def surface(instance):
            return {attr for attr in vars(instance)
                    if attr.split("_", 1)[0] in ("get", "set",
                                                 "read", "write")}

        assert surface(interpreted) == surface(specialized)

    @pytest.mark.parametrize("name", SPEC_NAMES)
    @pytest.mark.parametrize("composition",
                             ["cache", "read-modify-write"])
    def test_composition_strategies_agree(self, name, composition):
        """The rmw ablation works identically under specialization."""
        outputs = []
        for kind in ("interpret", "specialize"):
            bus, aux, bases = build_machine(name)
            stubs = shipped_spec(name).bind(bus, bases, debug=False,
                                            composition=composition,
                                            strategy=kind)
            results = WORKLOADS[name](stubs, aux)
            outputs.append((results, list(bus.trace),
                            bus.accounting.snapshot()))
        assert outputs[0] == outputs[1]
