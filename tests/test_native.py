"""Error-path checks for bound stubs, run on the specializer.

The file keeps its name from the retired ``native`` strategy, whose
error paths these checks first pinned.  Each case now binds with
``strategy="specialize"`` and, where it compares, holds the specializer
to the interpreter: unmapped ports, member reads before the structure
fetch, private memory variables read before initialisation, and block
transfers with negative or zero counts.
"""

from __future__ import annotations

import pytest

from repro.bus import Bus
from repro.bus.bus import BusError
from repro.devil.errors import DevilRuntimeError
from repro.obs.workloads import MOUSE_BASE, bind_stubs, build_machine
from tests.conftest import shipped_spec

STRATEGIES = ("interpret", "specialize")


class TestErrorPaths:
    def test_unmapped_port_raises_bus_error(self):
        for strategy in STRATEGIES:
            stubs = shipped_spec("busmouse").bind(
                Bus(), {"base": MOUSE_BASE}, debug=False, strategy=strategy)
            with pytest.raises(BusError, match="no device mapped"):
                stubs.get_signature()

    def test_member_read_before_fetch_debug_check(self):
        for strategy in STRATEGIES:
            bus, aux, bases = build_machine("busmouse", tracing=False)
            stubs = bind_stubs("busmouse", strategy, bus, bases, debug=True)
            with pytest.raises(DevilRuntimeError, match="get_mouse_state"):
                stubs.get_dx()

    MEMORY_SOURCE = """
    device memtest (base : bit[8] port @ {0}) {
        private variable xm : bool;
        register r = base @ 0, set {xm = false} : bit[8];
        variable gate = r[0], set {xm = gate}, write trigger for true
            : bool;
        variable rest = r[7..1] : int(7);
    }
    """

    @staticmethod
    def _ram_bus():
        from tests.test_runtime import RamDevice
        bus = Bus()
        bus.map_device(0x10, 1, RamDevice(1), "ram")
        return bus

    @pytest.mark.parametrize("debug", [False, True],
                             ids=["release", "debug"])
    def test_memory_read_before_initialisation(self, debug):
        from repro.devil.compiler import compile_spec
        spec = compile_spec(self.MEMORY_SOURCE)
        stubs = spec.bind(self._ram_bus(), {"base": 0x10}, debug=debug,
                          strategy="specialize")
        with pytest.raises(DevilRuntimeError,
                           match="read before initialisation"):
            stubs.get("xm")
        # A variable set-action initialises the memory variable; the
        # generic accessor must observe it even in release mode.
        stubs.set_gate(True)
        assert stubs.get("xm") is True
        stubs.set_rest(3)       # register set-action: xm = false
        stubs.get_rest()
        assert stubs.get("xm") is False

    @pytest.mark.parametrize("debug", [False, True],
                             ids=["release", "debug"])
    def test_memory_matches_interpreter(self, debug):
        from repro.devil.compiler import compile_spec
        spec = compile_spec(self.MEMORY_SOURCE)
        special = spec.bind(self._ram_bus(), {"base": 0x10}, debug=debug,
                            strategy="specialize")
        interp = spec.bind(self._ram_bus(), {"base": 0x10}, debug=debug,
                           strategy="interpret")
        for instance in (special, interp):
            instance.set_gate(True)
            instance.set_rest(5)
            instance.get_rest()
        assert special.get("xm") == interp.get("xm")
        assert special.get_rest() == interp.get_rest()

    def test_block_errors_match_interpreter(self):
        for strategy in STRATEGIES:
            bus, aux, bases = build_machine("ide", tracing=False)
            stubs = bind_stubs("ide", strategy, bus, bases, debug=False)
            with pytest.raises(BusError, match="negative block count"):
                stubs.read_ide_data_block(-1)
            assert stubs.read_ide_data_block(0) == []
            assert stubs.write_ide_data_block([]) == 0
