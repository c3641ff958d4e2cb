"""Tests for device operating modes (conditional declarations, §2.2).

A ``mode`` declaration splits the register file into operating modes:
registers tagged ``in <mode>`` are only addressable while the device is
in that mode.  The current mode is the implicit ``device_mode``
variable (readable, writable, usable in ``set`` actions), the first
declared mode is the reset state, and two registers in different modes
never conflict on a shared port — the static typing the 8259A's
ICW/OCW overlap really wants.
"""

import pytest

from repro.bus import Bus
from repro.devil.compiler import compile_spec
from repro.devil.errors import DevilCheckError, DevilRuntimeError
from repro.devil.parser import parse
from repro.devil.printer import print_device

MODED = """
device moded (base : bit[8] port @ {0})
{
    mode setup, operational;

    register config = write base @ 0, in setup : bit[8];
    variable threshold = config : int(8);

    register live = base @ 0, in operational : bit[8];
    variable reading = live, volatile : int(8);
}
"""

AUTO_SWITCH = """
device autosw (base : bit[8] port @ {0..1})
{
    mode setup, operational;

    register config = write base @ 0, in setup,
        set {device_mode = operational} : bit[8];
    variable threshold = config : int(8);

    register live = base @ 1, in operational : bit[8];
    variable reading = live, volatile : int(8);
}
"""


class Ram:
    def __init__(self):
        self.cells = [0] * 4

    def io_read(self, offset, width):
        return self.cells[offset]

    def io_write(self, offset, value, width):
        self.cells[offset] = value


def bind(source, debug=True):
    spec = compile_spec(source)
    bus = Bus()
    ram = Ram()
    bus.map_device(0x80, 4, ram, "ram")
    return spec, ram, spec.bind(bus, {"base": 0x80}, debug=debug)


class TestChecking:
    def test_mode_declaration_resolves(self):
        spec = compile_spec(MODED)
        assert spec.model.modes == ("setup", "operational")
        assert spec.model.registers["config"].mode == "setup"
        assert spec.model.registers["live"].mode == "operational"

    def test_device_mode_variable_exposed(self):
        spec = compile_spec(MODED)
        variable = spec.model.variables["device_mode"]
        assert variable.memory and not variable.private

    def test_shared_port_across_modes_is_legal(self):
        # config (write) and live (read+write) share base@0 with full
        # masks and identical pre-actions — only the modes separate
        # them, and that is enough.
        spec = compile_spec(MODED)
        assert not [w for w in spec.warnings
                    if "share write port" in w.message]

    def test_unknown_mode_rejected(self):
        with pytest.raises(DevilCheckError, match="unknown mode"):
            compile_spec(MODED.replace("in operational", "in flight"))

    def test_unused_mode_rejected(self):
        source = MODED.replace("mode setup, operational;",
                               "mode setup, operational, spare;")
        with pytest.raises(DevilCheckError, match="spare"):
            compile_spec(source)

    def test_single_mode_rejected(self):
        source = MODED.replace("mode setup, operational;", "mode setup;") \
                      .replace(", in operational", ", in setup")
        with pytest.raises(DevilCheckError, match="at least two"):
            compile_spec(source)

    def test_duplicate_mode_rejected(self):
        with pytest.raises(DevilCheckError, match="twice"):
            compile_spec(MODED.replace("mode setup, operational;",
                                       "mode setup, setup, operational;"))

    def test_mode_is_not_reserved_elsewhere(self):
        source = """
device plain (base : bit[8] port @ {0})
{
    register r = base @ 0 : bit[8];
    variable mode = r : int(8);
}
"""
        spec = compile_spec(source)
        assert "mode" in spec.model.variables


class TestRuntime:
    def test_reset_mode_is_first_declared(self):
        _, _, device = bind(MODED)
        assert device.get_device_mode() == "setup"

    def test_wrong_mode_access_raises_in_debug(self):
        _, _, device = bind(MODED)
        with pytest.raises(DevilRuntimeError, match="only addressable"):
            device.get_reading()

    def test_mode_switch_enables_registers(self):
        _, ram, device = bind(MODED)
        device.set_threshold(0x42)
        device.set_device_mode("operational")
        ram.cells[0] = 0x99
        assert device.get_reading() == 0x99
        with pytest.raises(DevilRuntimeError):
            device.set_threshold(1)

    def test_release_mode_skips_the_check(self):
        _, _, device = bind(MODED, debug=False)
        device.get_reading()  # tolerated, like the C build without
        # DEVIL_DEBUG

    def test_set_action_switches_mode(self):
        """A register access can drive the mode automaton itself."""
        _, _, device = bind(AUTO_SWITCH)
        assert device.get_device_mode() == "setup"
        device.set_threshold(7)
        assert device.get_device_mode() == "operational"
        device.get_reading()  # now legal without an explicit switch


class TestBackends:
    def test_c_header_checks_mode(self):
        spec = compile_spec(MODED)
        header = spec.emit_c(prefix="md")
        assert "MD_setup = 0" in header
        assert "MD_operational = 1" in header
        assert "d->mem_device_mode = MD_setup;" in header
        assert "addressed outside mode" in header

    def test_c_header_compiles(self):
        import shutil
        import subprocess
        import tempfile
        from pathlib import Path
        if shutil.which("gcc") is None:
            pytest.skip("gcc not available")
        spec = compile_spec(MODED)
        with tempfile.TemporaryDirectory() as workdir:
            work = Path(workdir)
            (work / "moded.dil.h").write_text(spec.emit_c(prefix="md"))
            (work / "main.c").write_text("""
unsigned devil_in(unsigned port, int width);
void devil_out(unsigned value, unsigned port, int width);
void devil_in_rep(unsigned port, int width, unsigned long count,
                  unsigned *buffer);
void devil_out_rep(unsigned port, int width, unsigned long count,
                   const unsigned *buffer);
#define DEVIL_IO_DECLARED
#define DEVIL_DEBUG
#include "moded.dil.h"
int main(void) { md_state_t s; (void)s; return 0; }
""")
            result = subprocess.run(
                ["gcc", "-Wall", "-Wextra", "-Werror", "-std=c99", "-c",
                 "main.c"], cwd=work, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr

    def test_python_backend_enforces_modes(self):
        """Specialized stubs carry the debug-mode mode checks."""
        spec = compile_spec(MODED)
        bus = Bus()
        bus.map_device(0x80, 4, Ram(), "ram")
        stubs = spec.bind(bus, {"base": 0x80}, debug=True,
                          strategy="specialize")
        assert stubs.get_device_mode() == "setup"
        with pytest.raises(DevilRuntimeError, match="only addressable"):
            stubs.get_reading()
        stubs.set_device_mode("operational")
        stubs.get_reading()

    def test_printer_roundtrip(self):
        from tests.test_printer import normalize
        first = parse(MODED)
        assert normalize(parse(print_device(first))) == normalize(first)
