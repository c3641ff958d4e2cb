"""Tests for parameterized port offsets (the register-array feature).

§2.2 lists "arrays, register constructors" among Devil's features; a
constructor whose *port offset* depends on its parameter (``register
cell(i : int{0..5}) = base @ 1 + i``) describes a bank of identical
registers at consecutive addresses — the NE2000's PAR0..PAR5 or a
DMA controller's per-channel registers.
"""

import pytest

from repro.bus import Bus
from repro.devil.compiler import compile_spec
from repro.devil.errors import DevilCheckError
from repro.devil.parser import parse
from repro.devil.printer import print_device

BANKED = """
device banked (base : bit[8] port @ {0..4})
{
    register mode_reg = write base @ 0 : bit[8];
    private variable bank = mode_reg[0] : int(1);
    variable pad = mode_reg[7..1] : int(7);

    register cell(i : int{0..3}) = base @ 1 + i, pre {bank = 0} : bit[8];
    register cell0 = cell(0);
    register cell1 = cell(1);
    register cell2 = cell(2);
    register cell3 = cell(3);
    variable v0 = cell0 : int(8);
    variable v1 = cell1 : int(8);
    variable v2 = cell2 : int(8);
    variable v3 = cell3 : int(8);
}
"""


class Ram:
    def __init__(self):
        self.cells = [0] * 8

    def io_read(self, offset, width):
        return self.cells[offset]

    def io_write(self, offset, value, width):
        self.cells[offset] = value


class TestResolution:
    def test_instances_land_at_consecutive_offsets(self):
        spec = compile_spec(BANKED)
        offsets = [spec.model.registers[f"cell{i}"].read_port[1]
                   for i in range(4)]
        assert offsets == [1, 2, 3, 4]

    def test_pre_actions_still_substituted(self):
        spec = compile_spec(BANKED)
        (action,) = spec.model.registers["cell2"].pre_actions
        assert (action.target, action.value) == ("bank", 0)

    def test_bare_parameter_offset(self):
        source = BANKED.replace("base @ 1 + i", "base @ i") \
                       .replace("port @ {0..4}", "port @ {0..3}") \
                       .replace("write base @ 0", "write base @ 0")
        # cell(0) now collides with mode_reg at offset 0, but their
        # pre-actions differ, so the overlap rule admits it.
        spec = compile_spec(source)
        assert spec.model.registers["cell0"].read_port == ("base", 0)

    def test_offsets_outside_port_range_rejected(self):
        source = BANKED.replace("port @ {0..4}", "port @ {0..3}")
        with pytest.raises(DevilCheckError, match="falls outside"):
            compile_spec(source)

    def test_unknown_offset_parameter_rejected(self):
        source = BANKED.replace("base @ 1 + i,", "base @ 1 + j,")
        with pytest.raises(DevilCheckError, match="not a parameter"):
            compile_spec(source)

    def test_uninstantiated_family_member_is_omission(self):
        source = BANKED.replace(
            "    register cell3 = cell(3);\n", "").replace(
            "    variable v3 = cell3 : int(8);\n", "")
        with pytest.raises(DevilCheckError, match="never used"):
            compile_spec(source)


class TestExecution:
    def test_writes_route_to_the_right_bank_cell(self):
        spec = compile_spec(BANKED)
        bus = Bus()
        ram = Ram()
        bus.map_device(0x40, 8, ram)
        device = spec.bind(bus, {"base": 0x40})
        for index in range(4):
            device.set(f"v{index}", 0x10 + index)
        assert ram.cells[1:5] == [0x10, 0x11, 0x12, 0x13]

    def test_c_backend_folds_concrete_offsets(self):
        header = compile_spec(BANKED).emit_c(prefix="bk")
        for offset in range(1, 5):
            assert f"d->port_base + {offset}" in header

    def test_python_backend_agrees(self):
        spec = compile_spec(BANKED)
        bus_a, bus_b = Bus(tracing=True), Bus(tracing=True)
        bus_a.map_device(0, 8, Ram())
        bus_b.map_device(0, 8, Ram())
        specialized = spec.bind(bus_a, {"base": 0}, debug=False,
                                strategy="specialize")
        interpreted = spec.bind(bus_b, {"base": 0}, debug=False)
        for index in range(4):
            getattr(specialized, f"set_v{index}")(index)
            interpreted.set(f"v{index}", index)
        assert bus_a.trace == bus_b.trace


class TestSyntax:
    def test_printer_roundtrip(self):
        from tests.test_printer import normalize
        first = parse(BANKED)
        assert normalize(parse(print_device(first))) == normalize(first)

    def test_constant_plus_param_and_param_plus_constant(self):
        flipped = BANKED.replace("base @ 1 + i", "base @ i + 1")
        spec = compile_spec(flipped)
        assert spec.model.registers["cell3"].read_port == ("base", 4)
