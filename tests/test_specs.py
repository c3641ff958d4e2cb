"""Structural tests of the shipped specification library."""

import pytest

from repro.specs import SPEC_NAMES, compile_shipped, load_source
from tests.conftest import shipped_spec


class TestLibrary:
    def test_every_spec_listed_exists(self, spec_name):
        assert load_source(spec_name)

    def test_every_spec_compiles_without_errors(self, spec_name):
        spec = shipped_spec(spec_name)
        assert spec.name

    def test_spec_names_are_complete(self):
        assert set(SPEC_NAMES) == {
            "busmouse", "dma8237", "pic8259", "ne2000", "cs4236",
            "ide", "piix4", "permedia2"}

    def test_paper_device_classes_covered(self):
        """§2: mouse, sound, DMA, interrupt, Ethernet, video, IDE."""
        names = {shipped_spec(n).model.name for n in SPEC_NAMES}
        assert names == {"logitech_busmouse", "dma8237", "pic8259",
                         "ne2000", "cs4236", "ide", "piix4", "permedia2"}


class TestBusmouseFigureOne:
    """The shipped busmouse spec is Figure 1 of the paper."""

    def test_three_layers(self):
        model = shipped_spec("busmouse").model
        assert list(model.params) == ["base"]
        assert len(model.registers) == 8
        assert len(model.variables) == 7

    def test_functional_interface_hides_private(self):
        model = shipped_spec("busmouse").model
        public = {v.name for v in model.public_variables()}
        assert public == {"signature", "config", "interrupt",
                          "dx", "dy", "buttons"}

    def test_mouse_state_structure(self):
        model = shipped_spec("busmouse").model
        assert model.structures["mouse_state"].members == \
            ["dx", "dy", "buttons"]

    def test_index_pre_actions(self):
        model = shipped_spec("busmouse").model
        for register, index in (("x_low", 0), ("x_high", 1),
                                ("y_low", 2), ("y_high", 3)):
            (action,) = model.registers[register].pre_actions
            assert (action.target, action.value) == ("index", index)


class TestAdvancedConstructs:
    def test_dma_serialized_counters(self):
        model = shipped_spec("dma8237").model
        count1 = model.variables["count1"]
        assert count1.serialization == ["cnt1_low", "cnt1_high"]
        assert count1.type.width == 16

    def test_pic_conditional_serialization(self):
        model = shipped_spec("pic8259").model
        steps = model.structures["init"].serialization
        assert steps[0].condition is None
        assert steps[2].condition == ("sngl", 0)   # CASCADED => '0'
        assert steps[3].condition == ("ic4", 1)    # true

    def test_ne2000_trigger_neutrals(self):
        model = shipped_spec("ne2000").model
        assert model.variables["txp"].trigger_neutral_raw == 0
        assert model.variables["page"].private

    def test_cs4236_memory_variable(self):
        model = shipped_spec("cs4236").model
        assert model.variables["xm"].memory
        control = model.registers["control"]
        assert [(a.target, a.value) for a in control.set_actions] == \
            [("xm", False)]

    def test_ide_block_variables(self):
        model = shipped_spec("ide").model
        assert model.variables["ide_data"].behaviors.block
        assert model.variables["ide_data32"].behaviors.block
        assert model.variables["ide_data"].behaviors.volatile

    def test_ide_forced_device_register_bits(self):
        model = shipped_spec("ide").model
        mask = model.registers["device_reg"].mask
        assert mask.forced_value == 0xA0

    def test_permedia2_is_memory_mapped_yet_identical_syntax(self):
        model = shipped_spec("permedia2").model
        assert model.params["regs"].data_width == 32

    def test_piix4_write_one_to_clear_bits(self):
        model = shipped_spec("piix4").model
        assert "bm_irq" in model.variables
        assert model.variables["bm_active"].behaviors.volatile


class TestCompiledSpecApi:
    def test_warnings_are_exposed(self):
        spec = compile_shipped("ide")
        # The independent volatile status flags provoke the grouping
        # warning by design (see Table 2's +2 per interrupt).
        assert any("structure boundaries" in w.message
                   for w in spec.warnings)

    def test_emit_c_produces_header(self, spec_name):
        header = shipped_spec(spec_name).emit_c(prefix="t")
        assert header.startswith("/* Generated by devilc")
        assert "t_state_t" in header
