"""Shipped driver workloads, shared by tests, benchmarks and the CLI.

One simulated machine and one representative driver workload per
shipped specification.  ``tests/test_specialize.py`` runs them to prove
interpret/specialize trace parity, ``tests/test_obs.py`` to prove
*span* parity, and ``devilc trace`` replays them to produce example
telemetry from a real driver-shaped interaction.

The base addresses are the canonical ones the whole repository uses
(``tests/conftest.py`` re-exports them), chosen to match the historical
PC I/O map where one exists.
"""

from __future__ import annotations

from ..bus import Bus
from ..devices.busmouse import REGION_SIZE as MOUSE_REGION
from ..devices.busmouse import BusmouseModel
from ..devices.cs4236 import REGION_SIZE as CS_REGION
from ..devices.cs4236 import Cs4236Model
from ..devices.dma8237 import REGION_SIZE as DMA_REGION
from ..devices.dma8237 import Dma8237Model
from ..devices.ide import REGION_SIZE as IDE_REGION
from ..devices.ide import IdeControlPort, IdeDiskModel
from ..devices.ne2000 import REGION_SIZE as NE_REGION
from ..devices.ne2000 import (
    Ne2000DataPort,
    Ne2000Model,
    Ne2000ResetPort,
)
from ..devices.permedia2 import REGION_SIZE as PM2_REGION
from ..devices.permedia2 import Permedia2Aperture, Permedia2Model
from ..devices.pic8259 import REGION_SIZE as PIC_REGION
from ..devices.pic8259 import Pic8259Model
from ..devices.piix4 import REGION_SIZE as BM_REGION
from ..devices.piix4 import Piix4Model
from ..specs import compile_shipped

MOUSE_BASE = 0x23C
DMA_BASE = 0x00
PIC_BASE = 0x20
CS_BASE = 0x534
IDE_BASE = 0x1F0
IDE_CTRL = 0x3F6
BM_BASE = 0xC000
NE_BASE = 0x300
NE_DATA = 0x310
NE_RESET = 0x31F
PM2_REGS = 0xF000
PM2_FB = 0xF800

STRATEGIES = ("interpret", "specialize")


# ---------------------------------------------------------------------------
# Machines (one per shipped spec)
# ---------------------------------------------------------------------------


def build_machine(name: str, tracing: bool = True,
                  trace_limit: int | None = None):
    """A fresh simulated machine for spec ``name``.

    Returns ``(bus, aux, bases)``: the tracing bus, auxiliary device
    models the workload pokes directly, and the base-address dict.
    """
    bus = Bus(tracing=tracing, trace_limit=trace_limit)
    if name == "busmouse":
        mouse = BusmouseModel()
        mouse.move(5, -3)
        mouse.set_buttons(0b101)
        bus.map_device(MOUSE_BASE, MOUSE_REGION, mouse, "busmouse")
        return bus, {"mouse": mouse}, {"base": MOUSE_BASE}
    if name == "dma8237":
        dma = Dma8237Model()
        bus.map_device(DMA_BASE, DMA_REGION, dma, "dma8237")
        return bus, {"dma": dma}, {"base": DMA_BASE}
    if name == "pic8259":
        pic = Pic8259Model()
        bus.map_device(PIC_BASE, PIC_REGION, pic, "pic8259")
        return bus, {"pic": pic}, {"base": PIC_BASE}
    if name == "ne2000":
        nic = Ne2000Model()
        bus.map_device(NE_BASE, NE_REGION, nic, "ne2000")
        bus.map_device(NE_DATA, 2, Ne2000DataPort(nic), "ne2000-data")
        bus.map_device(NE_RESET, 1, Ne2000ResetPort(nic), "ne2000-reset")
        return bus, {"nic": nic}, \
            {"base": NE_BASE, "data": NE_DATA, "rst": NE_RESET}
    if name == "cs4236":
        chip = Cs4236Model()
        bus.map_device(CS_BASE, CS_REGION, chip, "cs4236")
        return bus, {"chip": chip}, {"base": CS_BASE}
    if name == "ide":
        disk = IdeDiskModel(total_sectors=16)
        for index in range(0, len(disk.store), 3):
            disk.store[index] = (index * 7) & 0xFF
        bus.map_device(IDE_BASE, IDE_REGION, disk, "ide")
        bus.map_device(IDE_CTRL, 1, IdeControlPort(disk), "ide-ctrl")
        return bus, {"disk": disk}, \
            {"cmd": IDE_BASE, "data": IDE_BASE, "data32": IDE_BASE,
             "ctrl": IDE_CTRL}
    if name == "piix4":
        disk = IdeDiskModel(total_sectors=16)
        memory = bytearray(1 << 16)
        busmaster = Piix4Model(disk, memory)
        bus.map_device(BM_BASE, BM_REGION, busmaster, "piix4")
        return bus, {"busmaster": busmaster, "memory": memory}, \
            {"io": BM_BASE, "dtp": BM_BASE + 4}
    if name == "permedia2":
        gpu = Permedia2Model(width=64, height=48)
        bus.map_device(PM2_REGS, PM2_REGION, gpu, "permedia2")
        bus.map_device(PM2_FB, 1, Permedia2Aperture(gpu), "permedia2-fb")
        return bus, {"gpu": gpu}, {"regs": PM2_REGS, "fb": PM2_FB}
    raise ValueError(f"no machine builder for {name!r}")


# ---------------------------------------------------------------------------
# Driver workloads
# ---------------------------------------------------------------------------


def _drive_busmouse(stubs, aux):
    results = [stubs.set_config("CONFIGURATION"),
               stubs.set_signature(0xA5),
               stubs.get_signature(),
               stubs.set_interrupt("ENABLE"),
               stubs.get_mouse_state(),
               stubs.get_dx(), stubs.get_dy(), stubs.get_buttons()]
    aux["mouse"].move(-2, 7)
    results += [stubs.get_mouse_state(), stubs.get_dx()]
    return results


def _drive_dma8237(stubs, aux):
    stubs.set_master_clear(0)
    stubs.set_address1(0x1234)
    stubs.set_count1(0x0010)
    stubs.set_channel_mode(mode_channel=1, mode_transfer="READ_MEM",
                           mode_autoinit=False, mode_down=False,
                           mode_kind="SINGLE")
    stubs.set_channel_mask(mask_channel=1, mask_set="MASK_OFF")
    stubs.set_request(req_channel=1, req_set="CLEAR")
    stubs.set_mask_bits(0b0101)
    results = [stubs.get_mask_bits(), stubs.get_status(),
               stubs.get_reached_tc(), stubs.get_dma_requests(),
               stubs.get_address1(), stubs.get_count1()]
    stubs.set_clear_mask(0)
    return results


def _drive_pic8259(stubs, aux):
    stubs.set_init(addr_vector=0, ltim="EDGE", adi="INTERVAL8",
                   sngl="CASCADED", ic4=True, vector_base=0x20,
                   slaves=0x04, sfnm=False, buffered=False,
                   master="BUF_SLAVE", aeoi=False,
                   microprocessor="X8086")
    stubs.set_device_mode("operation")
    stubs.set_irq_mask(0xFE)
    results = [stubs.get_device_mode(), stubs.get_irq_mask()]
    aux["pic"].raise_irq(1)
    stubs.set_read_select(special_mask="NO_SMM_ACTION", poll=False,
                          reg_select="READ_IRR")
    results.append(stubs.get_irq_register())
    stubs.set_eoi(eoi_kind="NON_SPECIFIC_EOI", eoi_level=0)
    return results


def _drive_ne2000(stubs, aux):
    stubs.set_st("START")
    stubs.set_remote_byte_count(8)
    stubs.set_remote_start_address(0x4000)
    stubs.set_rd("REMOTE_WRITE")
    stubs.write_dma_data_block([0x0102, 0x0304, 0x0506, 0x0708])
    stubs.set_remote_byte_count(8)
    stubs.set_remote_start_address(0x4000)
    stubs.set_rd("REMOTE_READ")
    return [stubs.read_dma_data_block(4),
            bytes(aux["nic"].ram[0:8])]


def _drive_cs4236(stubs, aux):
    stubs.set_left_dac_output(left_dac_attenuation=9,
                              left_dac_mute=True, left_dac_pad=False)
    stubs.set_left_adc_input(left_input_gain=3, left_mic_boost=True,
                             left_input_source="MIC",
                             left_input_pad=False)
    results = [stubs.get_version(), stubs.get_chip_id()]
    stubs.set_mic_left_volume(7)
    results.append(stubs.get_mic_left_volume())
    stubs.set_ACF(True)
    results.append(aux["chip"].extended_mode)
    return results


def _drive_ide(stubs, aux):
    stubs.set_irq_disabled(True)
    stubs.set_lba_mode(True)
    stubs.set_drive("MASTER")
    stubs.set_head(0)
    stubs.set_sector_count(1)
    stubs.set_lba_low(2)
    stubs.set_lba_mid(0)
    stubs.set_lba_high(0)
    stubs.set_command("READ_SECTORS")
    results = [stubs.get_ide_bsy(), stubs.get_ide_drq(),
               stubs.get_ide_err()]
    results.append(stubs.read_ide_data_block(256))
    results += [stubs.get_alt_status(), stubs.get_ide_error()]
    return results


def _drive_piix4(stubs, aux):
    stubs.set_prd_pointer(0x00010000)
    stubs.set_dma_direction("TO_MEMORY")
    results = [stubs.get_prd_pointer(), stubs.get_dma_direction()]
    stubs.set_dma_start(False)
    results += [stubs.get_bm_active(), stubs.get_bm_error(),
                stubs.get_bm_irq(), stubs.get_drive0_dma_capable()]
    return results


def _drive_permedia2(stubs, aux):
    stubs.set_pixel_depth("BPP8")
    stubs.set_scissor_min(scissor_min_x=0, scissor_min_y=0)
    stubs.set_scissor_max(scissor_max_x=64, scissor_max_y=48)
    stubs.set_window_origin(window_x=0, window_y=0)
    stubs.set_fb_write_mask(0xFFFFFFFF)
    stubs.set_logical_op(3)
    results = [stubs.get_fifo_space()]
    stubs.set_block_color(0x55)
    stubs.set_rect_x(2)
    stubs.set_rect_y(3)
    stubs.set_rect_width(8)
    stubs.set_rect_height(4)
    stubs.set_render("FILL_RECT")
    results += [stubs.get_graphics_busy(), stubs.get_fifo_overflow()]
    stubs.set_fb_address(0)
    stubs.write_fb_data_block([0x11, 0x22, 0x33])
    stubs.set_fb_address(0)
    results.append(stubs.read_fb_data_block(3))
    return results


WORKLOADS = {
    "busmouse": _drive_busmouse,
    "dma8237": _drive_dma8237,
    "pic8259": _drive_pic8259,
    "ne2000": _drive_ne2000,
    "cs4236": _drive_cs4236,
    "ide": _drive_ide,
    "piix4": _drive_piix4,
    "permedia2": _drive_permedia2,
}


# ---------------------------------------------------------------------------
# Transactional workload variants (shadow cache + txn coalescing)
# ---------------------------------------------------------------------------


def _drive_ide_txn(stubs, aux):
    """The IDE read-sector setup, written the coalescing way.

    The eight field writes of the command block collapse to one write
    per register (device/head composes three fields into one ``outb``),
    and the driver's defensive readbacks of the device/head fields are
    served by the shadow cache when it is enabled.
    """
    with stubs.txn():
        stubs.set_irq_disabled(True)
        stubs.set_lba_mode(True)
        stubs.set_drive("MASTER")
        stubs.set_head(0)
        stubs.set_sector_count(1)
        stubs.set_lba_low(2)
        stubs.set_lba_mid(0)
        stubs.set_lba_high(0)
    results = [stubs.get_lba_mode(), stubs.get_drive(),
               stubs.get_head(), stubs.get_sector_count()]
    stubs.set_command("READ_SECTORS")
    results += [stubs.get_ide_bsy(), stubs.get_ide_drq(),
                stubs.get_ide_err()]
    results.append(stubs.read_ide_data_block(256))
    results += [stubs.get_alt_status(), stubs.get_ide_error(),
                stubs.get_lba_low()]
    return results


def _drive_ne2000_txn(stubs, aux):
    """Remote-DMA programming with composed command writes.

    ``START`` and the remote-DMA command live in one command register;
    each transaction issues them as a single composed write (the
    ``START | REMOTE_*`` idiom of the hand-written driver), while the
    byte-count/address setup keeps its program order inside the flush.
    """
    with stubs.txn():
        stubs.set_remote_byte_count(8)
        stubs.set_remote_start_address(0x4000)
        stubs.set_st("START")
        stubs.set_rd("REMOTE_WRITE")
    stubs.write_dma_data_block([0x0102, 0x0304, 0x0506, 0x0708])
    with stubs.txn():
        stubs.set_remote_byte_count(8)
        stubs.set_remote_start_address(0x4000)
        stubs.set_rd("REMOTE_READ")
    return [stubs.read_dma_data_block(4),
            bytes(aux["nic"].ram[0:8])]


def _drive_permedia2_txn(stubs, aux):
    """A fill-rect primitive queued with packed-register writes.

    The four rectangle fields span two packed registers; a transaction
    writes each packed word once, exactly like the hand-written
    driver's two MMIO stores (Table 3's baseline).
    """
    stubs.set_pixel_depth("BPP8")
    stubs.set_fb_write_mask(0xFFFFFFFF)
    with stubs.txn():
        stubs.set_block_color(0x55)
        stubs.set_rect_x(2)
        stubs.set_rect_y(3)
        stubs.set_rect_width(8)
        stubs.set_rect_height(4)
    stubs.set_render("FILL_RECT")
    results = [stubs.get_graphics_busy(), stubs.get_fifo_space()]
    with stubs.txn():
        stubs.set_rect_x(12)
        stubs.set_rect_y(13)
        stubs.set_rect_width(4)
        stubs.set_rect_height(2)
        stubs.set_render("FILL_RECT")
    results += [stubs.get_graphics_busy(), stubs.get_fifo_overflow()]
    return results


#: Workloads exercising ``txn()`` blocks and shadow-served readbacks;
#: run by the parity suite with the cache both on and off.
TXN_WORKLOADS = {
    "ide": _drive_ide_txn,
    "ne2000": _drive_ne2000_txn,
    "permedia2": _drive_permedia2_txn,
}


# ---------------------------------------------------------------------------
# Binding under any strategy (telemetry-aware)
# ---------------------------------------------------------------------------

def bind_stubs(name: str, strategy: str, bus: Bus, bases: dict,
               debug: bool = False, shadow_cache: bool = False):
    """Bind spec ``name`` to ``bus`` under one execution strategy.

    Honours the :mod:`repro.obs` enabled flag: interpreted and
    specialized instances instrument themselves at bind time and report
    to ``bus.collector``.
    """
    return compile_shipped(name).bind(bus, bases, debug=debug,
                                      strategy=strategy,
                                      shadow_cache=shadow_cache)


def run_workload(name: str, strategy: str, debug: bool = False,
                 trace_limit: int | None = None,
                 shadow_cache: bool = False):
    """Build the machine, bind, drive; returns the evidence triple.

    ``(results, trace list, accounting snapshot)`` — the comparison
    payload of the strategy parity tests.
    """
    bus, aux, bases = build_machine(name, trace_limit=trace_limit)
    stubs = bind_stubs(name, strategy, bus, bases, debug,
                       shadow_cache=shadow_cache)
    results = WORKLOADS[name](stubs, aux)
    return results, list(bus.trace), bus.accounting.snapshot()


def run_txn_workload(name: str, strategy: str, debug: bool = False,
                     trace_limit: int | None = None,
                     shadow_cache: bool = False):
    """Like :func:`run_workload` for the transactional variants."""
    bus, aux, bases = build_machine(name, trace_limit=trace_limit)
    stubs = bind_stubs(name, strategy, bus, bases, debug,
                       shadow_cache=shadow_cache)
    results = TXN_WORKLOADS[name](stubs, aux)
    return results, list(bus.trace), bus.accounting.snapshot()
