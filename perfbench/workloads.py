"""The benchmark's workloads, driven through the program's public API.

Each workload has three parts:

* ``setup()`` — what a fresh process pays before the first operation:
  importing the program and compiling the shipped specifications (the
  driver workloads, through the first driver bind) or building the
  mutation target registry (the campaign).  ``setup_probe.py`` times
  exactly this.
* ``build(seed)`` — a fresh simulated machine with a bound driver.
* ``ops(seed)`` — the seeded, endless operation stream, executed one
  call at a time (a closed loop with one client).

The campaign has no machine or stream: it repeats whole cold
``run_campaign`` calls, and ``run()``/``check()`` take their place.

This module imports only the standard library at load time, so the
set-up probe's clock covers every program import.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

#: Sectors per IDE command: one 4 KiB page.
IDE_SECTORS = 8
#: Disk size; commands land anywhere on it.
IDE_DISK_SECTORS = 8192
#: Share of IDE commands that are writes (exactly 2 of every 10), and
#: of commands that interrupt per sector rather than per page.
IDE_WRITES_PER_10 = 2
IDE_SINGLE_IRQ_SHARE = 0.25

SCREEN_WIDTH = 1024
SCREEN_HEIGHT = 768
#: Share of X11 primitives that are screen copies; the rest are fills.
#: Kept well away from 1/2 so the latency median stays inside the fill
#: population instead of flipping between the two.
X11_COPY_SHARE = 0.25
#: One mode switch every this many operations.
X11_MODE_EVERY = 256

#: The paper's Table 1 scope: its three devices (piix4 carries the IDE
#: busmaster half of the IDE row) in every driver style, every site,
#: one mutant per site.
CAMPAIGN_SPECS = ("busmouse", "ide", "ne2000", "piix4")


@dataclass(frozen=True)
class Op:
    """One closed-loop call.  ``items`` is what it contributes to the
    workload's item count (0 for calls that are not items)."""

    kind: str
    args: tuple
    items: int


class IdeMachine:
    """Disk + PIIX4 on a fresh bus, driven by ``DevilIdeDriver``."""

    def __init__(self, seed: int, use_block: bool):
        from repro.bus import Bus
        from repro.devices.ide import REGION_SIZE, IdeControlPort, \
            IdeDiskModel
        from repro.devices.piix4 import REGION_SIZE as BM_REGION
        from repro.devices.piix4 import Piix4Model
        from repro.drivers import DevilIdeDriver

        self.use_block = use_block
        self.bus = Bus()
        self.disk = IdeDiskModel(total_sectors=IDE_DISK_SECTORS)
        self.disk.store[:] = random.Random(seed).randbytes(
            len(self.disk.store))
        self.expected = bytearray(self.disk.store)
        control = IdeControlPort(self.disk)
        busmaster = Piix4Model(self.disk, bytearray(1 << 16))
        self.bus.map_device(0x1F0, REGION_SIZE, self.disk, "ide")
        self.bus.map_device(0x3F6, 1, control, "ide-ctrl")
        self.bus.map_device(0xC000, BM_REGION, busmaster, "piix4")
        self.devices = (self.disk, control, busmaster)
        self.driver = DevilIdeDriver(self.bus)
        self.driver.set_multiple(IDE_SECTORS)

    def call(self, op: Op):
        lba, per_irq, data = op.args
        if op.kind == "read":
            return self.driver.read_sectors(
                lba, IDE_SECTORS, sectors_per_irq=per_irq,
                use_block=self.use_block)
        return self.driver.write_sectors(
            lba, data, sectors_per_irq=per_irq, use_block=self.use_block)

    def check(self, op: Op, result) -> bool:
        lba, _, data = op.args
        span = slice(lba * 512, (lba + IDE_SECTORS) * 512)
        if op.kind == "read":
            return result == self.disk.store[span] == self.expected[span]
        self.expected[span] = data
        return self.disk.store[span] == data

    def check_end_state(self) -> bool:
        return self.disk.store == self.expected

    def counters(self) -> dict:
        return {"accounting": self.bus.accounting.snapshot(),
                "interrupts": self.disk.interrupts_raised}

    def sim_stats(self, before: dict, items: int) -> dict:
        """Exact simulated statistics since ``before`` (a
        :meth:`counters` snapshot), priced by the paper's cost model."""
        from repro.perf import CostModel

        delta = self.bus.accounting.delta(before["accounting"])
        interrupts = self.disk.interrupts_raised - before["interrupts"]
        sim_us = CostModel().pio_time_us(delta, interrupts)
        return {"single_by_width": dict(sorted(
                    delta.single_by_width.items())),
                "block_ops": delta.block_ops,
                "block_words_by_width": dict(sorted(
                    delta.block_words_by_width.items())),
                "interrupts": interrupts, "fifo_polls": 0,
                "items": items, "sim_us": sim_us,
                "sim_mb_s": items * 512 / sim_us, "sim_prims_per_s": 0.0}


class X11Machine:
    """Permedia2 on a fresh bus, driven by ``DevilPermedia2Driver``,
    with a reference framebuffer updated alongside."""

    REGS, FB = 0xF000_0000, 0xF100_0000

    def __init__(self, seed: int):
        import numpy as np
        from repro.bus import Bus
        from repro.devices.permedia2 import REGION_SIZE, \
            Permedia2Aperture, Permedia2Model
        from repro.drivers import DevilPermedia2Driver

        self.bus = Bus()
        self.gpu = Permedia2Model(width=SCREEN_WIDTH, height=SCREEN_HEIGHT)
        aperture = Permedia2Aperture(self.gpu)
        self.bus.map_device(self.REGS, REGION_SIZE, self.gpu, "permedia2")
        self.bus.map_device(self.FB, 1, aperture, "permedia2-fb")
        self.devices = (self.gpu, aperture)
        self.driver = DevilPermedia2Driver(self.bus, self.REGS, self.FB)
        self.reference = np.zeros_like(self.gpu.framebuffer)
        self.depth = random.Random(seed).choice((8, 16, 24, 32))
        self.driver.set_mode(self.depth, SCREEN_WIDTH, SCREEN_HEIGHT)
        #: Engine bytes by primitive kind and the copy count, for the
        #: cost model.
        self.engine_bytes = {"fill": 0, "copy": 0}
        self.copies = 0
        self._bytes_seen = self.gpu.bytes_touched

    def call(self, op: Op):
        if op.kind == "fill":
            return self.driver.fill_rect(*op.args)
        if op.kind == "copy":
            return self.driver.screen_copy(*op.args)
        return self.driver.set_mode(*op.args)

    def check(self, op: Op, result) -> bool:
        if op.kind == "mode":
            self.depth = op.args[0]
            return self.gpu.depth_code == (8, 16, 24, 32).index(self.depth)
        self.engine_bytes[op.kind] += \
            self.gpu.bytes_touched - self._bytes_seen
        self._bytes_seen = self.gpu.bytes_touched
        if op.kind == "fill":
            x, y, width, height, color = op.args
            self.reference[y:y + height, x:x + width] = color
        else:
            src_x, src_y, x, y, width, height = op.args
            self.copies += 1
            self.reference[y:y + height, x:x + width] = \
                self.reference[src_y:src_y + height,
                               src_x:src_x + width].copy()
        # The drawn rectangle plus a one-pixel border catches both a
        # wrong fill and drawing outside the rectangle.
        rows = slice(max(y - 1, 0), y + height + 1)
        cols = slice(max(x - 1, 0), x + width + 1)
        return bool((self.gpu.framebuffer[rows, cols]
                     == self.reference[rows, cols]).all())

    def check_end_state(self) -> bool:
        return bool((self.gpu.framebuffer == self.reference).all()) and \
            self.gpu.fifo_overflows == 0

    def counters(self) -> dict:
        return {"accounting": self.bus.accounting.snapshot(),
                "polls": self.driver.wait_iterations,
                "engine_bytes": dict(self.engine_bytes),
                "copies": self.copies}

    def sim_stats(self, before: dict, items: int) -> dict:
        from repro.perf import CostModel

        cost = CostModel()
        delta = self.bus.accounting.delta(before["accounting"])
        fill = self.engine_bytes["fill"] - before["engine_bytes"]["fill"]
        copy = self.engine_bytes["copy"] - before["engine_bytes"]["copy"]
        copies = self.copies - before["copies"]
        sim_us = cost.mmio_time_us(delta) + cost.fill_time_us(fill) + \
            cost.copy_time_us(copy, copies)
        return {"single_by_width": dict(sorted(
                    delta.single_by_width.items())),
                "block_ops": delta.block_ops,
                "block_words_by_width": dict(sorted(
                    delta.block_words_by_width.items())),
                "interrupts": 0,
                "fifo_polls": self.driver.wait_iterations - before["polls"],
                "items": items, "sim_us": sim_us, "sim_mb_s": 0.0,
                "sim_prims_per_s": items / (sim_us / 1e6)}


class DriverWorkload:
    """A paper driver running a seeded command stream."""

    def __init__(self, name: str, item_unit: str, pass_ops: int):
        self.name = name
        self.item_unit = item_unit
        #: Operations in one fixed-length pass (the traced run's unit of
        #: work, and the prefix its exact statistics are taken over).
        self.pass_ops = pass_ops

    def setup(self) -> None:
        # The first bind compiles the shipped specifications; later
        # machines in this process reuse them, as a driver would.
        self.build(0)


class IdeWorkload(DriverWorkload):
    def __init__(self, name: str, use_block: bool, pass_ops: int):
        super().__init__(name, "sector", pass_ops)
        self.use_block = use_block

    def build(self, seed: int) -> IdeMachine:
        return IdeMachine(seed, self.use_block)

    def ops(self, seed: int):
        rng = random.Random(seed)
        size = IDE_SECTORS * 512
        payloads = [rng.randbytes(size) for _ in range(8)]
        while True:
            kinds = ["write"] * IDE_WRITES_PER_10 + \
                ["read"] * (10 - IDE_WRITES_PER_10)
            rng.shuffle(kinds)
            for kind in kinds:
                lba = rng.randrange(IDE_DISK_SECTORS - IDE_SECTORS + 1)
                per_irq = 1 if rng.random() < IDE_SINGLE_IRQ_SHARE \
                    else IDE_SECTORS
                data = rng.choice(payloads) if kind == "write" else None
                yield Op(kind, (lba, per_irq, data), IDE_SECTORS)


class X11Workload(DriverWorkload):
    def __init__(self):
        super().__init__("x11_prims", "primitive", 2048)

    def build(self, seed: int) -> X11Machine:
        return X11Machine(seed)

    def ops(self, seed: int):
        rng = random.Random(seed)
        index = 0
        while True:
            index += 1
            if index % X11_MODE_EVERY == 0:
                yield Op("mode", (rng.choice((8, 16, 24, 32)),
                                  SCREEN_WIDTH, SCREEN_HEIGHT), 0)
                continue
            size = rng.choice((2, 10))
            x = rng.randrange(SCREEN_WIDTH - size + 1)
            y = rng.randrange(SCREEN_HEIGHT - size + 1)
            if rng.random() < X11_COPY_SHARE:
                src_x = rng.randrange(SCREEN_WIDTH - size + 1)
                src_y = rng.randrange(SCREEN_HEIGHT - size + 1)
                yield Op("copy", (src_x, src_y, x, y, size, size), 1)
            else:
                yield Op("fill", (x, y, size, size,
                                  rng.getrandbits(32)), 1)


class CampaignWorkload:
    """A cold serial ``run_campaign`` over the Table 1 scope."""

    name = "table1_campaign"
    item_unit = "mutant classified"

    def config(self):
        from repro.mutation import CampaignConfig, MutantCaps

        return CampaignConfig(specs=CAMPAIGN_SPECS,
                              caps=MutantCaps.quick(1), backend="serial")

    def setup(self) -> None:
        from repro.mutation import get_target, target_ids

        for target_id in target_ids(CAMPAIGN_SPECS):
            get_target(target_id)

    def run(self, cache_root, run_campaign=None):
        """One cold campaign with a fresh verdict cache at
        ``cache_root``; ``run_campaign`` may be a traced wrapper."""
        from repro.mutation import VerdictCache
        from repro.mutation import run_campaign as plain

        return (run_campaign or plain)(self.config(),
                                       cache=VerdictCache(cache_root))

    @staticmethod
    def records(result) -> list[dict]:
        return [record for records in result.report.records.values()
                for record in records]

    @staticmethod
    def record_digest(record: dict) -> str:
        text = json.dumps(record, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def fingerprint(self, result) -> dict:
        """What the reference pins: every unit's verdict, the whole
        report, and its Table 1 projection."""
        return {
            "report_sha256": hashlib.sha256(
                result.report.to_json().encode()).hexdigest(),
            "table1": result.report.table1_rows(),
            "units": {record["key"]: self.record_digest(record)
                      for record in self.records(result)},
        }

    def check(self, result, reference: dict) -> tuple[int, int]:
        """``(attempted, failed)`` for one campaign against
        ``reference``: each unit verdict is one operation, the
        assembled report (digest and Table 1 projection) one more."""
        got = self.fingerprint(result)
        expected = reference["units"]
        failed = sum(1 for key, digest in expected.items()
                     if got["units"].get(key) != digest)
        failed += len(set(got["units"]) - set(expected))
        report_ok = got["report_sha256"] == reference["report_sha256"] \
            and got["table1"] == reference["table1"]
        return len(expected) + 1, failed + (not report_ok)


WORKLOADS = {
    "ide_word": lambda: IdeWorkload("ide_word", False, 16),
    "ide_block": lambda: IdeWorkload("ide_block", True, 64),
    "x11_prims": X11Workload,
    "table1_campaign": CampaignWorkload,
}
