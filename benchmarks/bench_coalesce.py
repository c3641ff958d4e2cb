"""Shadow cache + transactional coalescing: port ops and wall clock.

The tentpole measurement for the register shadow cache and the
transactional write batching (``with dev.txn(): ...``): the paper's
micro-analysis (§4.3, Tables 2-4) charges Devil for re-reading
registers it already knows and for writing a shared register once per
independent variable.  The access-plan analysis (:mod:`repro.devil.plan`)
removes both — non-volatile reads are served from a shadow copy, and
deferred writes flush as one compose per register.

Two driver-shaped inner loops, straight from the paper's tables:

* ``ide/command_setup`` — program a READ_SECTORS command (device/head
  fields, sector count, LBA bytes) and re-check the addressing fields
  before issuing, Table 2's "+3 ops to prepare a command" pattern;
* ``permedia2/fill_rect`` — the Table 3 fill-rectangle loop: colour,
  rectangle origin/size (two packed registers), render trigger.

Each loop runs in three variants on a non-tracing bus:

* ``plain`` — no transaction, shadow cache off (the pre-optimisation
  execution shape; with the cache off the new code adds only a
  constant ``is None`` guard per access, so this is also the
  cache-off overhead probe);
* ``txn`` — writes batched in a transaction, shadow cache off;
* ``txn+shadow`` — transactions plus the shadow cache.

For every variant the simulated port-operation count per iteration is
measured from bus accounting under **both** execution strategies
(they must agree exactly — the parity invariant), and wall-clock
iterations/sec are timed for the specialized stubs.

The timed machines charge a busy-wait port latency per I/O operation
(``--latency-us``, default 3.0): a Python dict poke does not model an
ISA/PCI port access, which costs a microsecond or more on the paper's
hardware (bus cycles plus device wait states) and is precisely why
its tables count operations.
Without a latency model every saved ``outb`` saves ~0.3 us of
simulator time and the batching bookkeeping could never win; with it
the wall clock tracks the operation counts, as on hardware.

The acceptance floor: ``txn+shadow`` performs >= 30% fewer port
operations than ``plain`` on both workloads, and is faster under the
latency model.  Results land in ``results/BENCH_coalesce.{txt,json}``.

Runs standalone (``python benchmarks/bench_coalesce.py [--quick]``, the
CI smoke step) and under pytest via :func:`test_coalesce_quick`.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for _path in (_HERE, _HERE.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from conftest import record

from repro.bus import Bus
from repro.devices.ide import REGION_SIZE as IDE_REGION
from repro.devices.ide import IdeControlPort, IdeDiskModel
from repro.devices.permedia2 import REGION_SIZE as PM2_REGION
from repro.devices.permedia2 import Permedia2Aperture, Permedia2Model
from repro.specs import compile_shipped

IDE_BASE = 0x1F0
IDE_CTRL = 0x3F6
PM2_REGS = 0xF000
PM2_FB = 0xF800

STRATEGIES = ("interpret", "specialize")
VARIANTS = ("plain", "txn", "txn+shadow")

#: Acceptance floor: the optimised variant must remove at least this
#: fraction of the plain variant's simulated port operations.
OPS_REDUCTION_FLOOR = 0.30

#: Busy-wait charged per port operation in the timed runs (ISA-class
#: port access cost; see the module docstring).
DEFAULT_LATENCY_US = 3.0


class _LatencyPort:
    """Wrap a simulated device so every port access busy-waits."""

    def __init__(self, inner, latency_s: float):
        self._inner = inner
        self._latency = latency_s

    def _spin(self) -> None:
        deadline = time.perf_counter() + self._latency
        while time.perf_counter() < deadline:
            pass

    def io_read(self, offset: int, width: int) -> int:
        self._spin()
        return self._inner.io_read(offset, width)

    def io_write(self, offset: int, value: int, width: int) -> None:
        self._spin()
        self._inner.io_write(offset, value, width)


# ---------------------------------------------------------------------------
# Driver-shaped inner loops
# ---------------------------------------------------------------------------


def _ide_setup_plain(device, sector):
    device.set_lba_mode(True)
    device.set_drive("MASTER")
    device.set_head((sector >> 24) & 0xF)
    device.set_sector_count(1)
    device.set_lba_low(sector & 0xFF)
    device.set_lba_mid((sector >> 8) & 0xFF)
    device.set_lba_high((sector >> 16) & 0xFF)
    # Driver-style sanity re-reads before issuing the command.
    assert device.get_lba_mode() is True
    assert device.get_drive() == "MASTER"
    device.get_sector_count()


def _ide_setup_txn(device, sector):
    with device.txn():
        device.set_lba_mode(True)
        device.set_drive("MASTER")
        device.set_head((sector >> 24) & 0xF)
        device.set_sector_count(1)
        device.set_lba_low(sector & 0xFF)
        device.set_lba_mid((sector >> 8) & 0xFF)
        device.set_lba_high((sector >> 16) & 0xFF)
    assert device.get_lba_mode() is True
    assert device.get_drive() == "MASTER"
    device.get_sector_count()


def _pm2_fill_plain(device, index):
    device.set_block_color(0x00FF00 ^ index)
    device.set_rect_x(index & 0x3F)
    device.set_rect_y((index >> 2) & 0x3F)
    device.set_rect_width(16)
    device.set_rect_height(8)
    device.set_render("FILL_RECT")


def _pm2_fill_txn(device, index):
    with device.txn():
        device.set_block_color(0x00FF00 ^ index)
        device.set_rect_x(index & 0x3F)
        device.set_rect_y((index >> 2) & 0x3F)
        device.set_rect_width(16)
        device.set_rect_height(8)
        device.set_render("FILL_RECT")


WORKLOADS = [
    ("ide/command_setup", "ide", _ide_setup_plain, _ide_setup_txn),
    ("permedia2/fill_rect", "permedia2", _pm2_fill_plain,
     _pm2_fill_txn),
]


# ---------------------------------------------------------------------------
# Machines and bindings
# ---------------------------------------------------------------------------


def _machine(name: str,
             latency_s: float = 0.0) -> tuple[Bus, dict[str, int]]:
    def port(device):
        return _LatencyPort(device, latency_s) if latency_s else device

    bus = Bus(tracing=False)
    if name == "ide":
        disk = IdeDiskModel(total_sectors=1 << 16)
        bus.map_device(IDE_BASE, IDE_REGION, port(disk), "ide")
        bus.map_device(IDE_CTRL, 1, port(IdeControlPort(disk)),
                       "ide-ctrl")
        return bus, {"cmd": IDE_BASE, "data": IDE_BASE,
                     "data32": IDE_BASE, "ctrl": IDE_CTRL}
    if name == "permedia2":
        gpu = Permedia2Model(width=64, height=48)
        bus.map_device(PM2_REGS, PM2_REGION, port(gpu), "permedia2")
        bus.map_device(PM2_FB, 1, port(Permedia2Aperture(gpu)),
                       "permedia2-fb")
        return bus, {"regs": PM2_REGS, "fb": PM2_FB}
    raise ValueError(f"no machine for {name!r}")


def _bind(name: str, strategy: str, bus: Bus, bases: dict[str, int],
          shadow_cache: bool):
    return compile_shipped(name).bind(bus, bases, debug=False,
                                      strategy=strategy,
                                      shadow_cache=shadow_cache)


def _variant_driver(workload, variant):
    _, _, plain, txn = workload
    return plain if variant == "plain" else txn


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _ops_per_iteration(workload, variant: str, strategy: str,
                       iterations: int = 16) -> dict:
    name, machine, _, _ = workload
    drive = _variant_driver(workload, variant)
    bus, bases = _machine(machine)
    device = _bind(machine, strategy, bus, bases,
                   shadow_cache=(variant == "txn+shadow"))
    drive(device, 0)  # warm the shadow/register caches
    before = bus.accounting.snapshot()
    for index in range(1, iterations + 1):
        drive(device, index)
    delta = bus.accounting.delta(before)
    return {
        "ops": delta.total_ops / iterations,
        "reads": delta.reads / iterations,
        "writes": delta.writes / iterations,
        "elided": delta.elided_reads / iterations,
        "coalesced": delta.coalesced_writes / iterations,
    }


def _iters_per_sec(workload, variant: str, strategy: str,
                   iterations: int, repeats: int,
                   latency_s: float) -> float:
    _, machine, _, _ = workload
    drive = _variant_driver(workload, variant)
    bus, bases = _machine(machine, latency_s)
    device = _bind(machine, strategy, bus, bases,
                   shadow_cache=(variant == "txn+shadow"))
    drive(device, 0)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for index in range(iterations):
            drive(device, index)
        best = min(best, time.perf_counter() - start)
    return iterations / best


def run_bench(quick: bool = False, iterations: int | None = None,
              repeats: int | None = None,
              latency_us: float | None = None) -> dict:
    iterations = iterations or (500 if quick else 5000)
    repeats = repeats or (2 if quick else 5)
    if latency_us is None:
        latency_us = DEFAULT_LATENCY_US
    latency_s = latency_us * 1e-6

    rows = []
    for workload in WORKLOADS:
        name = workload[0]
        for variant in VARIANTS:
            profiles = {strategy: _ops_per_iteration(workload, variant,
                                                     strategy)
                        for strategy in STRATEGIES}
            reference = profiles["interpret"]
            for strategy, profile in profiles.items():
                assert profile == reference, \
                    f"{name}/{variant}: {strategy} performed " \
                    f"{profile} vs interpret {reference}"
            rates = {"specialize": _iters_per_sec(
                workload, variant, "specialize", iterations, repeats,
                latency_s)}
            rows.append({"workload": name, "variant": variant,
                         **reference, "iters_per_sec": rates})

    lines = [
        "Shadow cache + write coalescing: simulated port operations "
        "per iteration",
        f"and wall clock (best of {repeats} x {iterations} "
        f"iterations, release mode, {latency_us:g} us simulated "
        "latency per port op;",
        "per-variant counts verified identical across interpret/"
        "specialize):",
        "",
        f"{'workload':<22} {'variant':<11} {'ops':>6} {'reads':>6} "
        f"{'writes':>7} {'elided':>7} {'merged':>7} "
        f"{'spec it/s':>10}",
    ]
    by_key = {(row["workload"], row["variant"]): row for row in rows}
    for row in rows:
        rates = row["iters_per_sec"]
        lines.append(
            f"{row['workload']:<22} {row['variant']:<11} "
            f"{row['ops']:>6.1f} {row['reads']:>6.1f} "
            f"{row['writes']:>7.1f} {row['elided']:>7.1f} "
            f"{row['coalesced']:>7.1f} "
            f"{rates['specialize']:>10,.0f}")

    lines.append("")
    summary = []
    for workload in WORKLOADS:
        name = workload[0]
        plain = by_key[(name, "plain")]
        best = by_key[(name, "txn+shadow")]
        reduction = 1.0 - best["ops"] / plain["ops"]
        speedup = best["iters_per_sec"]["specialize"] / \
            plain["iters_per_sec"]["specialize"]
        summary.append({"workload": name,
                        "ops_plain": plain["ops"],
                        "ops_optimised": best["ops"],
                        "ops_reduction": reduction,
                        "wallclock_speedup_specialize": speedup})
        lines.append(
            f"{name}: {plain['ops']:.1f} -> {best['ops']:.1f} port "
            f"ops/iter ({reduction:.0%} fewer), "
            f"{speedup:.2f}x wall clock (specialized stubs)")
    lines.append(
        "cache off (the 'plain' rows) adds only a per-access is-None "
        "guard over the")
    lines.append(
        "pre-optimisation stubs; its port-operation counts are pinned "
        "by results/io_golden.json")

    report = {"quick": quick, "iterations": iterations,
              "repeats": repeats, "latency_us": latency_us,
              "ops_reduction_floor": OPS_REDUCTION_FLOOR,
              "rows": rows, "summary": summary}
    record("BENCH_coalesce", "\n".join(lines), data=report)

    for entry in summary:
        assert entry["ops_reduction"] >= OPS_REDUCTION_FLOOR, \
            f"{entry['workload']}: only {entry['ops_reduction']:.0%} " \
            f"fewer port ops (floor {OPS_REDUCTION_FLOOR:.0%})"
        if not quick:
            assert entry["wallclock_speedup_specialize"] > 1.0, \
                f"{entry['workload']}: optimised variant is slower " \
                f"({entry['wallclock_speedup_specialize']:.2f}x)"
    return report


def test_coalesce_quick():
    """Pytest entry point: the quick smoke run (parity + ops floor)."""
    run_bench(quick=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small iteration counts (CI smoke run)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="timed iterations per measurement")
    parser.add_argument("--repeats", type=int, default=None,
                        help="measurement repeats (best is kept)")
    parser.add_argument("--latency-us", type=float, default=None,
                        help="simulated per-port-op latency in "
                             f"microseconds (default "
                             f"{DEFAULT_LATENCY_US:g})")
    options = parser.parse_args(argv)
    run_bench(quick=options.quick, iterations=options.iterations,
              repeats=options.repeats, latency_us=options.latency_us)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
