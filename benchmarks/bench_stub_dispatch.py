"""Stub dispatch cost: interpreted vs specialized stubs.

The tentpole measurement for bind-time stub specialization
(:mod:`repro.devil.specialize`): partial evaluation folds masks,
shifts, neutral values, enum tables and absolute port addresses into
straight-line closures, so a stub call stops walking the resolved
model.  This bench times calls/sec of representative stubs on the
busmouse, IDE and Permedia2 machines for the two execution strategies:

* ``interpret`` — ``bind(..., strategy="interpret")``, the default
  model-walking runtime;
* ``specialize`` — ``bind(..., strategy="specialize")``, closures
  compiled at bind time (the repository's stand-in for the paper's
  compiled C stubs).

Before timing, every workload is replayed on tracing buses and the
I/O traces and accounting counters of both strategies must be
identical — speed must not change semantics.  The script asserts the
acceptance floor (specialized ≥ 3x interpreted on the busmouse
``get_dx`` and IDE status workloads) and records the table plus a
machine-readable payload as ``results/BENCH_stub_dispatch.{txt,json}``.

Runs standalone (``python benchmarks/bench_stub_dispatch.py
[--quick]``, no pytest needed — this is what CI's smoke step does) and
under pytest via :func:`test_stub_dispatch_quick`.
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
from repro.devices.busmouse import REGION_SIZE as MOUSE_REGION
from repro.devices.busmouse import BusmouseModel
from repro.devices.ide import REGION_SIZE as IDE_REGION
from repro.devices.ide import IdeControlPort, IdeDiskModel
from repro.devices.permedia2 import REGION_SIZE as PM2_REGION
from repro.devices.permedia2 import Permedia2Aperture, Permedia2Model
from repro.specs import compile_shipped

MOUSE_BASE = 0x23C
IDE_BASE = 0x1F0
IDE_CTRL = 0x3F6
PM2_REGS = 0xF000
PM2_FB = 0xF800

STRATEGIES = ("interpret", "specialize")

#: (workload name, machine, setup, one timed call).  The setup runs
#: once per binding; ``get_dx`` deliberately reads a member of an
#: already-fetched snapshot — the purest dispatch-overhead probe.
WORKLOADS = [
    ("busmouse/get_dx", "busmouse",
     lambda d: d.get_mouse_state(), lambda d: d.get_dx()),
    ("busmouse/get_mouse_state", "busmouse",
     None, lambda d: d.get_mouse_state()),
    ("busmouse/set_config", "busmouse",
     None, lambda d: d.set_config("CONFIGURATION")),
    ("ide/status_poll", "ide",
     None, lambda d: d.get_ide_drq()),
    ("ide/set_sector_count", "ide",
     None, lambda d: d.set_sector_count(1)),
    ("permedia2/get_fifo_space", "permedia2",
     None, lambda d: d.get_fifo_space()),
    ("permedia2/set_rect_width", "permedia2",
     None, lambda d: d.set_rect_width(64)),
]

#: Acceptance floor: specialized must beat interpreted by this factor
#: on the two hot-path workloads (release mode).
SPEEDUP_FLOOR = 3.0
FLOOR_WORKLOADS = ("busmouse/get_dx", "ide/status_poll")


def _machine(name: str, tracing: bool,
             bus_factory=Bus) -> tuple[Bus, dict[str, int]]:
    bus = bus_factory(tracing=tracing)
    if name == "busmouse":
        bus.map_device(MOUSE_BASE, MOUSE_REGION, BusmouseModel(),
                       "busmouse")
        return bus, {"base": MOUSE_BASE}
    if name == "ide":
        disk = IdeDiskModel(total_sectors=16)
        bus.map_device(IDE_BASE, IDE_REGION, disk, "ide")
        bus.map_device(IDE_CTRL, 1, IdeControlPort(disk), "ide-ctrl")
        return bus, {"cmd": IDE_BASE, "data": IDE_BASE,
                     "data32": IDE_BASE, "ctrl": IDE_CTRL}
    if name == "permedia2":
        gpu = Permedia2Model(width=64, height=48)
        bus.map_device(PM2_REGS, PM2_REGION, gpu, "permedia2")
        bus.map_device(PM2_FB, 1, Permedia2Aperture(gpu), "permedia2-fb")
        return bus, {"regs": PM2_REGS, "fb": PM2_FB}
    raise ValueError(f"no machine for {name!r}")


def _bind(name: str, strategy: str, bus: Bus, bases: dict[str, int],
          debug: bool):
    return compile_shipped(name).bind(bus, bases, debug=debug,
                                      strategy=strategy)


def _check_parity(workload, debug: bool, calls: int = 8) -> None:
    """Replay ``workload`` on tracing buses; both strategies must issue
    a byte-identical I/O trace with identical accounting."""
    name, machine, setup, op = workload
    observed = {}
    for strategy in STRATEGIES:
        bus, bases = _machine(machine, tracing=True)
        device = _bind(machine, strategy, bus, bases, debug)
        if setup is not None:
            setup(device)
        for _ in range(calls):
            op(device)
        observed[strategy] = (list(bus.trace),
                              bus.accounting.snapshot())
    assert observed["specialize"] == observed["interpret"], \
        f"{name} (debug={debug}): specialize diverged from the " \
        f"interpreter"


def _calls_per_sec(workload, strategy: str, debug: bool,
                   iterations: int, repeats: int) -> float:
    _, machine, setup, op = workload
    bus, bases = _machine(machine, tracing=False)
    device = _bind(machine, strategy, bus, bases, debug)
    if setup is not None:
        setup(device)
    op(device)  # warm caches and lazy paths outside the timed loop
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iterations):
            op(device)
        best = min(best, time.perf_counter() - start)
    return iterations / best


def run_bench(quick: bool = False, iterations: int | None = None,
              repeats: int | None = None) -> dict:
    iterations = iterations or (1000 if quick else 10000)
    repeats = repeats or (2 if quick else 3)

    rows = []
    for workload in WORKLOADS:
        name = workload[0]
        for debug in (False, True):
            _check_parity(workload, debug)
            rates = {strategy: _calls_per_sec(workload, strategy, debug,
                                              iterations, repeats)
                     for strategy in STRATEGIES}
            rows.append({
                "workload": name,
                "debug": debug,
                "calls_per_sec": rates,
                "speedup_specialize": rates["specialize"] /
                rates["interpret"],
                "parity": True,
            })

    lines = [
        "Stub dispatch, calls/sec (best of "
        f"{repeats} x {iterations} calls; identical I/O traces "
        "verified first):",
        "",
        f"{'workload':<26} {'mode':<8} {'interpret':>11} "
        f"{'specialize':>11} {'spec/int':>9}",
    ]
    for row in rows:
        rates = row["calls_per_sec"]
        lines.append(
            f"{row['workload']:<26} "
            f"{'debug' if row['debug'] else 'release':<8} "
            f"{rates['interpret']:>11,.0f} "
            f"{rates['specialize']:>11,.0f} "
            f"{row['speedup_specialize']:>8.1f}x")
    report = {"quick": quick, "iterations": iterations,
              "repeats": repeats, "speedup_floor": SPEEDUP_FLOOR,
              "rows": rows}
    record("BENCH_stub_dispatch", "\n".join(lines), data=report)

    for row in rows:
        if row["workload"] in FLOOR_WORKLOADS and not row["debug"]:
            assert row["speedup_specialize"] >= SPEEDUP_FLOOR, \
                f"{row['workload']}: specialized only " \
                f"{row['speedup_specialize']:.2f}x interpreted " \
                f"(floor {SPEEDUP_FLOOR}x)"
    return report


def test_stub_dispatch_quick():
    """Pytest entry point: the quick smoke run (parity + floor)."""
    run_bench(quick=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small iteration counts (CI smoke run)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="timed calls per measurement")
    parser.add_argument("--repeats", type=int, default=None,
                        help="measurement repeats (best is kept)")
    options = parser.parse_args(argv)
    run_bench(quick=options.quick, iterations=options.iterations,
              repeats=options.repeats)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
