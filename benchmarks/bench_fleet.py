"""Fleet throughput: requests/sec and scaling efficiency by worker count.

The tentpole measurement for the concurrent device-fleet engine: a
mixed fleet — IDE disks serving one-sector PIO reads, Permedia2 GPUs
filling rectangles, NE2000 NICs polling their receive rings — is
driven through :class:`repro.engine.Fleet` with 1, 2, 4 and 8 workers
and the same request schedule, and we measure end-to-end requests/sec.

The machines charge a **sleeping** port latency per bus operation
(``--latency-us``, default 20.0 plus 0.2 per block word).  The sleep
releases the GIL, so — exactly like real programmed I/O stalling one
core while others keep working — latency on one device overlaps with
computation and latency on others.  This is deliberately different
from ``bench_coalesce.py``'s busy-wait latency, which holds the GIL
and would (correctly) show that pure Python bookkeeping does not scale
across threads.  What scales is what scales on hardware: the I/O wait.

Reported per worker count:

* requests/sec over the whole mixed schedule;
* speedup vs the single worker;
* scaling efficiency (speedup / workers);
* exactness — merged accounting totals must be identical across all
  worker counts (the deterministic round-robin schedule guarantees it,
  the thread-safe bus makes it true under contention).

Acceptance floors (CI-enforced): >= 2.5x throughput at 4 workers, and
identical port-op totals at every worker count.  An 8-thread
single-device stress leg (exact accounting + state parity vs a serial
reference, every strategy) rides along so a scheduling or locking
regression fails this benchmark even when throughput looks healthy.
Results land in ``results/BENCH_fleet.{txt,json}``.

Runs standalone (``python benchmarks/bench_fleet.py [--quick]``, the
CI smoke step) and under pytest via :func:`test_fleet_bench_quick`.
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

from repro.engine import (
    Fleet,
    ProcessFleet,
    ide_sector_read,
    mixed_schedule,
    run_stress,
)

#: Acceptance floor: 4 workers must deliver at least this speedup.
MIN_SPEEDUP_AT_4 = 2.5

WORKER_COUNTS = (1, 2, 4, 8)

#: The mixed fleet: 4 disks, 4 GPUs, 4 NICs on one bus.
FLEET = ["ide"] * 4 + ["permedia2"] * 4 + ["ne2000"] * 4


def run_fleet(workers: int, schedule, strategy: str,
              latency_us: float, word_latency_us: float,
              backend: str = "thread"):
    """One timed run; returns (requests/sec, accounting snapshot)."""
    cls = ProcessFleet if backend == "process" else Fleet
    with cls(FLEET, strategy=strategy, workers=workers,
             policy="round-robin", queue_depth=64,
             op_latency_us=latency_us,
             word_latency_us=word_latency_us) as fleet:
        start = time.perf_counter()
        fleet.run(schedule)
        elapsed = time.perf_counter() - start
        accounting = fleet.accounting
        if backend == "thread":
            accounting = accounting.snapshot()
        assert fleet.completed() == len(schedule)
    return len(schedule) / elapsed, accounting


def scaling_table(schedule, strategy: str, latency_us: float,
                  word_latency_us: float, backend: str = "thread"):
    """Throughput at each worker count + exactness cross-check."""
    rows = []
    reference = None
    base_rate = None
    for workers in WORKER_COUNTS:
        rate, accounting = run_fleet(workers, schedule, strategy,
                                     latency_us, word_latency_us,
                                     backend)
        if reference is None:
            reference = accounting
            base_rate = rate
        elif accounting != reference:
            raise AssertionError(
                f"accounting diverged at {workers} workers:\n"
                f"  1 worker : {reference}\n"
                f"  {workers} workers: {accounting}")
        speedup = rate / base_rate
        rows.append({"workers": workers, "rps": rate,
                     "speedup": speedup,
                     "efficiency": speedup / workers})
    return rows, reference


def render(rows, accounting, strategy, schedule_len, latency_us,
           word_latency_us, stress_iterations,
           backend: str = "thread") -> str:
    lines = [
        "Fleet throughput: mixed workload "
        "(4x IDE sector read, 4x PM2 fill rect, 4x NE2000 ring poll)",
        f"backend={backend}  strategy={strategy}  "
        f"requests={schedule_len}  "
        f"latency={latency_us:.1f}us/op + {word_latency_us:.2f}us/word",
        "",
        f"{'workers':>8} | {'req/s':>10} | {'speedup':>8} | "
        f"{'efficiency':>10}",
        "-" * 46,
    ]
    for row in rows:
        lines.append(
            f"{row['workers']:>8} | {row['rps']:>10.1f} | "
            f"{row['speedup']:>7.2f}x | {row['efficiency']:>9.0%}")
    lines += [
        "",
        f"port ops (identical at every worker count): "
        f"total={accounting.total_ops} reads={accounting.reads} "
        f"writes={accounting.writes} block_ops={accounting.block_ops} "
        f"block_words={accounting.block_words}",
        f"stress: 8 threads x 1 device x {stress_iterations} iterations "
        f"per strategy — exact accounting + state parity vs serial "
        f"reference: ok",
    ]
    return "\n".join(lines)


def stress_leg(iterations: int) -> None:
    """The ISSUE acceptance stress: 8 threads against one device."""
    schedule = [("ide", ide_sector_read)] * 16
    for strategy in ("interpret", "specialize", "generated"):
        reference = None
        for _ in range(iterations):
            reference = run_stress(["ide"], schedule, workers=8,
                                   strategy=strategy,
                                   reference=reference)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small schedule + fewer stress iterations "
                             "(CI smoke)")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per spec in the mixed schedule")
    parser.add_argument("--strategy", default="specialize",
                        choices=("interpret", "specialize", "generated"))
    parser.add_argument("--backend", default="thread",
                        choices=("thread", "process"),
                        help="fleet backend; the speedup floor applies "
                             "to the thread backend only (this is a "
                             "GIL-releasing I/O workload — see "
                             "bench_fleet_mp.py for the CPU-bound "
                             "comparison the process backend wins)")
    parser.add_argument("--latency-us", type=float, default=20.0,
                        help="sleeping latency charged per port op")
    parser.add_argument("--word-latency-us", type=float, default=0.2,
                        help="extra latency per block word")
    parser.add_argument("--stress-iterations", type=int, default=None)
    args = parser.parse_args(argv)

    per_spec = args.requests or (24 if args.quick else 64)
    stress_iterations = args.stress_iterations \
        or (10 if args.quick else 100)
    schedule = mixed_schedule(per_spec)

    rows, accounting = scaling_table(schedule, args.strategy,
                                     args.latency_us,
                                     args.word_latency_us,
                                     args.backend)
    stress_leg(stress_iterations)

    table = render(rows, accounting, args.strategy, len(schedule),
                   args.latency_us, args.word_latency_us,
                   stress_iterations, args.backend)
    record("BENCH_fleet", table, data={
        "backend": args.backend,
        "strategy": args.strategy,
        "requests": len(schedule),
        "latency_us": args.latency_us,
        "word_latency_us": args.word_latency_us,
        "rows": rows,
        "port_ops": {
            "total_ops": accounting.total_ops,
            "reads": accounting.reads,
            "writes": accounting.writes,
            "block_ops": accounting.block_ops,
            "block_words": accounting.block_words,
        },
        "stress_iterations": stress_iterations,
    })

    at4 = next(row for row in rows if row["workers"] == 4)
    if args.backend != "thread":
        print(f"INFO: {at4['speedup']:.2f}x at 4 workers "
              f"({args.backend} backend; the {MIN_SPEEDUP_AT_4}x "
              f"floor applies to the thread backend)")
        return 0
    if at4["speedup"] < MIN_SPEEDUP_AT_4:
        print(f"FAIL: {at4['speedup']:.2f}x at 4 workers "
              f"(floor {MIN_SPEEDUP_AT_4}x)", file=sys.stderr)
        return 1
    print(f"OK: {at4['speedup']:.2f}x at 4 workers "
          f"(floor {MIN_SPEEDUP_AT_4}x)")
    return 0


def test_fleet_bench_quick():
    """Pytest entry: tiny schedule, no acceptance floor on speed.

    Exactness (identical accounting at every worker count) and the
    stress leg still assert; only the throughput floor is waived — CI
    machines under load make wall-clock floors flaky in unit tests,
    and the floor is enforced by the standalone CI smoke run instead.
    """
    schedule = mixed_schedule(8)
    rows, accounting = scaling_table(schedule, "specialize", 20.0, 0.2)
    assert accounting.total_ops > 0
    assert len(rows) == len(WORKER_COUNTS)
    stress_leg(3)


if __name__ == "__main__":
    sys.exit(main())
