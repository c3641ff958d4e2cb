"""Adaptive backend selection: measure the workload, pick the engine.

The fleet engine has two substrates with opposite failure modes: the
thread backend (:class:`~repro.engine.fleet.Fleet`) serializes on the
GIL exactly when requests compute, and the process backend
(:class:`~repro.engine.mp.ProcessFleet`) pays an IPC toll exactly when
requests are tiny.  Which one wins is a property of the *workload* —
the CPU fraction of a request, its wall-clock duration, and how many
CPUs the host actually has — all of which are measurable in a few
milliseconds.  This module does the measuring.

:func:`calibrate` runs a short burst of each distinct request kind
against a private single-device machine (same mapping, same strategy,
same latency model as the target fleet — and never the fleet itself,
so calibration cannot perturb exactness) and records wall time
(``perf_counter``) against CPU time (``process_time``).  A sleeping
I/O stall shows up as wall ≫ CPU; a checksum loop shows up as
wall ≈ CPU.

:func:`decide` turns the profiles plus ``os.cpu_count()`` into a
:class:`BackendChoice`:

* one CPU → threads (worker processes would only take turns);
* GIL-bound mix (CPU fraction ≥ ½) on a multi-CPU host → processes;
* I/O-bound mix → processes *if* batching can amortize the IPC cost
  to a few percent of a request's duration (the batch size is computed
  from that budget), else threads.

:func:`auto_fleet` glues it together and is what ``Fleet.auto(...)``
and ``devil fleet --backend auto`` call.  The choice rides along on
the returned fleet as ``fleet.choice`` so callers (and the CLI) can
report what was picked and why.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

from .requests import encode_request, request_label

#: Measured cost of one request-sized ``multiprocessing.Queue``
#: round-trip (pickle + pipe + wakeup) on commodity hardware; the
#: denominator of the batching amortization.
IPC_COST_S = 120e-6

#: Amortized IPC may cost at most this fraction of a request's wall
#: time before the process backend stops being worth it.
IPC_BUDGET_FRACTION = 0.05

#: A request mix whose CPU fraction reaches this is GIL-bound: the
#: thread backend cannot overlap it no matter how many workers.
CPU_BOUND_THRESHOLD = 0.5

#: Batch-size clamp: past this, sync latency and buffering outweigh
#: the marginal IPC savings.
MAX_BATCH = 64

#: Default calibration depth per request kind.
CALIBRATION_ROUNDS = 4

#: Wall-clock budget for one kind's calibration burst, seconds; the
#: burst stops early rather than blow this (slow latency models).
CALIBRATION_BUDGET_S = 0.25


@dataclass(frozen=True)
class KindProfile:
    """Measured cost of one distinct ``(spec, request)`` kind."""

    spec: str
    request: str
    #: How many times this kind appears in the calibrated schedule.
    count: int
    #: Mean wall-clock seconds per request.
    wall_s: float
    #: Mean CPU seconds per request.
    cpu_s: float

    @property
    def cpu_fraction(self) -> float:
        """CPU share of wall time, clamped to [0, 1]."""
        if self.wall_s <= 0:
            return 1.0
        return min(1.0, self.cpu_s / self.wall_s)


@dataclass(frozen=True)
class BackendChoice:
    """The selector's verdict, with its inputs kept for reporting."""

    backend: str  # "thread" | "process"
    batch_size: int
    cpu_count: int
    #: Schedule-weighted mean CPU fraction across kinds.
    cpu_fraction: float
    #: Schedule-weighted mean wall seconds per request.
    wall_s: float
    reason: str
    profiles: tuple = field(default=())


def batch_size_for(wall_s: float,
                   ipc_cost_s: float = IPC_COST_S,
                   budget: float = IPC_BUDGET_FRACTION) -> int:
    """Smallest batch that amortizes IPC to ``budget`` of a request.

    ``ceil(ipc / (budget * wall))`` clamped to ``[1, MAX_BATCH]``; a
    request slower than the whole IPC budget needs no batching at all,
    a microsecond request hits the clamp.
    """
    if wall_s <= 0:
        return MAX_BATCH
    needed = ipc_cost_s / (budget * wall_s)
    # Tolerance keeps float fuzz at exact ratios from rounding up.
    return max(1, min(MAX_BATCH, math.ceil(needed - 1e-9)))


def calibrate(schedule, *, strategy: str = "specialize",
              shadow_cache: bool = False,
              op_latency_us: float = 0.0,
              word_latency_us: float = 0.0,
              rounds: int = CALIBRATION_ROUNDS,
              budget_s: float = CALIBRATION_BUDGET_S) -> list[KindProfile]:
    """Profile each distinct request kind of ``schedule``.

    Each kind runs ``rounds`` times (stopping early at ``budget_s``)
    against a throwaway one-device machine built with the same
    strategy and latency model the target fleet would use.  Requests
    must be shippable (:func:`~repro.engine.requests.encode_request`
    validates them here, so an unshippable request fails before any
    fleet exists) and are assumed idempotent on device state — true of
    every shipped workload and request.
    """
    from ..obs.workloads import bind_stubs
    from .fleet import SLOT_STRIDE, map_fleet_device

    kinds: dict = {}
    for spec, request in schedule:
        key = (spec, encode_request(request))
        entry = kinds.get(key)
        if entry is None:
            kinds[key] = [spec, request, 1]
        else:
            entry[2] += 1

    profiles = []
    for spec, request, count in kinds.values():
        bus = _calibration_bus(op_latency_us, word_latency_us)
        aux, bases = map_fleet_device(bus, spec, SLOT_STRIDE,
                                      f"cal-{spec}")
        stubs = bind_stubs(spec, strategy, bus, bases,
                           shadow_cache=shadow_cache)
        # One warm-up pass: specializer closures, shadow priming.
        request(stubs, aux)
        executed = 0
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        for _ in range(max(1, rounds)):
            request(stubs, aux)
            executed += 1
            if time.perf_counter() - wall_start >= budget_s:
                break
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
        profiles.append(KindProfile(
            spec=spec, request=request_label(request), count=count,
            wall_s=wall / executed, cpu_s=cpu / executed))
    return profiles


def _calibration_bus(op_latency_us: float, word_latency_us: float):
    from ..bus import ThreadSafeBus
    from .fleet import LatencyBus

    if op_latency_us or word_latency_us:
        return LatencyBus(op_latency_us=op_latency_us,
                          word_latency_us=word_latency_us)
    return ThreadSafeBus()


def decide(profiles, cpu_count: int | None = None,
           workers: int = 4) -> BackendChoice:
    """Pick a backend and batch size from measured kind profiles."""
    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    if not profiles:
        return BackendChoice(
            backend="thread", batch_size=1, cpu_count=cpu_count,
            cpu_fraction=0.0, wall_s=0.0,
            reason="empty schedule: nothing to measure, threads are "
                   "the zero-overhead default")
    total = sum(p.count for p in profiles)
    wall = sum(p.wall_s * p.count for p in profiles) / total
    cpu = sum(p.cpu_s * p.count for p in profiles) / total
    fraction = min(1.0, cpu / wall) if wall > 0 else 1.0
    batch = batch_size_for(wall)
    if cpu_count <= 1:
        choice, batch = "thread", 1
        reason = (f"{cpu_count} CPU: worker processes would only "
                  f"take turns; threads avoid the IPC toll entirely")
    elif fraction >= CPU_BOUND_THRESHOLD:
        choice = "process"
        reason = (f"CPU fraction {fraction:.2f} ≥ "
                  f"{CPU_BOUND_THRESHOLD}: the mix is GIL-bound and "
                  f"only processes can overlap it "
                  f"(batch={batch} amortizes IPC)")
    elif IPC_COST_S / batch <= IPC_BUDGET_FRACTION * wall:
        choice = "process"
        reason = (f"I/O-bound mix ({fraction:.2f} CPU) but batch="
                  f"{batch} amortizes IPC below "
                  f"{IPC_BUDGET_FRACTION:.0%} of a "
                  f"{wall * 1e6:.0f}µs request; processes sidestep "
                  f"GIL'd per-op bookkeeping")
    else:
        choice, batch = "thread", 1
        reason = (f"requests too cheap ({wall * 1e6:.0f}µs) to "
                  f"amortize IPC even at batch={MAX_BATCH}; threads "
                  f"overlap the I/O fine")
    return BackendChoice(
        backend=choice, batch_size=batch, cpu_count=cpu_count,
        cpu_fraction=fraction, wall_s=wall, reason=reason,
        profiles=tuple(profiles))


def auto_fleet(devices, schedule, *, workers: int = 4,
               cpu_count: int | None = None, **fleet_kwargs):
    """Calibrate against ``schedule``, build the winning backend.

    ``fleet_kwargs`` pass through to the chosen fleet class; the ones
    that shape request cost (``strategy``, ``shadow_cache``,
    ``op_latency_us``, ``word_latency_us``) also shape calibration.
    The returned fleet carries the verdict as ``fleet.choice``.
    """
    from .fleet import Fleet
    from .mp import ProcessFleet

    profiles = calibrate(
        schedule,
        strategy=fleet_kwargs.get("strategy", "specialize"),
        shadow_cache=fleet_kwargs.get("shadow_cache", False),
        op_latency_us=fleet_kwargs.get("op_latency_us", 0.0),
        word_latency_us=fleet_kwargs.get("word_latency_us", 0.0))
    choice = decide(profiles, cpu_count=cpu_count, workers=workers)
    if choice.backend == "process":
        fleet = ProcessFleet(devices, workers=workers,
                             batch_size=choice.batch_size,
                             **fleet_kwargs)
    else:
        fleet = Fleet(devices, workers=workers, **fleet_kwargs)
    fleet.choice = choice
    return fleet
