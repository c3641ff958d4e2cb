"""``repro.obs`` — device-variable telemetry for the Devil runtime.

The paper's case for an IDL is that the hardware operating layer
becomes *inspectable*; this package supplies the inspection machinery
for the reproduction.  It threads through both execution strategies
(interpreted runtime, bind-time specialized closures) and the
simulated bus:

* **spans** (:mod:`.spans`) — every public stub call becomes a span
  recording the device variable, the strategy, the pre/post/set
  actions that fired, and the exact port I/O it caused;
* **metrics** (:mod:`.metrics`) — a zero-dependency registry of
  counters and histograms with per-variable, per-register and
  per-driver rollups and pluggable sinks;
* **exporters** (:mod:`.export`) — JSONL, Chrome ``trace_event``
  (Perfetto-loadable) and a text "hot variables" profile;
* **workloads** (:mod:`.workloads`, imported lazily) — the shipped
  driver workloads that ``devil trace`` replays.

Cost model
----------

Telemetry is **off by default** and is designed to cost nearly nothing
while off.  Instrumentation is decided *at bind time* from the
module-level flag (:func:`enable` / :func:`disable` /
:func:`is_enabled`): instances bound while the flag is off get exactly
the same stubs as an uninstrumented build — no wrappers, no generated
probe statements — and the bus's collector hook rides the existing
``tracing`` gate, so an untraced bus checks exactly the one flag it
always did.  ``benchmarks/bench_obs_overhead.py`` enforces the bound.
Instances bound while the flag is on carry wrapped stubs that look up
``bus.collector`` per call, so a collector can be attached and
detached without rebinding.  Port-level attribution inside spans
requires ``tracing=True`` on the bus (the default for machines built
by :mod:`.workloads`); spans, actions and call metrics work either
way.

Typical session::

    from repro import obs

    with obs.observe(bus) as collector:     # enables + attaches
        device = spec.bind(bus, bases, strategy="specialize")
        device.set_command("READ_SECTORS")
    print(obs.hot_report(collector.spans, collector.metrics))
"""

from __future__ import annotations

from contextlib import contextmanager

from .export import (
    JsonlSnapshotSink,
    hot_report,
    to_chrome_trace,
    to_jsonl,
    to_prometheus,
)
from .live import (
    FleetHealth,
    FleetTelemetry,
    FlightRecorder,
    Heartbeat,
    LiveMonitor,
    WorkerHealth,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .spans import (
    Collector,
    IoEvent,
    Span,
    instrument_instance,
    model_port_map,
    port_map,
    stub_catalog,
    wrap_stub,
)

__all__ = [
    "Collector", "Counter", "FleetHealth",
    "FleetTelemetry", "FlightRecorder", "Gauge", "Heartbeat",
    "Histogram", "IoEvent", "JsonlSnapshotSink", "LiveMonitor",
    "MetricsRegistry", "Span", "WorkerHealth", "disable", "enable",
    "hot_report", "instrument_instance", "is_enabled",
    "model_port_map", "observe", "port_map", "stub_catalog",
    "to_chrome_trace", "to_jsonl", "to_prometheus", "wrap_stub",
]

#: Module-level master switch, consulted at bind time.
_ENABLED = False


def enable() -> None:
    """Instrument instances bound from now on."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Stop instrumenting instances bound from now on."""
    global _ENABLED
    _ENABLED = False


def is_enabled() -> bool:
    return _ENABLED


@contextmanager
def observe(*buses, metrics: MetricsRegistry | None = None,
            collector: Collector | None = None):
    """Enable telemetry and attach one collector to ``buses``.

    Restores the previous enabled state and detaches the collector on
    exit (the collected spans stay available on the yielded collector).
    Instances must be bound *inside* the block to be instrumented.
    """
    global _ENABLED
    previous = _ENABLED
    active = collector or Collector(metrics=metrics)
    enable()
    for bus in buses:
        bus.collector = active
    try:
        yield active
    finally:
        _ENABLED = previous
        for bus in buses:
            if bus.collector is active:
                active.record_trace_drops(bus.trace_dropped)
                bus.collector = None
