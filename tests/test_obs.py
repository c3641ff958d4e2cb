"""Telemetry tests: span parity, metrics, exporters, ring buffer, CLI.

The central claim mirrors the repository's cross-check philosophy: the
execution strategies must not only perform identical I/O (proved in
``tests/test_specialize.py``) but must *report* identically — for
every shipped spec, the span stream (device, stub, variable, kind,
attributed port I/O, fired actions, error) is byte-identical across
interpreted and specialized stubs.  Timing and the strategy label are
the only permitted differences.
"""

import io
import json

import pytest

from repro import obs
from repro.bus import Bus, BusError, IoTraceEntry, iter_operations
from repro.devil.errors import DevilRuntimeError
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.validate import SchemaViolation, validate, validate_jsonl
from repro.obs.workloads import (
    MOUSE_BASE,
    STRATEGIES,
    WORKLOADS,
    bind_stubs,
    build_machine,
)
from repro.specs import SPEC_NAMES

SCHEMA_PATH = "docs/trace_schema.json"


def observed_run(name: str, strategy: str, debug: bool = False,
                 trace_limit: int | None = None):
    """Run one workload under telemetry; returns the collector."""
    bus, aux, bases = build_machine(name, trace_limit=trace_limit)
    with obs.observe(bus) as collector:
        stubs = bind_stubs(name, strategy, bus, bases, debug=debug)
        collector.register_ports(name, getattr(stubs, "_obs_ports", {}))
        WORKLOADS[name](stubs, aux)
    return collector


# ---------------------------------------------------------------------------
# Span parity across strategies (the tentpole invariant)
# ---------------------------------------------------------------------------


class TestSpanParity:
    @pytest.mark.parametrize("name", SPEC_NAMES)
    @pytest.mark.parametrize("debug", [False, True],
                             ids=["release", "debug"])
    def test_span_streams_identical_across_strategies(self, name, debug):
        streams = {strategy: observed_run(name, strategy,
                                          debug).signatures()
                   for strategy in STRATEGIES}
        assert streams["interpret"], f"{name}: workload produced no spans"
        assert streams["specialize"] == streams["interpret"]

    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_every_bus_operation_attributed(self, name):
        """With telemetry on, no I/O escapes span attribution."""
        collector = observed_run(name, "interpret")
        spanned = sum(span.io_ops for span in collector.spans)
        assert spanned > 0
        assert sum(metric.value for metric
                   in collector.metrics.find("io.unattributed")) == 0

    def test_spans_carry_exact_port_io(self):
        collector = observed_run("busmouse", "interpret")
        by_stub = {}
        for span in collector.spans:
            by_stub.setdefault(span.stub, span)
        # A structure read touches all four nibble registers.
        state = by_stub["get_mouse_state"]
        assert state.kind == "get_struct"
        assert state.io_ops == 8  # 4 nibbles, each set_config + read
        # A pure decode of the snapshot performs no I/O at all.
        assert by_stub["get_dx"].io_ops == 0
        # Actions that fired are recorded with their kinds: each
        # nibble read is preceded by a write to the index variable.
        assert state.actions == [("pre", "index")] * 4

    def test_error_span_recorded_without_io(self):
        bus, aux, bases = build_machine("busmouse")
        with obs.observe(bus) as collector:
            stubs = bind_stubs("busmouse", "interpret", bus, bases,
                               debug=True)
            with pytest.raises(DevilRuntimeError):
                stubs.set_signature(256)
        (span,) = collector.spans
        assert span.error == "DevilRuntimeError"
        assert span.io == []

    def test_disabled_by_default_binds_clean_stubs(self):
        assert not obs.is_enabled()
        bus, aux, bases = build_machine("busmouse")
        stubs = bind_stubs("busmouse", "interpret", bus, bases)
        assert not hasattr(stubs.get_dx, "__wrapped__")
        collector = obs.Collector()
        bus.collector = collector
        WORKLOADS["busmouse"](stubs, aux)
        # Uninstrumented stubs never open spans; the bus still feeds
        # I/O events, which land in the unattributed counter.
        assert collector.spans == []
        assert sum(metric.value for metric
                   in collector.metrics.find("io.unattributed")) > 0

    def test_collector_detaches_on_observe_exit(self):
        bus, aux, bases = build_machine("busmouse")
        with obs.observe(bus):
            stubs = bind_stubs("busmouse", "specialize", bus, bases)
            assert obs.is_enabled()
        assert bus.collector is None
        assert not obs.is_enabled()
        # The instrumented instance survives detachment: calls keep
        # working and simply go unobserved.
        stubs.set_signature(0x11)
        assert stubs.get_signature() == 0x11


# ---------------------------------------------------------------------------
# Metrics registry and rollups
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_identity_by_name_and_labels(self):
        registry = MetricsRegistry()
        first = registry.counter("calls", device="ide")
        first.inc()
        first.inc(2)
        assert registry.counter("calls", device="ide") is first
        assert registry.counter("calls", device="ne2000") is not first
        assert registry.value("calls", device="ide") == 3

    def test_histogram_buckets_and_stats(self):
        histogram = Histogram("us", {}, buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 3
        assert snapshot["min"] == 0.5
        assert snapshot["max"] == 50.0
        assert snapshot["buckets"] == {"1.0": 1, "10.0": 1, "+Inf": 1}
        assert histogram.mean == pytest.approx(55.5 / 3)

    def test_sinks_receive_snapshot_on_flush(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(7)
        seen = []
        registry.add_sink(seen.append)
        registry.flush()
        (snapshot,) = seen
        assert any(entry["name"] == "n" and entry["value"] == 7
                   for entry in snapshot)

    def test_workload_rollups(self):
        collector = observed_run("ide", "specialize")
        metrics = collector.metrics
        assert metrics.value("dev.calls", device="ide") == \
            len(collector.spans)
        # The 256-word data-block read dominates the word rollup.
        assert metrics.value("var.io_words", device="ide",
                             variable="ide_data") >= 256
        # Per-register attribution via the registered port map.
        assert metrics.value("reg.reads", device="ide",
                             register="data_reg") >= 1
        durations = [m for m in metrics.find("var.us")
                     if m.labels.get("variable") == "ide_data"]
        assert durations and durations[0].snapshot()["count"] >= 1


# ---------------------------------------------------------------------------
# Bus ring buffer and block-entry reconstruction (satellites 1 + 2)
# ---------------------------------------------------------------------------


class TestBusTraceRing:
    def test_unbounded_by_default(self):
        bus, aux, bases = build_machine("ide")
        stubs = bind_stubs("ide", "interpret", bus, bases)
        WORKLOADS["ide"](stubs, aux)
        assert bus.trace_dropped == 0
        assert len(bus.trace) > 256

    def test_ring_keeps_newest_and_counts_drops(self):
        bus, aux, bases = build_machine("ide", trace_limit=16)
        stubs = bind_stubs("ide", "interpret", bus, bases)
        WORKLOADS["ide"](stubs, aux)
        assert len(bus.trace) == 16
        assert bus.trace_dropped > 0
        unbounded = build_machine("ide")
        full_bus, full_aux, full_bases = unbounded
        full_stubs = bind_stubs("ide", "interpret", full_bus, full_bases)
        WORKLOADS["ide"](full_stubs, full_aux)
        assert list(bus.trace) == list(full_bus.trace)[-16:]
        assert bus.trace_dropped == len(full_bus.trace) - 16

    def test_drop_count_surfaces_in_metrics(self):
        collector = observed_run("ide", "interpret", trace_limit=16)
        assert collector.metrics.value("bus.trace_dropped") > 0

    def test_negative_limit_rejected(self):
        with pytest.raises(BusError):
            Bus(trace_limit=-1)

    def test_block_entries_reconstructible(self):
        bus, aux, bases = build_machine("ne2000")
        stubs = bind_stubs("ne2000", "interpret", bus, bases)
        WORKLOADS["ne2000"](stubs, aux)
        operations = list(iter_operations(bus.trace))
        # Grouping inverts the per-word flattening exactly.
        assert [entry for group in operations for entry in group] == \
            list(bus.trace)
        blocks = [group for group in operations
                  if group[0].op in ("rb", "wb")]
        assert len(blocks) == 2  # one remote write, one remote read
        for group in blocks:
            assert len(group) == group[0].count == 4
            assert all(entry.count == 4 for entry in group)
        singles = [group for group in operations
                   if group[0].op in ("r", "w")]
        assert all(len(group) == 1 and group[0].count == 1
                   for group in singles)


# ---------------------------------------------------------------------------
# Exporters (satellite 3 riders) and the schema contract
# ---------------------------------------------------------------------------


class TestExporters:
    def test_jsonl_conforms_to_checked_in_schema(self):
        collector = observed_run("permedia2", "specialize")
        buffer = io.StringIO()
        written = obs.to_jsonl(collector.spans, buffer)
        assert written == len(collector.spans) > 0
        with open(SCHEMA_PATH, encoding="utf-8") as handle:
            schema = json.load(handle)
        assert validate_jsonl(
            schema, buffer.getvalue().splitlines()) == written

    def test_schema_validator_rejects_bad_records(self):
        with open(SCHEMA_PATH, encoding="utf-8") as handle:
            schema = json.load(handle)
        collector = observed_run("busmouse", "interpret")
        record = collector.spans[0].to_dict()
        validate(record, schema)
        for mutation in (
                {"strategy": "jit"},
                {"seq": -1},
                {"io": [{"op": "x", "port": 0, "value": 0,
                         "width": 8, "count": 1}]},
                {"bogus": True}):
            broken = {**record, **mutation}
            with pytest.raises(SchemaViolation):
                validate(broken, schema)

    def test_chrome_trace_structure(self):
        collector = observed_run("ide", "specialize")
        trace = obs.to_chrome_trace(collector.spans)
        events = [event for event in trace["traceEvents"]
                  if event["ph"] == "X"]
        assert len(events) == len(collector.spans)
        assert all(event["ts"] >= 0 and event["dur"] > 0
                   for event in events)
        metas = [event for event in trace["traceEvents"]
                 if event["ph"] == "M"]
        assert {meta["args"]["name"] for meta in metas} == {"ide"}
        # Round-trips through json (Perfetto loads files, not objects).
        json.loads(json.dumps(trace))

    def test_hot_report_ranks_by_io(self):
        collector = observed_run("ide", "interpret")
        report = obs.hot_report(collector.spans, collector.metrics)
        lines = report.splitlines()
        header = next(index for index, line in enumerate(lines)
                      if line.startswith("device"))
        # The block-transfer variable leads the table.
        assert "ide_data" in lines[header + 1]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestTraceCli:
    def _run(self, *argv):
        from repro.devil.cli import main
        return main(list(argv))

    def test_jsonl_output_validates(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert self._run("trace", "busmouse", "--strategy=all",
                         "--format=jsonl", "-o", str(out)) == 0
        with open(SCHEMA_PATH, encoding="utf-8") as handle:
            schema = json.load(handle)
        with open(out, encoding="utf-8") as handle:
            count = validate_jsonl(schema, handle)
        assert count == 20  # 10 spans per strategy

    def test_chrome_output_is_loadable_json(self, tmp_path):
        out = tmp_path / "trace.json"
        assert self._run("trace", "busmouse", "--format=chrome",
                         "-o", str(out)) == 0
        trace = json.loads(out.read_text())
        assert any(event.get("ph") == "X"
                   for event in trace["traceEvents"])

    def test_variable_filter_and_summary(self, capsys):
        assert self._run("trace", "busmouse", "--format=summary",
                         "--variable=dx") == 0
        captured = capsys.readouterr().out
        assert "2 spans" in captured

    def test_report_format(self, capsys):
        assert self._run("trace", "ide", "--format=report",
                         "--trace-limit=32") == 0
        captured = capsys.readouterr().out
        assert "hot device variables" in captured
        assert "dropped (ring buffer)" in captured

    def test_unknown_spec_rejected(self, capsys):
        assert self._run("trace", "nope") == 1
        assert "unknown shipped spec" in capsys.readouterr().err

    def test_cli_leaves_telemetry_disabled(self):
        self._run("trace", "busmouse", "--format=summary")
        assert not obs.is_enabled()
