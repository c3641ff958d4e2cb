r"""End-to-end benchmark of the paper's workloads, timed on the host.

Usage::

    python3 perfbench/run.py --workload ide_word --seed 1 --seconds 15 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with nothing
instrumented; ``--trace 1`` is a separate run that wraps every layer's
public entry points and reports per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  See README.md
for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout: verdict caches and span dumps.
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

#: Fresh-process set-ups timed per run (after one untimed warm-up that
#: fills the bytecode and page caches); the median is reported.
SETUP_PROBES = 5
#: Traced passes must attribute all but this share of their wall time
#: to the program's layers (the rest is the benchmark's own loop).
UNATTRIBUTED_BOUND = 0.10

END_TO_END = {
    "setup_s": "s", "items_per_s": "items/s", "call_p50_us": "us",
    "call_p90_us": "us", "peak_rss_mb": "MB", "ok_frac": "ratio",
}
PER_LAYER = {
    "drivers.calls": "count", "drivers.self_s": "s",
    "runtime.stub_calls": "count", "runtime.block_calls": "count",
    "runtime.block_words": "count", "runtime.self_s": "s",
    "runtime.us_per_stub_call": "us",
    "bus.single_ops": "count", "bus.block_ops": "count",
    "bus.block_words": "count", "bus.self_s": "s",
    "devices.model_calls": "count", "devices.self_s": "s",
    "devices.ide.interrupts": "count",
    "devices.permedia2.fifo_polls": "count",
    "perf.sim_us_per_item": "us", "perf.sim_mb_s": "MB/s",
    "perf.sim_prims_per_s": "1/s",
    "devil.lexer.tokens": "count", "devil.lexer.self_s": "s",
    "devil.compile.calls": "count", "devil.compile.self_s": "s",
    "minic.lexer.self_s": "s",
    "minic.checker.calls": "count", "minic.checker.self_s": "s",
    "mutation.edits": "count", "mutation.mutants": "count",
    "mutation.valid_ratio": "ratio", "mutation.rules.self_s": "s",
    "mutation.vcache.self_s": "s", "mutation.campaign.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Tally:
    """Operations attempted and failed, items done, and host time."""

    attempted: int = 0
    failed: int = 0
    items: int = 0
    busy_s: float = 0.0
    latencies: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"perfbench: failed: {what}", file=sys.stderr)


def execute(machine, ops, tally: Tally, until: float | None = None) -> None:
    """Issue ``ops`` one at a time, timing each call and checking its
    result; stop early once the clock passes ``until``."""
    clock = time.perf_counter
    for op in ops:
        if until is not None and clock() >= until:
            return
        tally.attempted += 1
        start = clock()
        try:
            result = machine.call(op)
        except Exception as error:  # counted, and the loop goes on
            tally.fail(f"{op.kind}: {error!r}")
            continue
        took = clock() - start
        tally.busy_s += took
        if not machine.check(op, result):
            tally.fail(f"{op.kind} {op.args[:2]}: wrong result")
            continue
        tally.items += op.items
        if op.items:
            tally.latencies.append(took)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def probe_setup(name: str) -> float:
    """Median fresh-process set-up time of workload ``name``."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times[1:])


def fresh_dir(label: str) -> Path:
    path = WORK / f"{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def untraced_driver(workload, seed: int, seconds: float) -> Tally:
    workload.setup()
    machine = workload.build(seed)
    stream = workload.ops(seed)
    warmup = Tally()
    execute(machine, itertools.islice(stream, workload.pass_ops), warmup)
    tally = Tally(attempted=warmup.attempted, failed=warmup.failed)
    execute(machine, stream, tally, until=time.perf_counter() + seconds)
    if not machine.check_end_state():
        tally.fail("end state differs from the reference")
    return tally


def untraced_campaign(workload, seconds: float) -> Tally:
    from repro.mutation import campaign
    from spans import Tracer

    reference = json.loads(REFERENCE.read_text())
    workload.setup()
    # Per-unit latency: one clock pair around each unit, nothing else.
    unit_clock = Tracer()
    unit_clock.patch(campaign, "evaluate_unit", unit_clock.wrap(
        "mutation.campaign/evaluate_unit", campaign.evaluate_unit))
    tally = Tally()
    deadline = time.perf_counter() + seconds
    try:
        while True:
            root = fresh_dir("vcache")
            start = time.perf_counter()
            result = workload.run(root)
            tally.busy_s += time.perf_counter() - start
            shutil.rmtree(root)
            attempted, failed = workload.check(result, reference)
            tally.attempted += attempted
            tally.failed += failed
            tally.items += sum(record["mutants"]
                               for record in workload.records(result))
            if time.perf_counter() >= deadline:
                break
    finally:
        unit_clock.uninstall()
    tally.latencies = [end - start for start, end
                       in zip(unit_clock.start, unit_clock.end)]
    return tally


def run_untraced(workload, seed: int, seconds: float) -> dict:
    setup_s = probe_setup(workload.name)
    if workload.name == "table1_campaign":
        tally = untraced_campaign(workload, seconds)
    else:
        tally = untraced_driver(workload, seed, seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    deciles = statistics.quantiles(tally.latencies, n=10, method="inclusive")
    metrics = {
        "setup_s": setup_s,
        "items_per_s": tally.items / tally.busy_s,
        "call_p50_us": deciles[4] * 1e6,
        "call_p90_us": deciles[8] * 1e6,
        "peak_rss_mb": peak_kb / 1024,
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    print(f"perfbench: {workload.name} seed={seed}: {tally.items} items "
          f"({workload.item_unit}), {len(tally.latencies)} timed calls, "
          f"{tally.failed}/{tally.attempted} failed", file=sys.stderr)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: metric(value, END_TO_END[name])
                        for name, value in metrics.items()}}


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    """One fixed-length pass over the start of the operation stream."""

    wall_s: float
    tally: Tally
    sim: dict
    summary: dict | None = None
    mutants: int = 0


def instrument_front_end(tracer) -> None:
    """Wrap the program's front-end and campaign entry points."""
    from repro.devil.compiler import compile_spec
    from repro.devil.lexer import Lexer
    from repro.minic.checker import check_c
    from repro.minic.lexer import tokenize_c
    from repro.mutation import analysis, campaign
    from repro.mutation.vcache import VerdictCache

    tracer.patch_function(compile_spec, tracer.wrap(
        "devil.compile/compile_spec", compile_spec))
    tracer.patch(Lexer, "tokens", tracer.wrap_generator(
        "devil.lexer/tokens", Lexer.tokens))
    tracer.patch_function(tokenize_c, tracer.wrap(
        "minic.lexer/tokenize_c", tokenize_c))
    tracer.patch_function(check_c, tracer.wrap(
        "minic.checker/check_c", check_c))
    # The same population is drawn twice per unit: once to key the
    # unit, once to classify it.  Only the second counts as edits.
    tracer.patch(analysis, "mutants_for_site", tracer.wrap(
        "mutation.rules/classify", analysis.mutants_for_site,
        units=lambda args, result: len(result)))
    tracer.patch(campaign, "mutants_for_site", tracer.wrap(
        "mutation.rules/unit_key", campaign.mutants_for_site))
    for method in ("get", "put"):
        tracer.patch(VerdictCache, method, tracer.wrap(
            f"mutation.vcache/{method}", getattr(VerdictCache, method)))
    tracer.patch(campaign, "evaluate_unit", tracer.wrap(
        "mutation.campaign/evaluate_unit", campaign.evaluate_unit))


def instrument_machine(machine, tracer) -> None:
    """Wrap one machine's driver methods, bound stubs, bus and device
    models (instance attributes; the machine is discarded after)."""
    driver = machine.driver
    for name in dir(type(driver)):
        if not name.startswith("_") and callable(getattr(driver, name)):
            setattr(driver, name, tracer.wrap(f"drivers/{name}",
                                              getattr(driver, name)))
    for instance in (getattr(driver, "dev", None),
                     getattr(driver, "bm", None)):
        if instance is None:
            continue
        for name, stub in list(vars(instance).items()):
            if name.startswith("read_") and name.endswith("_block"):
                count = lambda args, result: len(result)  # noqa: E731
            elif name.startswith("write_") and name.endswith("_block"):
                count = lambda args, result: result  # noqa: E731
            elif name.startswith(("get_", "set_")) and callable(stub):
                count = None
            else:
                continue
            setattr(instance, name, tracer.wrap(f"runtime/{name}", stub,
                                                count))
    bus = machine.bus
    bus.read = tracer.wrap("bus/read", bus.read)
    bus.write = tracer.wrap("bus/write", bus.write)
    bus.block_read = tracer.wrap(
        "bus/block_read", bus.block_read,
        lambda args, result: len(result))
    bus.block_write = tracer.wrap(
        "bus/block_write", bus.block_write, lambda args, result: result)
    for device in machine.devices:
        kind = type(device).__name__
        for method in ("io_read", "io_write"):
            setattr(device, method, tracer.wrap(
                f"devices/{kind}.{method}", getattr(device, method)))


def driver_pass(workload, seed: int, tracer=None) -> Pass:
    machine = workload.build(seed)
    ops = list(itertools.islice(workload.ops(seed), workload.pass_ops))
    if tracer is not None:
        instrument_machine(machine, tracer)
        machine.check = tracer.wrap("bench/check", machine.check)
        tracer.clear()
    before = machine.counters()
    tally = Tally()
    start = time.perf_counter()
    execute(machine, ops, tally)
    wall = time.perf_counter() - start
    if not machine.check_end_state():
        tally.fail("end state differs from the reference")
    return Pass(wall, tally, machine.sim_stats(before, tally.items),
                tracer.summary() if tracer is not None else None)


NO_SIM = {"single_by_width": {}, "block_ops": 0,
          "block_words_by_width": {}, "interrupts": 0, "fifo_polls": 0,
          "items": 0, "sim_us": 0.0, "sim_mb_s": 0.0,
          "sim_prims_per_s": 0.0}


def campaign_pass(workload, reference: dict, tracer=None) -> Pass:
    from repro.mutation import run_campaign

    root = fresh_dir("vcache")
    wrapped = None
    if tracer is not None:
        instrument_front_end(tracer)
        wrapped = tracer.wrap("mutation.campaign/run_campaign",
                              run_campaign)
        tracer.clear()
    start = time.perf_counter()
    try:
        result = workload.run(root, wrapped)
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(root)
    attempted, failed = workload.check(result, reference)
    mutants = sum(record["mutants"] for record in workload.records(result))
    return Pass(wall, Tally(attempted=attempted, failed=failed), NO_SIM,
                tracer.summary() if tracer is not None else None, mutants)


def trace_checks(pairs: list[tuple[Pass, Pass]]) -> list[str]:
    """Consistency of the traced run; returns the problems found."""
    from spans import by_layer

    passes = [p for pair in pairs for p in pair]
    traced = [p for _, p in pairs]
    problems = []
    if any(p.sim != passes[0].sim for p in passes):
        problems.append("simulated statistics differ between passes")
    if any(p.summary["calls"] != traced[0].summary["calls"]
           for p in traced):
        problems.append("call counts differ between traced passes")
    for p in traced:
        summary = p.summary
        unattributed = (p.wall_s - summary["top_level_s"]) / p.wall_s
        if not 0 <= unattributed <= UNATTRIBUTED_BOUND:
            problems.append(f"layers account for only "
                            f"{1 - unattributed:.1%} of a traced pass")
        if summary["min_self_s"] < -1e-9:
            problems.append("a span's children outlast it")
    calls, counters = traced[0].summary["calls"], \
        traced[0].summary["counters"]
    sim = traced[0].sim
    single = calls.get("bus/read", 0) + calls.get("bus/write", 0)
    block = calls.get("bus/block_read", 0) + calls.get("bus/block_write", 0)
    words = counters.get("bus/block_read.units", 0) + \
        counters.get("bus/block_write.units", 0)
    if (single, block, words) != (sum(sim["single_by_width"].values()),
                                  sim["block_ops"],
                                  sum(sim["block_words_by_width"].values())):
        problems.append("bus spans disagree with the bus accounting")
    if by_layer(traced[0].summary, "calls")["devices"] != single + words:
        problems.append("device-model calls disagree with bus words")
    return problems


def layer_metrics(setup: dict, pairs: list[tuple[Pass, Pass]]) -> dict:
    """Per-layer metrics: the traced set-up plus one pass (counts are
    exact; self times take the median pass)."""
    from spans import LAYERS, by_layer

    traced = [p for _, p in pairs]
    first = traced[0]
    calls = by_layer(setup, "calls")
    for layer, value in by_layer(first.summary, "calls").items():
        calls[layer] += value
    setup_self = by_layer(setup, "self_s")
    self_s = {layer: float(setup_self[layer] + statistics.median(
                  by_layer(p.summary, "self_s")[layer] for p in traced))
              for layer in LAYERS}
    counters = dict(setup["counters"])
    for name, value in first.summary["counters"].items():
        counters[name] = counters.get(name, 0) + value
    span_calls = first.summary["calls"]
    block_calls = sum(n for name, n in span_calls.items()
                      if name.startswith("runtime/")
                      and name.endswith("_block"))
    stub_calls = calls["runtime"] - block_calls
    sim = first.sim
    edits = counters.get("mutation.rules/classify.units", 0)
    return {
        "drivers.calls": calls["drivers"],
        "drivers.self_s": self_s["drivers"],
        "runtime.stub_calls": stub_calls,
        "runtime.block_calls": block_calls,
        "runtime.block_words": sum(
            n for name, n in counters.items()
            if name.startswith("runtime/")),
        "runtime.self_s": self_s["runtime"],
        "runtime.us_per_stub_call": 1e6 * self_s["runtime"]
        / calls["runtime"] if calls["runtime"] else 0.0,
        "bus.single_ops": sum(sim["single_by_width"].values()),
        "bus.block_ops": sim["block_ops"],
        "bus.block_words": sum(sim["block_words_by_width"].values()),
        "bus.self_s": self_s["bus"],
        "devices.model_calls": calls["devices"],
        "devices.self_s": self_s["devices"],
        "devices.ide.interrupts": sim["interrupts"],
        "devices.permedia2.fifo_polls": sim["fifo_polls"],
        "perf.sim_us_per_item": sim["sim_us"] / sim["items"]
        if sim["items"] else 0.0,
        "perf.sim_mb_s": sim["sim_mb_s"],
        "perf.sim_prims_per_s": sim["sim_prims_per_s"],
        "devil.lexer.tokens": counters.get("devil.lexer/tokens.units", 0),
        "devil.lexer.self_s": self_s["devil.lexer"],
        "devil.compile.calls": calls["devil.compile"],
        "devil.compile.self_s": self_s["devil.compile"],
        "minic.lexer.self_s": self_s["minic.lexer"],
        "minic.checker.calls": calls["minic.checker"],
        "minic.checker.self_s": self_s["minic.checker"],
        "mutation.edits": edits,
        "mutation.mutants": first.mutants,
        "mutation.valid_ratio": first.mutants / edits if edits else 0.0,
        "mutation.rules.self_s": self_s["mutation.rules"],
        "mutation.vcache.self_s": self_s["mutation.vcache"],
        "mutation.campaign.self_s": self_s["mutation.campaign"],
        "trace.overhead_ratio": statistics.median(
            p.wall_s / plain.wall_s for plain, p in pairs),
    }


def run_traced(workload, seed: int, seconds: float) -> dict:
    from spans import Tracer

    tracer = Tracer()
    instrument_front_end(tracer)
    tracer.clear()
    workload.setup()
    setup = tracer.summary()
    tracer.uninstall()

    campaign = workload.name == "table1_campaign"
    if campaign:
        reference = json.loads(REFERENCE.read_text())
        run_pass = lambda trace: campaign_pass(  # noqa: E731
            workload, reference, trace)
    else:
        run_pass = lambda trace: driver_pass(  # noqa: E731
            workload, seed, trace)
        run_pass(None)  # warm-up: lazily derived stub state settles
    # Untraced and traced passes alternate over the same operations,
    # so their wall times give the tracing overhead.
    pairs = []
    deadline = time.perf_counter() + seconds
    while not pairs or time.perf_counter() < deadline:
        pairs.append((run_pass(None), run_pass(tracer)))
    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"spans-{workload.name}.npz")

    problems = trace_checks(pairs)
    for problem in problems:
        print(f"perfbench: trace check failed: {problem}", file=sys.stderr)
    passes = [p for pair in pairs for p in pair]
    attempted = sum(p.tally.attempted for p in passes)
    failed = sum(p.tally.failed for p in passes)
    metrics = layer_metrics(setup, pairs)
    return {"correct": failed == 0 and not problems,
            "attempted": attempted, "failed": failed,
            "metrics": {name: metric(value, PER_LAYER[name])
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(have: {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]()
    run = run_traced if args.trace else run_untraced
    result = run(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
