"""Quick self-test of the benchmark (about a minute).

Usage: python3 perfbench/selftest.py

Runs every workload briefly, untraced and traced, and asserts that:

* the last output line has exactly the contract's keys, and every
  metric ``BENCHMARK.json`` names is printed with its unit;
* nothing failed (``ok_frac == 1``, ``failed == 0``, ``correct``);
* every layer has spans on the workloads that exercise it;
* the exact simulated statistics repeat for a seed, and a held-out
  seed passes every check too;
* the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED, HELD_OUT = 7, 20_000

#: Per-layer metrics that must be positive on each workload: one per
#: layer the workload exercises (README.md has the full map).
EXERCISED = {
    "ide_word": ["drivers.calls", "runtime.stub_calls", "bus.single_ops",
                 "devices.model_calls", "devices.ide.interrupts",
                 "devil.lexer.tokens", "devil.compile.calls"],
    "ide_block": ["drivers.calls", "runtime.block_calls", "bus.block_ops",
                  "devices.model_calls", "devices.ide.interrupts",
                  "devil.lexer.tokens", "devil.compile.calls"],
    "x11_prims": ["drivers.calls", "runtime.stub_calls", "bus.single_ops",
                  "devices.model_calls", "devices.permedia2.fifo_polls",
                  "devil.lexer.tokens", "devil.compile.calls"],
    "table1_campaign": ["devil.lexer.tokens", "devil.compile.calls",
                        "minic.lexer.self_s", "minic.checker.calls",
                        "mutation.edits", "mutation.rules.self_s",
                        "mutation.vcache.self_s"],
}
#: Per-layer metrics that are exact for a seed.
EXACT = ["drivers.calls", "runtime.stub_calls", "runtime.block_calls",
         "runtime.block_words", "bus.single_ops", "bus.block_ops",
         "bus.block_words", "devices.model_calls",
         "devices.ide.interrupts", "devices.permedia2.fifo_polls",
         "perf.sim_us_per_item", "perf.sim_mb_s", "perf.sim_prims_per_s"]


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result(workload: str, seed: int, trace: int) -> dict:
    done = bench(workload, seed, trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0, (workload, done.stderr)
    assert line["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {name: m["unit"] for name, m in line["metrics"].items()}, workload
    return {name: m["value"] for name, m in line["metrics"].items()}


def main() -> None:
    for workload in EXERCISED:
        print(f"{workload} ...", flush=True)
        end_to_end = result(workload, SEED, 0)
        assert end_to_end["ok_frac"] == 1.0
        assert all(value > 0 for value in end_to_end.values()), end_to_end
        layers = result(workload, SEED, 1)
        for name in EXERCISED[workload]:
            assert layers[name] > 0, (workload, name)
        if workload == "table1_campaign":
            continue  # its inputs ignore the seed; reference.json pins it
        again = result(workload, SEED, 1)
        assert [layers[n] for n in EXACT] == [again[n] for n in EXACT]
        result(workload, HELD_OUT, 1)

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = bench("ide_word", SEED, 0, cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0 and not done.stdout.strip()
    print("selftest passed")


if __name__ == "__main__":
    main()
