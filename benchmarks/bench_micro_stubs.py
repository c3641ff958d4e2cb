"""§4.3 micro-analysis: per-stub costs and the shared-register penalty.

Two kinds of measurement:

* I/O-operation counts (exact, from the bus): a single stub performs
  exactly the hand-written access; independent variables over one
  register cost one operation each; structure grouping reads each
  register once.
* Python-level call timing (pytest-benchmark): the interpreting stub
  vs the specialized (compiled) stub vs a raw bus access.  In the
  paper the generated C inlines to the hand-written code; here the
  bind-time specializer plays that role.
"""

import dataclasses

from conftest import record

from repro.bus import Bus
from repro.devices.busmouse import BusmouseModel
from repro.perf.micro import (
    shared_register_op_count,
    single_stub_op_count,
    structure_grouping_op_count,
)
from repro.specs import compile_shipped


def test_micro_op_counts(benchmark):
    def run():
        return (single_stub_op_count(), shared_register_op_count(),
                structure_grouping_op_count())
    single, shared, grouping = benchmark.pedantic(run, rounds=1,
                                                  iterations=1)
    lines = [
        f"single stub write:      hand={single.hand_written} "
        f"devil={single.devil} (overhead {single.overhead})",
        f"3 vars on one register: hand={shared.hand_written} "
        f"devil={shared.devil} (overhead {shared.overhead})",
        f"mouse state read:       grouped={grouping[0]} "
        f"ungrouped={grouping[1]}",
    ]
    record("micro_stub_costs", "\n".join(lines),
           data={"single": dataclasses.asdict(single),
                 "shared": dataclasses.asdict(shared),
                 "grouping": {"grouped": grouping[0],
                              "ungrouped": grouping[1]}})
    assert single.overhead == 0
    assert shared.overhead == 2
    assert grouping[0] < grouping[1]


def _mouse(debug):
    bus = Bus()
    bus.map_device(0x23C, 4, BusmouseModel(), "busmouse")
    return compile_shipped("busmouse").bind(bus, {"base": 0x23C},
                                            debug=debug), bus


def test_interpreted_stub_call(benchmark):
    device, _ = _mouse(debug=False)
    benchmark(device.set_config, "CONFIGURATION")


def test_generated_stub_call(benchmark):
    bus = Bus()
    bus.map_device(0x23C, 4, BusmouseModel(), "busmouse")
    stubs = compile_shipped("busmouse").bind(
        bus, {"base": 0x23C}, debug=False, strategy="specialize")
    benchmark(stubs.set_config, "CONFIGURATION")


def test_raw_bus_access(benchmark):
    bus = Bus()
    bus.map_device(0x23C, 4, BusmouseModel(), "busmouse")
    benchmark(bus.outb, 0x91, 0x23F)

