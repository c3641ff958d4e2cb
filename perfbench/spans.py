"""Span recording for the traced benchmark run.

The benchmark instruments the program from the outside: each wrapper
installed here replaces one public entry point of a layer (a driver
method, a bound stub, a ``Bus`` method, a device model's
``io_read``/``io_write``, or a front-end function) and records one span
per call: its name, start, end and parent span.  Nothing inside
``src/`` is modified; every patch is undone by :meth:`Tracer.uninstall`.

Spans are kept in flat ``array`` columns (24 bytes per span) so a pass
of a few hundred thousand stub calls stays small in memory.  A span's
*self time* is its duration minus the durations of its direct
children; summing self times by layer attributes every traced second to
exactly one layer.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

#: Span-name prefixes (the part before ``/``) are the layers reported:
#: the program's, plus ``bench`` for the benchmark's own result checks.
LAYERS = (
    "drivers", "runtime", "bus", "devices",
    "devil.lexer", "devil.compile", "minic.lexer", "minic.checker",
    "mutation.rules", "mutation.vcache", "mutation.campaign", "bench",
)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: Work counts recorded at the same boundaries (block words,
        #: lexer tokens, mutation edits), keyed by counter name.
        self.counters: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def clear(self) -> None:
        """Drop every recorded span and counter (wrappers stay valid:
        the columns are emptied in place)."""
        for column in (self.name, self.parent, self.start, self.end):
            del column[:]
        del self._stack[1:]
        self.counters.clear()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, units=None):
        """``fn`` recording one span per call under ``name``.

        ``units(args, result)``, when given, returns how much work the
        call did (words moved, tokens produced, edits generated); it is
        summed into the ``<name>.units`` counter.
        """
        nid = self._id(name)
        names, parents, starts, ends = \
            self.name, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, \
            time.perf_counter
        units_key = f"{name}.units"

        def traced(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if units is not None:
                counters[units_key] = counters.get(units_key, 0) + \
                    units(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Like :meth:`wrap` for a generator function: one span per
        resumption, and one unit per item yielded."""
        resume = self.wrap(name, next, units=lambda args, result: 1)

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = resume(inner)
                except StopIteration:
                    return
                yield item

        return traced

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attribute: str, replacement) -> None:
        """Set ``owner.attribute``, remembering the original."""
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def patch_function(self, original, replacement) -> None:
        """Rebind every ``repro.*`` module global that names
        ``original`` (functions imported by name live in several
        modules, and callers look them up in their own)."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attribute, replacement)

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- analysis ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name call counts and self times, plus the total
        duration of top-level spans."""
        count = len(self.name)
        names = np.frombuffer(self.name, dtype=np.uint16, count=count)
        parents = np.frombuffer(self.parent, dtype=np.int32, count=count)
        duration = np.frombuffer(self.end, dtype=np.float64, count=count) \
            - np.frombuffer(self.start, dtype=np.float64, count=count)
        nested = parents >= 0
        child_time = np.bincount(parents[nested], weights=duration[nested],
                                 minlength=count)
        self_time = duration - child_time
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        self_by_name = np.bincount(names, weights=self_time,
                                   minlength=width)
        return {
            "calls": {self.names[i]: int(calls[i]) for i in range(width)},
            "self_s": {self.names[i]: float(self_by_name[i])
                       for i in range(width)},
            "min_self_s": float(self_time.min()) if count else 0.0,
            "top_level_s": float(duration[~nested].sum()),
            "counters": dict(self.counters),
        }

    def dump(self, path) -> None:
        """Write the recorded spans to ``path`` (NumPy ``.npz``)."""
        count = len(self.name)
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16, count=count),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=count),
            start=np.frombuffer(self.start, dtype=np.float64, count=count),
            end=np.frombuffer(self.end, dtype=np.float64, count=count))


def by_layer(summary: dict, field: str) -> dict[str, float]:
    """Fold a :meth:`Tracer.summary` field from span names to layers."""
    totals = {layer: 0 for layer in LAYERS}
    for name, value in summary[field].items():
        totals[name.split("/", 1)[0]] += value
    return totals
