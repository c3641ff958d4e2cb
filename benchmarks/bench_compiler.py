"""Compiler performance: front-end and backends over the spec library.

Not a paper table, but the practical cost a driver build pays per
specification: parse + check, then each backend.
"""

import pytest

from repro.devil.compiler import compile_spec
from repro.specs import SPEC_NAMES, load_source


@pytest.mark.parametrize("name", SPEC_NAMES)
def test_compile_spec(benchmark, name):
    source = load_source(name)
    benchmark(compile_spec, source)


def test_emit_c_busmouse(benchmark):
    spec = compile_spec(load_source("busmouse"))
    benchmark(spec.emit_c)

