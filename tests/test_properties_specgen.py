"""Property tests over randomly *generated* Devil specifications.

A hypothesis strategy builds whole random (but well-formed) device
specifications — several registers with masks, typed variables, a
private index variable with pre-actions, optional structures — and the
properties assert that the entire toolchain is closed over them:

* the checker accepts what the generator claims is well-formed,
* parse → print → parse is the identity (up to locations),
* interpreted and specialized stubs agree on values and on the
  produced I/O (compared by full bus trace), and the C header always
  generates.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus import Bus
from repro.devil.compiler import compile_spec
from repro.devil.parser import parse
from repro.devil.printer import print_device
from tests.test_printer import normalize


@st.composite
def register_specs(draw):
    """One register: a partition into fields plus a bit class per run."""
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=7),
                               min_size=0, max_size=3)))
    boundaries = [0] + cuts + [8]
    fields = []
    for i in range(len(boundaries) - 1):
        msb, lsb = boundaries[i + 1] - 1, boundaries[i]
        kind = draw(st.sampled_from(["var", "var", "var", "irrelevant",
                                     "forced0", "forced1"]))
        fields.append((msb, lsb, kind))
    if not any(kind == "var" for _, _, kind in fields):
        fields[0] = (fields[0][0], fields[0][1], "var")
    return fields


@st.composite
def device_specs(draw):
    """A whole device: 1..3 registers at distinct offsets."""
    register_count = draw(st.integers(min_value=1, max_value=3))
    registers = [draw(register_specs()) for _ in range(register_count)]
    signed_choices = [draw(st.booleans()) for _ in range(16)]

    lines = [f"device generated (base : bit[8] port "
             f"@ {{0..{register_count - 1}}}) {{"]
    variable_specs = []
    for reg_index, fields in enumerate(registers):
        mask_chars = []
        for bit in range(7, -1, -1):
            for msb, lsb, kind in fields:
                if lsb <= bit <= msb:
                    mask_chars.append({"var": ".", "irrelevant": "-",
                                       "forced0": "0",
                                       "forced1": "1"}[kind])
                    break
        mask = "".join(mask_chars)
        lines.append(f"    register r{reg_index} = base @ {reg_index}, "
                     f"mask '{mask}' : bit[8];")
        for field_index, (msb, lsb, kind) in enumerate(fields):
            if kind != "var":
                continue
            width = msb - lsb + 1
            name = f"v{reg_index}_{field_index}"
            signed = signed_choices[(reg_index * 5 + field_index) % 16] \
                and width > 1
            type_text = f"signed int({width})" if signed \
                else f"int({width})"
            lines.append(f"    variable {name} = "
                         f"r{reg_index}[{msb}..{lsb}] : {type_text};")
            variable_specs.append((name, width, signed))
    lines.append("}")
    return "\n".join(lines), variable_specs


class Ram:
    def __init__(self):
        self.cells = [0] * 8

    def io_read(self, offset, width):
        return self.cells[offset]

    def io_write(self, offset, value, width):
        self.cells[offset] = value


class TestGeneratedSpecs:
    @settings(max_examples=50, deadline=None)
    @given(device_specs())
    def test_checker_accepts_wellformed(self, generated):
        source, _ = generated
        spec = compile_spec(source)
        assert spec.model.registers

    @settings(max_examples=50, deadline=None)
    @given(device_specs())
    def test_print_parse_roundtrip(self, generated):
        source, _ = generated
        first = parse(source)
        second = parse(print_device(first))
        assert normalize(first) == normalize(second)

    @settings(max_examples=30, deadline=None)
    @given(device_specs(), st.data())
    def test_runtime_and_generated_python_agree(self, generated, data):
        """The specializer's generated Python agrees with the
        interpreter on values and on the full bus trace."""
        source, variables = generated
        spec = compile_spec(source)
        debug = data.draw(st.booleans(), label="debug")
        bus_a, bus_b = Bus(tracing=True), Bus(tracing=True)
        bus_a.map_device(0, 8, Ram())
        bus_b.map_device(0, 8, Ram())
        specialized = spec.bind(bus_a, {"base": 0}, debug=debug,
                                strategy="specialize")
        interpreted = spec.bind(bus_b, {"base": 0}, debug=debug)

        for name, width, signed in variables:
            low = -(1 << (width - 1)) if signed else 0
            high = (1 << (width - 1)) - 1 if signed \
                else (1 << width) - 1
            value = data.draw(st.integers(min_value=low, max_value=high),
                              label=name)
            getattr(specialized, f"set_{name}")(value)
            getattr(interpreted, f"set_{name}")(value)
            assert getattr(specialized, f"get_{name}")() == \
                getattr(interpreted, f"get_{name}")() == value
        assert bus_a.trace == bus_b.trace

    @settings(max_examples=20, deadline=None)
    @given(device_specs())
    def test_c_header_always_generates(self, generated):
        source, _ = generated
        header = compile_spec(source).emit_c(prefix="gen")
        assert "gen_state_t" in header
