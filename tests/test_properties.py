"""Property-based tests (hypothesis) for the core data structures.

These cover the algebraic invariants the unit tests only spot-check:
mask classification laws, bit extract/insert round-trips, type
encode/decode round-trips, lexer totality over generated specs, and
stub write-read consistency on randomly generated register layouts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus import Bus
from repro.devil.compiler import compile_spec
from repro.devil.mask import Mask, extract_bits, insert_bits
from repro.devil.types import EnumDirection, EnumItem, EnumType, IntType

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

mask_patterns = st.text(alphabet="01.*-", min_size=1, max_size=32)
bytes8 = st.integers(min_value=0, max_value=255)


@st.composite
def bit_fields(draw):
    msb = draw(st.integers(min_value=0, max_value=31))
    lsb = draw(st.integers(min_value=0, max_value=msb))
    return msb, lsb


# ---------------------------------------------------------------------------
# Mask algebra laws
# ---------------------------------------------------------------------------


class TestMaskProperties:
    @given(mask_patterns)
    def test_partition_of_bits(self, pattern):
        """variable + irrelevant + forced partition the register."""
        mask = Mask.parse(pattern)
        all_bits = (1 << mask.width) - 1
        assert (mask.variable_bits | mask.irrelevant_bits
                | mask.forced_bits) == all_bits
        assert mask.variable_bits & mask.irrelevant_bits == 0
        assert mask.variable_bits & mask.forced_bits == 0
        assert mask.irrelevant_bits & mask.forced_bits == 0

    @given(mask_patterns)
    def test_pattern_roundtrip(self, pattern):
        assert Mask.parse(pattern).pattern() == pattern

    @given(mask_patterns, st.integers(min_value=0, max_value=2**32 - 1))
    def test_apply_write_idempotent(self, pattern, raw):
        mask = Mask.parse(pattern)
        once = mask.apply_write(raw)
        assert mask.apply_write(once) == once

    @given(mask_patterns, st.integers(min_value=0, max_value=2**32 - 1))
    def test_apply_write_respects_classes(self, pattern, raw):
        mask = Mask.parse(pattern)
        written = mask.apply_write(raw)
        assert written & mask.irrelevant_bits == 0
        assert written & mask.forced_bits == mask.forced_value
        assert written & mask.variable_bits == raw & mask.variable_bits

    @given(mask_patterns)
    def test_disjointness_is_symmetric(self, pattern):
        first = Mask.parse(pattern)
        second = Mask.parse(pattern[::-1])
        assert first.disjoint_with(second) == second.disjoint_with(first)

    @given(mask_patterns, mask_patterns)
    def test_write_discrimination_symmetric(self, a, b):
        first, second = Mask.parse(a), Mask.parse(b)
        assert first.write_discriminated_from(second) == \
            second.write_discriminated_from(first)


class TestBitHelpers:
    @given(bit_fields(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_extract_insert_roundtrip(self, field, target):
        msb, lsb = field
        extracted = extract_bits(target, msb, lsb)
        assert insert_bits(target, msb, lsb, extracted) == target

    @given(bit_fields(), st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_insert_then_extract(self, field, target, value):
        msb, lsb = field
        width_mask = (1 << (msb - lsb + 1)) - 1
        inserted = insert_bits(target, msb, lsb, value)
        assert extract_bits(inserted, msb, lsb) == value & width_mask

    @given(bit_fields(), st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_insert_preserves_outside_bits(self, field, target, value):
        msb, lsb = field
        field_bits = ((1 << (msb - lsb + 1)) - 1) << lsb
        inserted = insert_bits(target, msb, lsb, value)
        assert inserted & ~field_bits == target & ~field_bits


# ---------------------------------------------------------------------------
# Type round-trips
# ---------------------------------------------------------------------------


class TestTypeProperties:
    @given(st.integers(min_value=1, max_value=32), st.booleans(),
           st.integers())
    def test_int_encode_decode_roundtrip(self, width, signed, value):
        int_type = IntType(width, signed)
        if int_type.contains(value):
            assert int_type.decode(int_type.encode(value)) == value

    @given(st.integers(min_value=1, max_value=32),
           st.integers(min_value=0, max_value=2**32 - 1))
    def test_unsigned_decode_encode_roundtrip(self, width, raw):
        int_type = IntType(width)
        raw &= (1 << width) - 1
        assert int_type.encode(int_type.decode(raw)) == raw

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=255))
    def test_signed_decode_in_range(self, width, raw):
        int_type = IntType(width, signed=True)
        decoded = int_type.decode(raw)
        assert int_type.minimum <= decoded <= int_type.maximum

    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                    max_size=16, unique=True))
    def test_enum_roundtrip(self, values):
        items = tuple(EnumItem(f"SYM{v}", format(v, "04b"),
                               EnumDirection.BOTH) for v in values)
        enum_type = EnumType(items)
        for value in values:
            assert enum_type.encode(f"SYM{value}") == value
            assert enum_type.decode(value) == f"SYM{value}"


# ---------------------------------------------------------------------------
# Generated specifications: stub write-read consistency
# ---------------------------------------------------------------------------


class Ram:
    def __init__(self):
        self.cells = [0] * 4

    def io_read(self, offset, width):
        return self.cells[offset]

    def io_write(self, offset, value, width):
        self.cells[offset] = value


@st.composite
def field_layouts(draw):
    """A random partition of one 8-bit register into 1..4 fields."""
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=7),
                               min_size=0, max_size=3)))
    boundaries = [0] + cuts + [8]
    return [(boundaries[i + 1] - 1, boundaries[i])
            for i in range(len(boundaries) - 1)]


def spec_for_layout(layout):
    lines = ["device d (base : bit[8] port @ {0}) {",
             "    register r = base @ 0 : bit[8];"]
    for index, (msb, lsb) in enumerate(layout):
        width = msb - lsb + 1
        lines.append(f"    variable f{index} = r[{msb}..{lsb}] "
                     f": int({width});")
    lines.append("}")
    return compile_spec("\n".join(lines))


class TestStubConsistency:
    @settings(max_examples=40, deadline=None)
    @given(field_layouts(), st.data())
    def test_write_then_read_every_field(self, layout, data):
        spec = spec_for_layout(layout)
        bus = Bus()
        ram = Ram()
        bus.map_device(0x10, 4, ram)
        device = spec.bind(bus, {"base": 0x10})
        written = {}
        for index, (msb, lsb) in enumerate(layout):
            width = msb - lsb + 1
            value = data.draw(st.integers(min_value=0,
                                          max_value=(1 << width) - 1),
                              label=f"f{index}")
            device.set(f"f{index}", value)
            written[index] = value
        for index, value in written.items():
            assert device.get(f"f{index}") == value

    @settings(max_examples=40, deadline=None)
    @given(field_layouts(), st.data())
    def test_neighbour_fields_undisturbed(self, layout, data):
        """Writing one field must not change any other field."""
        spec = spec_for_layout(layout)
        bus = Bus()
        ram = Ram()
        bus.map_device(0x10, 4, ram)
        device = spec.bind(bus, {"base": 0x10})
        for index, (msb, lsb) in enumerate(layout):
            device.set(f"f{index}", (1 << (msb - lsb + 1)) - 1)
        target = data.draw(st.integers(min_value=0,
                                       max_value=len(layout) - 1))
        msb, lsb = layout[target]
        device.set(f"f{target}", 0)
        for index, (msb, lsb) in enumerate(layout):
            expected = 0 if index == target else (1 << (msb - lsb + 1)) - 1
            assert device.get(f"f{index}") == expected

    @settings(max_examples=25, deadline=None)
    @given(field_layouts(), st.data())
    def test_generated_python_agrees_with_runtime(self, layout, data):
        """The specializer's generated Python agrees with the
        interpreter on values and on the full bus trace."""
        spec = spec_for_layout(layout)
        debug = data.draw(st.booleans(), label="debug")
        bus_a, bus_b = Bus(tracing=True), Bus(tracing=True)
        bus_a.map_device(0x10, 4, Ram())
        bus_b.map_device(0x10, 4, Ram())
        specialized = spec.bind(bus_a, {"base": 0x10}, debug=debug,
                                strategy="specialize")
        interpreted = spec.bind(bus_b, {"base": 0x10}, debug=debug)
        for index, (msb, lsb) in enumerate(layout):
            width = msb - lsb + 1
            value = data.draw(st.integers(min_value=0,
                                          max_value=(1 << width) - 1))
            getattr(specialized, f"set_f{index}")(value)
            getattr(interpreted, f"set_f{index}")(value)
            assert getattr(specialized, f"get_f{index}")() == \
                getattr(interpreted, f"get_f{index}")() == value
        assert bus_a.trace == bus_b.trace


# ---------------------------------------------------------------------------
# Lexer totality
# ---------------------------------------------------------------------------


class TestLexerProperties:
    @given(st.text(alphabet=st.characters(min_codepoint=32,
                                          max_codepoint=126),
                   max_size=80))
    def test_lexer_never_crashes_unexpectedly(self, source):
        """Any printable input either tokenizes or raises DevilLexError."""
        from repro.devil.errors import DevilLexError
        from repro.devil.lexer import tokenize
        try:
            tokens = tokenize(source)
        except DevilLexError:
            return
        assert tokens[-1].kind.name == "EOF"

    @given(st.text(alphabet="01.*-", min_size=1, max_size=16))
    def test_bit_patterns_always_tokenize(self, pattern):
        from repro.devil.lexer import TokenKind, tokenize
        (token,) = tokenize(f"'{pattern}'")[:-1]
        assert token.kind is TokenKind.BITPATTERN
        assert token.text == pattern


# ---------------------------------------------------------------------------
# Mutation rules invariants
# ---------------------------------------------------------------------------


class TestMutationProperties:
    @given(st.text(alphabet="abcdefgh_", min_size=1, max_size=10))
    def test_mutants_differ_from_original(self, token):
        from repro.mutation.rules import MutationSite, mutants_for_site
        site = MutationSite("ident", token, 0, 1)
        for mutant in mutants_for_site(site, 20):
            assert mutant.mutated_token != token

    @given(st.text(alphabet="0123456789", min_size=1, max_size=5))
    def test_mutants_unique(self, token):
        from repro.mutation.rules import MutationSite, mutants_for_site
        site = MutationSite("number", token, 0, 1)
        tokens = [m.mutated_token for m in mutants_for_site(site)]
        assert len(tokens) == len(set(tokens))

    @given(st.text(alphabet="abc_", min_size=1, max_size=8),
           st.integers(min_value=1, max_value=30))
    def test_sampling_bounded(self, token, cap):
        from repro.mutation.rules import MutationSite, mutants_for_site
        site = MutationSite("ident", token, 0, 1)
        assert len(mutants_for_site(site, cap)) <= cap
