"""Differential tests: the regex tokenizers against the reference scanners.

``tests/lexer_oracle.py`` keeps the original character-at-a-time Devil
and mini-C scanners.  On every input both implementations must return
equal token lists (kind, text, location or offset and line, value) or
raise errors with equal class, message and location.  The only inputs
excluded are those on which the reference hits one of its two known
bugs, fixed in the new Devil lexer (see ``tests/test_lexer.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.devil.errors import DevilLexError
from repro.devil.lexer import tokenize
from repro.minic.lexer import CLexError, tokenize_c
from repro.mutation import corpus
from repro.mutation.registry import get_target
from repro.mutation.rules import mutants_for_site
from repro.specs import SPEC_NAMES, load_source
from tests.lexer_oracle import OracleLexer, oracle_tokenize_c

DEVIL_SOURCES = [load_source(name) for name in SPEC_NAMES]
C_SOURCES = [corpus.BUSMOUSE_C, corpus.BUSMOUSE_CDEVIL, corpus.IDE_C,
             corpus.IDE_CDEVIL, corpus.NE2000_C, corpus.NE2000_CDEVIL]

#: Printable ASCII, the other C whitespace, and non-ASCII characters
#: that are a letter, a non-decimal digit, a vulgar fraction, a decimal
#: digit of another script, and punctuation.
EDIT_ALPHABET = ([chr(code) for code in range(32, 127)]
                 + list("\t\n\r\f") + list("é²½١—"))


def devil_outcome(lex, source: str):
    try:
        return lex(source)
    except DevilLexError as error:
        return type(error), error.message, error.location


def c_outcome(lex, source: str):
    try:
        return lex(source)
    except CLexError as error:
        return type(error), str(error)


def oracle_tokenize(source: str):
    return list(OracleLexer(source).tokens())


def oracle_hits_known_bug(source: str) -> bool:
    """The reference lexes a trailing ``0`` as an incomplete hex literal,
    and lets ``int()`` reject digits such as ``²`` with a ValueError."""
    try:
        oracle_tokenize(source)
    except ValueError:
        return True
    except DevilLexError as error:
        last_column = len(source) - source.rfind("\n") - 1
        return (error.message == "incomplete hexadecimal literal"
                and source.endswith("0")
                and error.location.line == source.count("\n") + 1
                and error.location.column == last_column)
    return False


def assert_devil_agrees(source: str) -> None:
    assert devil_outcome(tokenize, source) == \
        devil_outcome(oracle_tokenize, source), source


def assert_c_agrees(source: str) -> None:
    assert c_outcome(tokenize_c, source) == \
        c_outcome(oracle_tokenize_c, source), source


SOURCES = ([("devil", source) for source in DEVIL_SOURCES]
           + [("c", source) for source in C_SOURCES])


@st.composite
def edited_sources(draw):
    language, source = draw(st.sampled_from(SOURCES))
    for _ in range(draw(st.integers(1, 3))):
        operation = draw(st.sampled_from(["insert", "delete", "replace"]))
        index = draw(st.integers(0, len(source)))
        char = draw(st.sampled_from(EDIT_ALPHABET))
        if operation == "insert":
            source = source[:index] + char + source[index:]
        elif operation == "delete":
            source = source[:index] + source[index + 1:]
        else:
            source = source[:index] + char + source[index + 1:]
    return language, source


@settings(max_examples=500, deadline=None)
@given(edited_sources())
def test_fuzzed_edits_lex_as_the_reference_does(edited):
    language, source = edited
    if language == "devil":
        assume(not oracle_hits_known_bug(source))
        assert_devil_agrees(source)
    else:
        assert_c_agrees(source)


#: Inputs that reach each diagnostic and each token lexed outside the
#: master pattern's ASCII fast path, in either lexer.
EDGE_CASES = [
    "", "x = 0", "0x", "0X;", "0xZZ", "0x١", "0b", "0b12", "0B1", "12ab",
    "1_", "1..5", "١٢ + 3", "1²", "é = 1", "a½", "'", "''", "'01",
    "'01\n'", "'012'", "/* x", "/*/ */", "x // c", "<=>", "<= >", ". .",
    "$", "\f", "\u00a0", "#define A 1 \\\n + 2\nx", "#x \\\\\ny", "#a\\",
    ".5", ".²", ".½", "a.é", "..²", "'\\'", "'a", "\"abc", "\"a\\\"b\" c",
    "'\n' x", "\"\n\" x", "09", "1e5", "1.2.3", "²x", "½", "—",
    "a/*b\n*/c\nd", "x<<=y...z->w",
]


@pytest.mark.parametrize("source", EDGE_CASES)
def test_edge_cases_lex_as_the_reference_does(source):
    if not oracle_hits_known_bug(source):
        assert_devil_agrees(source)
    assert_c_agrees(source)


@pytest.mark.parametrize("style", ["devil", "c", "cdevil"])
def test_busmouse_mutant_population(style):
    """Every mutant of every busmouse site lexes as the reference does.

    Each mutant is lexed on its mutated line (newline included): lexing
    all of them as whole files takes minutes, and edits whose effect
    crosses lines are what the whole-file fuzzing above draws.
    """
    target = get_target(f"busmouse/{style}")
    check = assert_devil_agrees if style == "devil" else assert_c_agrees
    source = target.source
    check(source)
    mutants = 0
    for site in target.sites:
        start = source.rfind("\n", 0, site.offset) + 1
        end = source.find("\n", site.offset) + 1 or len(source)
        before = source[start:site.offset]
        after = source[site.offset + len(site.text):end]
        for mutant in mutants_for_site(site):
            check(before + mutant.mutated_token + after)
            mutants += 1
    assert mutants > 10_000
