"""Differential tests: token-splice re-lexing against the plain lex.

With a baseline of the original source, ``Lexer(edited, base=...)``
and ``tokenize_c(edited, base=...)`` re-scan only the window around the
edit and splice in the baseline's tokens on either side.  On every
edited source they must return what the plain lex returns: equal token
lists, or errors with equal class, message and location.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devil.errors import DevilLexError
from repro.devil.lexer import Lexer, devil_baseline
from repro.minic.lexer import CLexError, c_baseline, tokenize_c
from repro.mutation.registry import get_target, target_ids
from repro.mutation.rules import mutants_for_site
from tests.test_lexer_differential import SOURCES, draw_edits

BASES = {source: devil_baseline(source) if language == "devil"
         else c_baseline(source) for language, source in SOURCES}


def devil_lex(source: str, base=None):
    try:
        return list(Lexer(source, base=base).tokens())
    except DevilLexError as error:
        return type(error), error.message, error.location


def c_lex(source: str, base=None):
    try:
        return tokenize_c(source, base=base)
    except CLexError as error:
        return type(error), str(error)


def assert_splice_agrees(language: str, base, edited: str) -> None:
    lex = devil_lex if language == "devil" else c_lex
    assert lex(edited, base) == lex(edited), edited


@st.composite
def edit_pairs(draw):
    language, source = draw(st.sampled_from(SOURCES))
    return language, source, draw_edits(draw, source)


@settings(max_examples=500, deadline=None)
@given(edit_pairs())
def test_fuzzed_edits_splice_as_the_plain_lex(pair):
    language, source, edited = pair
    assert_splice_agrees(language, BASES[source], edited)


def _edge_edits(language: str, source: str) -> list[str]:
    """Edits at the ends, inside comments, opening unterminated
    comments, quotes and bit patterns, and adding or removing line
    breaks, applied to ``source``."""
    middle = len(source) // 2
    comment = source.find("/*")
    if comment < 0:
        comment = source.index("//")
    newline = source.index("\n", middle)
    quote = "'" if language == "devil" else '"'
    edits = [
        "x" + source, source[1:], "\n" + source, source + "x",
        source[:-1], source + "/*", source + quote,
        source[:comment + 3] + "x" + source[comment + 3:],
        source[:comment + 3] + "*/" + source[comment + 3:],
        source[:comment + 1] + source[comment + 2:],
        source[:middle] + "/*" + source[middle:],
        source[:middle] + quote + source[middle:],
        source[:middle] + "\n" + source[middle:],
        source[:newline] + source[newline + 1:],
        source[:newline] + "\n\n" + source[newline + 1:],
    ]
    if language == "devil":
        pattern = source.index("'")
        close = source.index("'", pattern + 1)
        edits += [source[:close] + source[close + 1:],
                  source[:close] + "\n" + source[close + 1:],
                  source[:pattern + 1] + source[close:],
                  source[:pattern + 1] + "2" + source[pattern + 1:]]
    return edits


@pytest.mark.parametrize("language,source", SOURCES,
                         ids=[f"{language}{index}" for index, (language, _)
                              in enumerate(SOURCES)])
def test_edge_edits_splice_as_the_plain_lex(language, source):
    for edited in _edge_edits(language, source):
        assert_splice_agrees(language, BASES[source], edited)


@pytest.mark.parametrize("language,source,edited", [
    # A '.' is lexed only after '...' fails two characters past it.
    ("c", "x..y;", "x...;"),
    ("c", "a . . b", "a ... b"),
    ("c", "#define A 1 \\\n + 2\nx y", "#define A 1 \\\n + 3\nx y"),
    ("c", "a 'b' c", "a 'b c"),
    ("c", "a\nb", "a\n\nb"),
    ("devil", "a <= b", "a <=> b"),
    ("devil", "x '01' y", "x '01 y"),
    ("devil", "a\nb c\nd", "a\nbb c\nd"),
    ("devil", "abc", "xabc"),
    ("devil", "a 12 b", "a 12b b"),
    ("devil", "a", "a"),
])
def test_small_edits_splice_as_the_plain_lex(language, source, edited):
    base = devil_baseline(source) if language == "devil" \
        else c_baseline(source)
    assert_splice_agrees(language, base, edited)


def test_unmoved_tokens_are_the_baselines_own():
    """Devil tokens off the edited line, and C tokens after the edited
    one whose offset and line stay put, are reused, not rebuilt."""
    target = get_target("ide/devil")
    base = devil_baseline(target.source)
    site = [site for site in target.sites if site.kind == "ident"][40]
    edited = target.source[:site.offset] + site.text + "x" + \
        target.source[site.offset + len(site.text):]
    tokens = list(Lexer(edited, base=base).tokens())
    assert tokens == list(Lexer(edited).tokens())
    assert len(tokens) == len(base.tokens)
    for old, new in zip(base.tokens, tokens):
        if new.location.line != site.line:
            assert new is old
        elif new.location.column > site.offset - \
                target.source.rfind("\n", 0, site.offset):
            assert new is not old and new.location.column == \
                old.location.column + 1

    source = get_target("ide/c").source
    base = c_baseline(source)
    index = next(index for index, token in enumerate(base.tokens)
                 if index > 100 and token.text.isidentifier())
    offset = base.tokens[index].offset
    edited = source[:offset] + "q" + source[offset + 1:]
    tokens = tokenize_c(edited, base=base)
    assert tokens == tokenize_c(edited)
    assert all(new is old for old, new
               in zip(base.tokens[index + 1:], tokens[index + 1:]))
    assert all(new is old for old, new
               in zip(base.tokens[:index - 2], tokens[:index - 2]))


def test_baseline_filename_must_match():
    base = devil_baseline("a b", "spec.devil")
    assert list(Lexer("a c", "spec.devil", base).tokens()) == \
        list(Lexer("a c", "spec.devil").tokens())
    with pytest.raises(ValueError, match="baseline was lexed as"):
        Lexer("a c", "other.devil", base)


@pytest.mark.slow
@pytest.mark.parametrize("target_id", target_ids())
def test_campaign_mutants_splice_as_the_plain_lex(target_id):
    """Six mutants of every site of every campaign target."""
    target = get_target(target_id)
    language = "devil" if target.language == "Devil" else "c"
    base = devil_baseline(target.source) if language == "devil" \
        else c_baseline(target.source)
    for site in target.sites:
        for mutant in mutants_for_site(site, 6):
            assert_splice_agrees(language, base,
                                 mutant.apply(target.source))
