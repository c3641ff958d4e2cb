"""Mutation rules: single-character edits of program tokens.

Per §4.2 of the paper, mutants are produced by *inserting, replacing or
removing one character* of a token — the classes of error the
DeMillo/Mathur study found to be both frequent and long-lived
(typographic and inattention errors).  The rules are identical for
every language in the comparison, which is what makes Table 1 a fair
experiment: the same finger slip is applied to the C driver, the Devil
specification and the stub-using CDevil code.

Each token kind draws its edit characters from an alphabet of the same
class (digits for numbers, letters matching the token's case for
identifiers, operator glyphs for operators, mask characters for Devil
bit patterns): a typo stays within the keyboard neighbourhood of the
token, and — as the paper requires — most resulting programs remain
syntactically valid, pushing the burden of detection onto semantic
checking.

``max_mutants_per_site`` bounds the per-site workload; selection is
deterministic (seeded by the site), so every run of the analysis sees
the same mutant population.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

#: Token-class alphabets for insert/replace edits.
DIGITS = "0123456789"
HEX_DIGITS = "0123456789abcdef"
LOWER = "abcdefghijklmnopqrstuvwxyz_"
UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ_"
OPERATOR_CHARS = "+-*/%<>=!&|^~.@#"
BITPATTERN_CHARS = "01.*-"


@dataclass(frozen=True)
class MutationSite:
    """One mutable token of the target program."""

    kind: str          # "ident", "number", "operator", "bitpattern"
    text: str
    offset: int        # character offset of the token in the source
    line: int

    def key(self) -> str:
        return f"{self.kind}:{self.text}@{self.offset}"


@dataclass(frozen=True)
class Mutant:
    """One single-character edit of one site."""

    site: MutationSite
    mutated_token: str
    description: str

    def apply(self, source: str) -> str:
        """Rewrite the source with the mutated token in place."""
        start = self.site.offset
        end = start + len(self.site.text)
        return source[:start] + self.mutated_token + source[end:]


def alphabet_for(site: MutationSite) -> str:
    """Edit alphabet, matched to the token's character class."""
    if site.kind == "number":
        return HEX_DIGITS if site.text.lower().startswith("0x") else DIGITS
    if site.kind == "ident":
        letters = [c for c in site.text if c.isalpha()]
        if letters and all(c.isupper() for c in letters):
            return UPPER
        return LOWER
    if site.kind == "operator":
        return OPERATOR_CHARS
    if site.kind == "bitpattern":
        return BITPATTERN_CHARS
    raise ValueError(f"unknown site kind {site.kind!r}")


def _population(site: MutationSite) -> dict[str, int]:
    """Every distinct mutated token, in the order its first edit comes
    in the stable edit order (removals, then insertions, then
    replacements, each by position and then alphabet), mapped to that
    edit's character index.  The index and the two texts determine the
    edit (see :func:`_describe`), so no edit object is built here."""
    text = site.text
    alphabet = alphabet_for(site)
    # Number tokens keep their radix prefix intact: mutating '0x' into
    # 'ax' is a lexical error, not a typo class the paper studies.
    protected = 2 if (site.kind == "number"
                      and text.lower().startswith("0x")) else 0
    first: dict[str, int] = {}
    record = first.setdefault
    if len(text) > max(1, protected):
        for index in range(protected, len(text)):
            record(text[:index] + text[index + 1:], index)
    for index in range(protected, len(text) + 1):
        head, tail = text[:index], text[index:]
        for char in alphabet:
            record(head + char + tail, index)
    for index in range(protected, len(text)):
        head, old, tail = text[:index], text[index], text[index + 1:]
        for char in alphabet:
            if char != old:
                record(head + char + tail, index)
    return first


def _describe(text: str, mutated: str, index: int) -> str:
    """The description of the edit at ``index`` turning ``text`` into
    ``mutated``."""
    if len(mutated) < len(text):
        return f"remove {text[index]!r} at {index}"
    if len(mutated) > len(text):
        return f"insert {mutated[index]!r} at {index}"
    return f"replace {text[index]!r} with {mutated[index]!r} at {index}"


def mutants_for_site(site: MutationSite,
                     max_mutants: int | None = None) -> list[Mutant]:
    """The mutant population of ``site``.

    Distinct mutated tokens only (different edits can collide; the
    first edit names the mutant).  When ``max_mutants`` is given, a
    deterministic site-seeded sample of that size is drawn (stratified
    over the full edit enumeration), so partial runs measure the same
    population every time.
    """
    population = _population(site)
    chosen = list(population)
    if max_mutants is not None and len(chosen) > max_mutants:
        seed = int.from_bytes(
            hashlib.sha256(site.key().encode()).digest()[:8], "big")
        stride = max(1, len(chosen) // max_mutants)
        chosen = chosen[seed % stride::stride][:max_mutants]
    text = site.text
    return [Mutant(site, mutated,
                   _describe(text, mutated, population[mutated]))
            for mutated in chosen]
