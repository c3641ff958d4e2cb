"""Reference mutant enumeration for the mutation-rule tests.

The original edit enumeration of ``repro.mutation.rules``, which built
one :class:`~repro.mutation.rules.Mutant` per edit before dropping
duplicates and sampling, kept verbatim (only the imports are new) as a
test oracle for the string-level draw.  Nothing outside the tests
imports this module.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

from repro.mutation.rules import Mutant, MutationSite, alphabet_for


def _all_edits(site: MutationSite) -> Iterator[Mutant]:
    """Every removal, insertion and replacement, in a stable order."""
    text = site.text
    alphabet = alphabet_for(site)
    # Number tokens keep their radix prefix intact: mutating '0x' into
    # 'ax' is a lexical error, not a typo class the paper studies.
    protected = 2 if (site.kind == "number"
                      and text.lower().startswith("0x")) else 0
    for index in range(protected, len(text)):
        if len(text) > max(1, protected):
            removed = text[:index] + text[index + 1:]
            if removed != text:
                yield Mutant(site, removed,
                             f"remove {text[index]!r} at {index}")
    for index in range(protected, len(text) + 1):
        for char in alphabet:
            inserted = text[:index] + char + text[index:]
            yield Mutant(site, inserted, f"insert {char!r} at {index}")
    for index in range(protected, len(text)):
        for char in alphabet:
            if char == text[index]:
                continue
            replaced = text[:index] + char + text[index + 1:]
            yield Mutant(site, replaced, f"replace {text[index]!r} with "
                                         f"{char!r} at {index}")


def mutants_for_site(site: MutationSite,
                     max_mutants: int | None = None) -> list[Mutant]:
    """The mutant population of ``site``.

    When ``max_mutants`` is given, a deterministic site-seeded sample of
    that size is drawn (stratified over the full edit enumeration), so
    partial runs measure the same population every time.
    """
    all_mutants = list(_all_edits(site))
    # Distinct mutated tokens only (different edits can collide).
    unique: dict[str, Mutant] = {}
    for mutant in all_mutants:
        unique.setdefault(mutant.mutated_token, mutant)
    population = list(unique.values())
    if max_mutants is None or len(population) <= max_mutants:
        return population
    seed = int.from_bytes(
        hashlib.sha256(site.key().encode()).digest()[:8], "big")
    stride = max(1, len(population) // max_mutants)
    start = seed % stride
    sample = population[start::stride][:max_mutants]
    return sample
