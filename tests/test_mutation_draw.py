"""The string-level mutant draw against the reference enumeration.

``tests/mutation_oracle.py`` keeps the original draw, which built one
``Mutant`` per edit.  For every site of every campaign target, and at
every budget the campaign and Table 1 use, both must return equal
mutants: same tokens, same order, same descriptions.
"""

from __future__ import annotations

import pytest

from repro.mutation.registry import get_target, target_ids
from repro.mutation.rules import mutants_for_site
from tests.mutation_oracle import mutants_for_site as oracle_mutants


@pytest.mark.parametrize("target_id", target_ids())
def test_draw_equals_the_reference(target_id):
    for site in get_target(target_id).sites:
        for cap in (1, 8, 12, None):
            assert mutants_for_site(site, cap) == \
                oracle_mutants(site, cap), (site, cap)
