"""The mutation campaign engine: cache, registry, projection, CLI.

Covers the campaign's correctness story piece by piece: the verdict
cache round-trips and survives corruption (re-evaluates instead of
crashing or trusting a bad record), the target registry memoizes
construction (``run_table1`` no longer re-parses specs per call), the
campaign's Table 1 projection is byte-equal to the serial
:func:`repro.mutation.run_table1`, and the ``devil campaign`` CLI
round-trips.  The cross-backend properties live in
``test_campaign_properties.py``.
"""

from __future__ import annotations

import importlib.util
import json
import multiprocessing
import sys
import threading
from pathlib import Path

import pytest

from repro.mutation import (
    CampaignConfig,
    CampaignReport,
    MutantCaps,
    VerdictCache,
    analyze_target,
    available_styles,
    generate_units,
    get_target,
    run_campaign,
    run_table1,
    target_fingerprint,
    target_ids,
    unit_key,
)
from repro.mutation import registry
from repro.specs import SPEC_NAMES

QUICK = MutantCaps.quick(2)

#: The cheapest real scope: one target, ~28 units, well under 100 ms.
TINY = dict(specs=("busmouse",), styles=("cdevil",), caps=QUICK)


# ---------------------------------------------------------------------------
# Verdict cache
# ---------------------------------------------------------------------------


def _record(key: str) -> dict:
    return {"key": key, "target_id": "busmouse/cdevil",
            "site": {"kind": "number", "text": "3", "offset": 10,
                     "line": 2},
            "mutants": 4, "detected": 3, "undetected": 1,
            "survivors": ["'3' -> '8' (line 2)"]}


def test_vcache_round_trip(tmp_path):
    cache = VerdictCache(tmp_path)
    key = "ab" + "0" * 62
    assert cache.get(key) is None
    cache.put(key, _record(key))
    record = cache.get(key)
    assert record is not None
    assert record["mutants"] == 4
    assert record["survivors"] == ["'3' -> '8' (line 2)"]
    assert cache.stats() == {"hits": 1, "misses": 1, "corrupt": 0,
                             "writes": 1}
    # Entries fan out under a two-character prefix directory.
    assert cache.path_for(key).parent.name == "ab"


@pytest.mark.parametrize("poison", [
    "",                                        # truncated to nothing
    "{\"key\": \"",                            # torn mid-write
    "not json at all\n",
    "[1, 2, 3]\n",                             # wrong shape
    json.dumps({"schema": 99}),                # schema mismatch
])
def test_vcache_rejects_garbled_entries(tmp_path, poison):
    cache = VerdictCache(tmp_path)
    key = "cd" + "1" * 62
    cache.put(key, _record(key))
    cache.path_for(key).write_text(poison)
    assert cache.get(key) is None
    assert cache.corrupt == 1


def test_vcache_rejects_key_and_arithmetic_mismatches(tmp_path):
    cache = VerdictCache(tmp_path)
    key = "ef" + "2" * 62
    other = "ef" + "3" * 62
    # A record filed under the wrong key must not be trusted.
    cache.put(key, _record(other) | {"key": other})
    cache.path_for(key).write_text(
        json.dumps(_record(other)))
    assert cache.get(key) is None
    # detected + undetected must equal mutants.
    bad = _record(key)
    bad["detected"] = 99
    cache.put(key, bad)
    assert cache.get(key) is None
    assert cache.corrupt >= 2


def test_vcache_put_returns_the_record_get_reads(tmp_path):
    cache = VerdictCache(tmp_path)
    key = "ab" + "5" * 62
    published = cache.put(key, _record(key))
    assert published == cache.get(key)
    assert published["schema"] == 1 and published["key"] == key


def _put_repeatedly(root: str, key: str, barrier, rounds: int,
                    errors=None) -> None:
    try:
        cache = VerdictCache(root)
        barrier.wait()
        for _ in range(rounds):
            cache.put(key, _record(key))
    except BaseException as error:      # reported by the test thread
        if errors is None:
            raise
        errors.append(error)


@pytest.mark.concurrency
def test_vcache_concurrent_puts_of_one_key(tmp_path):
    """8 threads and 4 processes racing to publish one key leave
    exactly one valid record, and no lock or temp files."""
    key = "9a" + "4" * 62
    context = multiprocessing.get_context("spawn")
    process_barrier = context.Barrier(5)
    processes = [context.Process(
        target=_put_repeatedly,
        args=(str(tmp_path), key, process_barrier, 50))
        for _ in range(4)]
    for process in processes:
        process.start()
    errors: list = []
    thread_barrier = threading.Barrier(8)
    threads = [threading.Thread(
        target=_put_repeatedly,
        args=(str(tmp_path), key, thread_barrier, 50, errors))
        for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # The threads start once every process has imported and waits.
        process_barrier.wait(timeout=60)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    for process in processes:
        process.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert [process.exitcode for process in processes] == [0] * 4
    cache = VerdictCache(tmp_path)
    assert cache.get(key) == _record(key) | {"schema": 1, "key": key}
    files = [path for path in tmp_path.rglob("*") if path.is_file()]
    assert files == [cache.path_for(key)]


def test_serial_campaign_keeps_its_records(tmp_path):
    """A cold serial run folds the records it published, reading
    none back: one probe per unit and no hits."""
    cache = VerdictCache(tmp_path)
    result = run_campaign(CampaignConfig(**TINY), cache=cache)
    assert (cache.hits, cache.misses) == (0, result.units)
    assert len(list(tmp_path.rglob("*.json"))) == result.units
    again = run_campaign(CampaignConfig(**TINY),
                         cache=VerdictCache(tmp_path))
    assert again.report.to_json() == result.report.to_json()


def test_campaign_recovers_from_cache_corruption(tmp_path):
    """Garbling cached verdicts makes the campaign re-evaluate the
    affected units — same report, no crash, corruption counted."""
    cache = VerdictCache(tmp_path)
    config = CampaignConfig(**TINY)
    first = run_campaign(config, cache=cache)
    units = generate_units(config)
    assert len(units) >= 3
    # Truncate one entry mid-record and garble another outright.
    cache.path_for(units[0].key).write_text(
        cache.path_for(units[0].key).read_text()[:17])
    cache.path_for(units[1].key).write_text("\x00\xff garbage")
    again = run_campaign(config, cache=VerdictCache(tmp_path))
    assert again.corrupt_recovered == 2
    assert again.evaluated == 2
    assert again.cache_hits == again.units - 2
    assert again.report.to_json() == first.report.to_json()


def test_campaign_cache_hit_idempotence(tmp_path):
    cache = VerdictCache(tmp_path)
    config = CampaignConfig(**TINY)
    first = run_campaign(config, cache=cache)
    assert first.evaluated == first.units > 0
    again = run_campaign(config, cache=cache)
    assert again.evaluated == 0
    assert again.cache_hits == again.units == first.units
    assert again.report.to_json() == first.report.to_json()


def test_private_cache_runs_and_leaves_nothing(tmp_path, monkeypatch):
    """cache=None runs in a discarded private root, not the default
    cache directory."""
    monkeypatch.setenv("DEVIL_CAMPAIGN_CACHE", str(tmp_path / "default"))
    result = run_campaign(CampaignConfig(**TINY))
    assert result.units > 0 and result.evaluated == result.units
    assert not (tmp_path / "default").exists()


# ---------------------------------------------------------------------------
# Unit keys: structural staleness
# ---------------------------------------------------------------------------


def test_unit_keys_track_budget_fingerprint_and_site():
    target_id = "busmouse/cdevil"
    fingerprint = target_fingerprint(target_id)
    site = get_target(target_id).sites[0]
    base = unit_key(target_id, fingerprint, site, QUICK)
    assert base != unit_key(target_id, fingerprint, site,
                            MutantCaps.quick(3))
    assert base != unit_key(target_id, "0" * 64, site, QUICK)
    other_site = get_target(target_id).sites[1]
    assert base != unit_key(target_id, fingerprint, other_site, QUICK)
    # Same inputs, same key — the cache is shareable across runs.
    assert base == unit_key(target_id, fingerprint, site, QUICK)


def test_cdevil_fingerprint_covers_spec_sources():
    """A CDevil target's verdicts depend on the generated stub surface,
    so its fingerprint must differ from a pure hash of its own text —
    the C target of the same device hashes only its source."""
    assert target_fingerprint("busmouse/cdevil") != \
        target_fingerprint("busmouse/c")


# ---------------------------------------------------------------------------
# Registry: hoisted, memoized target construction (the run_table1 fix)
# ---------------------------------------------------------------------------


def test_registry_memoizes_target_construction():
    get_target("busmouse/cdevil")
    before = registry.BUILD_COUNT
    get_target("busmouse/cdevil")
    get_target("busmouse/cdevil")
    assert registry.BUILD_COUNT == before


def test_run_table1_does_not_rebuild_targets():
    """Regression: ``run_table1`` used to re-parse every spec and
    corpus program per call; now a repeat run performs zero target
    constructions."""
    caps = MutantCaps.quick(1)
    first = run_table1(caps, devices=("busmouse",))
    before = registry.BUILD_COUNT
    second = run_table1(caps, devices=("busmouse",))
    assert registry.BUILD_COUNT == before
    assert [r.rows() for r in first] == [r.rows() for r in second]


def test_registry_scope_enumeration():
    ids = target_ids()
    # All 8 specs speak Devil; the paper's three corpus devices add
    # C and CDevil rows.
    assert len(ids) == len(SPEC_NAMES) + 2 * 3
    assert ids == target_ids(tuple(reversed(SPEC_NAMES)))
    assert available_styles("busmouse") == ("c", "devil", "cdevil")
    assert available_styles("pic8259") == ("devil",)
    with pytest.raises(ValueError, match="unknown specs"):
        target_ids(("nosuch",))
    with pytest.raises(ValueError, match="unknown styles"):
        target_ids(("busmouse",), ("rust",))


# ---------------------------------------------------------------------------
# The Table 1 projection
# ---------------------------------------------------------------------------


def test_campaign_projects_table1_byte_exactly():
    result = run_campaign(CampaignConfig(specs=("busmouse",),
                                         caps=QUICK))
    reference = [row for device_rows
                 in run_table1(QUICK, devices=("busmouse",))
                 for row in device_rows.rows()]
    assert json.dumps(result.report.table1_rows(), sort_keys=True) == \
        json.dumps(reference, sort_keys=True)


def test_site_budgeted_campaign_withholds_projection():
    """A ``max_sites`` scope cannot render exact paper rows — the
    projection is withheld, not approximated."""
    result = run_campaign(CampaignConfig(specs=("busmouse",),
                                         caps=QUICK, max_sites=3))
    assert result.report.table1_rows() == []
    assert result.units == 9  # 3 sites x 3 styles
    assert result.report.by_device()["busmouse"]["mutants"] > 0


def test_report_breakdowns_are_consistent():
    config = CampaignConfig(specs=("busmouse", "pic8259"), caps=QUICK,
                            max_sites=4)
    report = run_campaign(config).report
    total = sum(b["mutants"] for b in report.by_device().values())
    assert total == sum(b["mutants"]
                       for b in report.by_language().values())
    assert total == sum(b["mutants"] for b in report.by_rule().values())
    assert set(report.by_device()) == {"busmouse", "pic8259"}
    assert "Devil" in report.by_language()
    payload = json.loads(report.to_json())
    assert set(payload) == {"scope", "targets", "by_device",
                            "by_language", "by_rule", "table1"}


def test_report_outcomes_match_serial_analysis():
    """The reconstructed per-target outcome equals a direct
    ``analyze_target`` of the same target and budget."""
    result = run_campaign(CampaignConfig(**TINY))
    (outcome,) = result.report.outcomes().values()
    direct = analyze_target(get_target("busmouse/cdevil"), QUICK)
    assert outcome.sites == direct.sites
    assert outcome.total_mutants == direct.total_mutants
    assert outcome.total_undetected == direct.total_undetected
    assert [o.site.key() for o in outcome.site_outcomes] == \
        [o.site.key() for o in direct.site_outcomes]


# ---------------------------------------------------------------------------
# Config validation and unit generation
# ---------------------------------------------------------------------------


def test_campaign_config_validation():
    with pytest.raises(ValueError, match="unknown campaign backend"):
        CampaignConfig(backend="mpi")
    with pytest.raises(ValueError, match="at least one worker"):
        CampaignConfig(workers=0)
    with pytest.raises(ValueError, match="max_sites"):
        CampaignConfig(max_sites=0)
    with pytest.raises(ValueError, match="unknown specs"):
        generate_units(CampaignConfig(specs=("nosuch",)))


@pytest.mark.parametrize("budget", [0, -1])
def test_mutant_caps_reject_non_positive_budgets(budget):
    message = rf"must be positive or None \(got {budget}\)"
    with pytest.raises(ValueError, match=message):
        MutantCaps.quick(budget)
    with pytest.raises(ValueError, match="ident mutant budget"):
        MutantCaps(ident=budget)
    with pytest.raises(ValueError, match="bitpattern mutant budget"):
        MutantCaps(bitpattern=budget)


def test_unit_generation_is_deterministic():
    config = CampaignConfig(**TINY)
    assert generate_units(config) == generate_units(config)


def test_stale_unit_tokens_are_rejected(tmp_path):
    from repro.mutation.campaign import evaluate_unit

    unit = generate_units(CampaignConfig(**TINY))[0]
    token = unit.token() | {"site_index": 10_000}
    with pytest.raises(ValueError, match="stale campaign"):
        evaluate_unit(token, str(tmp_path))
    token = unit.token() | {"site_key": "number:999@0"}
    with pytest.raises(ValueError, match="stale campaign"):
        evaluate_unit(token, str(tmp_path))


# ---------------------------------------------------------------------------
# Quick vs full budgets (the DEVIL_MUTATION_QUICK path)
# ---------------------------------------------------------------------------


def test_mutant_caps_quick_budgets():
    """``quick`` caps every kind uniformly; the default budget caps
    only identifiers (numbers/operators/bit patterns enumerate in
    full, preserving the paper's weighting)."""
    quick = MutantCaps.quick()
    assert (quick.ident, quick.number, quick.operator,
            quick.bitpattern) == (8, 8, 8, 8)
    assert MutantCaps.quick(3) == MutantCaps(3, 3, 3, 3)
    full = MutantCaps()
    assert full.ident == 12
    for kind in ("number", "operator", "bitpattern"):
        assert full.for_kind(kind) is None
    assert quick.for_kind("ident") == 8


def _load_bench_module():
    root = Path(__file__).resolve().parent.parent / "benchmarks"
    sys.path.insert(0, str(root))
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_table1_mutation", root / "bench_table1_mutation.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(root))
    return module


def test_bench_quick_env_switches_budget(monkeypatch):
    bench = _load_bench_module()
    monkeypatch.delenv("DEVIL_MUTATION_QUICK", raising=False)
    assert bench._caps() == MutantCaps()
    monkeypatch.setenv("DEVIL_MUTATION_QUICK", "1")
    assert bench._caps() == MutantCaps.quick(6)


def test_quick_and_full_budgets_agree_on_sites():
    """The quick budget sees the same site universe as the full one:
    site extraction is budget-independent, and every site the quick
    pass populates is a full-pass site with at most as many mutants.
    A site may drop out of the quick pass entirely (its whole sampled
    population filtered as invalid), but never the reverse."""
    target = get_target("busmouse/cdevil")
    quick = analyze_target(target, MutantCaps.quick(2))
    full = analyze_target(target, MutantCaps())
    full_by_key = {o.site.key(): o for o in full.site_outcomes}
    assert quick.site_outcomes  # non-degenerate
    for outcome in quick.site_outcomes:
        assert outcome.site.key() in full_by_key
        assert outcome.mutants <= full_by_key[outcome.site.key()].mutants
    # Both passes walk the identical extracted site list, in order.
    site_order = [site.key() for site in target.sites]
    assert [o.site.key() for o in full.site_outcomes] == \
        [key for key in site_order if key in full_by_key]
    quick_keys = {o.site.key() for o in quick.site_outcomes}
    assert [o.site.key() for o in quick.site_outcomes] == \
        [key for key in site_order if key in quick_keys]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_campaign_json_report(tmp_path, capsys):
    from repro.devil.cli import main

    cache_dir = tmp_path / "cache"
    assert main(["campaign", "--specs", "busmouse", "--styles",
                 "cdevil", "--budget", "2", "--cache-dir",
                 str(cache_dir), "--report", "json", "--quiet"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scope"]["specs"] == ["busmouse"]
    assert payload["targets"]["busmouse/cdevil"]["mutants"] > 0
    assert payload["table1"] == []  # needs all three styles

    # Resume against the warm cache, render the human table to a file.
    out = tmp_path / "report.txt"
    assert main(["campaign", "--specs", "busmouse", "--styles",
                 "cdevil", "--budget", "2", "--cache-dir",
                 str(cache_dir), "-o", str(out)]) == 0
    stderr = capsys.readouterr().err
    assert "0 to evaluate" in stderr
    assert "busmouse/cdevil" in out.read_text()


def test_cli_campaign_rejects_bad_scope(capsys):
    from repro.devil.cli import main

    assert main(["campaign", "--specs", "nosuch", "--no-cache"]) == 1
    assert "unknown specs" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_cli_campaign_rejects_non_positive_budget(budget, capsys):
    from repro.devil.cli import main

    assert main(["campaign", "--specs", "busmouse", "--budget", budget,
                 "--no-cache"]) == 1
    err = capsys.readouterr().err
    assert f"mutant budget must be positive or None (got {budget})" \
        in err
    assert "Traceback" not in err


def test_cli_campaign_projection_matches_library(tmp_path, capsys):
    from repro.devil.cli import main

    assert main(["campaign", "--specs", "busmouse", "--budget", "2",
                 "--no-cache", "--report", "rows", "--quiet"]) == 0
    rows = json.loads(capsys.readouterr().out)
    reference = [row for device_rows
                 in run_table1(QUICK, devices=("busmouse",))
                 for row in device_rows.rows()]
    assert json.dumps(rows, sort_keys=True) == \
        json.dumps(reference, sort_keys=True)
