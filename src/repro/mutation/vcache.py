"""The on-disk verdict cache: incremental re-runs of the campaign.

Every campaign work unit — one mutation site of one target, evaluated
under one mutant budget — stores its verdict record here, keyed by a
content hash over ``(target fingerprint, site identity, the exact
mutant population, mutant caps, codegen/campaign version)``.  The key
construction makes staleness structural rather than temporal: editing
a spec or corpus fragment changes the target fingerprint, editing the
mutation rules changes the mutant-population hash, and bumping the
codegen or campaign version invalidates everything — so a re-run after
any change re-evaluates exactly the units the change can affect and
serves the rest from disk.

The cache is also the campaign's *result transport*: fleet workers
(threads or processes) write verdicts here as they evaluate, and the
parent reads them back after ``drain``.  Writes take no lock: each
writer fills its own same-directory temp file and publishes it with
one ``os.replace``, so a reader sees either no entry or a whole one.
Records are idempotent (a unit's verdict is a pure function of its
key), so concurrent writers of the same key publish identical bytes
and whichever ``os.replace`` lands last is exact.

Corrupt entries — truncated JSON, garbled payloads, schema or key
mismatches — are treated as misses and counted in
:attr:`VerdictCache.corrupt`; the campaign then re-evaluates the unit
instead of crashing or trusting the bad record.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

#: Environment override for the cache directory (CI points this at a
#: directory restored across runs).
CACHE_ENV = "DEVIL_CAMPAIGN_CACHE"

#: Bump to invalidate every cached verdict (record layout or
#: classification semantics changed).
SCHEMA_VERSION = 1

#: Fields every verdict record must carry, with their types.
_REQUIRED_FIELDS = {
    "schema": int,
    "key": str,
    "target_id": str,
    "site": dict,
    "mutants": int,
    "detected": int,
    "undetected": int,
    "survivors": list,
}

_SITE_FIELDS = {"kind": str, "text": str, "offset": int, "line": int}


def default_cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "devil-campaign"


class VerdictCache:
    """One campaign verdict store rooted at ``root``.

    Entries live at ``<root>/<key[:2]>/<key>.json`` (two-level fanout
    keeps directories small at campaign scale).  ``hits``/``misses``/
    ``corrupt``/``writes`` count this instance's traffic — the
    campaign's incrementality numbers come straight from them.
    """

    def __init__(self, root: str | Path | None = None):
        self.root = Path(root) if root is not None else \
            default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.writes = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- read -----------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """The verdict record for ``key``, or ``None`` on miss.

        A present-but-unusable entry (truncated write, garbled bytes,
        wrong schema, key mismatch) counts as ``corrupt`` *and* as a
        miss: the caller re-evaluates, and the eventual :meth:`put`
        overwrites the bad entry.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self.corrupt += 1
            self.misses += 1
            return None
        record = self._validate(key, text)
        if record is None:
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return record

    @staticmethod
    def _validate(key: str, text: str) -> dict | None:
        try:
            record = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError):
            return None
        if not isinstance(record, dict):
            return None
        for field, kind in _REQUIRED_FIELDS.items():
            value = record.get(field)
            if not isinstance(value, kind) or \
                    (kind is int and isinstance(value, bool)):
                return None
        if record["schema"] != SCHEMA_VERSION or record["key"] != key:
            return None
        site = record["site"]
        for field, kind in _SITE_FIELDS.items():
            if not isinstance(site.get(field), kind):
                return None
        if not all(isinstance(s, str) for s in record["survivors"]):
            return None
        if record["detected"] + record["undetected"] != \
                record["mutants"]:
            return None
        return record

    # -- write ----------------------------------------------------------

    def put(self, key: str, record: dict) -> dict:
        """Publish ``record`` under ``key``; returns the published
        record (``record`` plus its ``schema`` and ``key`` fields),
        equal to what :meth:`get` reads back.

        Lock-free and atomic: the payload goes to a fresh temp file in
        the entry's directory, which one ``os.replace`` renames over
        the entry.  Every writer of a key writes the same bytes (the
        verdict is a pure function of the key), so N racing writers,
        in threads or processes, leave exactly one valid entry and no
        temp file.
        """
        record = dict(record)
        record["schema"] = SCHEMA_VERSION
        record["key"] = key
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(record, sort_keys=True) + "\n"
        descriptor, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp")
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self.writes += 1
        return record

    # -- maintenance ----------------------------------------------------

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "corrupt": self.corrupt, "writes": self.writes}
