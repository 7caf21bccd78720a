"""Content-addressed memoization of completed simulation work.

The evaluation is a grid of independent, deterministic cells — one
(config, trace, seed) simulation or one campaign trial each.  Their
identities (:mod:`repro.sim.checkpoint`) address a store of finished
results, the one mechanism that skips finished work: ``--resume DIR``
keeps a run's store in ``DIR``, so a run re-started with the same
``DIR`` after a kill restores every finished cell and trial and
recomputes only the rest.  The store reads only its two-hex shard
subdirectories, so run artifacts sit beside them in the same directory.
A store is just that directory; deleting it clears the store.

Three guarantees, in order of importance:

**Never replay the wrong result.**  Keys are *full-width* sha256
fingerprints (see :func:`~repro.sim.checkpoint.full_fingerprint` — the
16-hex display form is too collidable for a store that outlives runs),
they incorporate the store schema version, the entry kind, and the
per-cell seed, and every entry embeds its own key: an entry that does
not validate end-to-end is a miss, never a hit.  Telemetry specs are
part of a simulation cell's key too — a cell cached without events must
not satisfy a ``--trace-out`` run.

**Never crash on a damaged store.**  Each entry is one atomic JSON
file, ``{schema, kind, key, checksum, payload}``, whose checksum covers
the payload; anything that fails validation (unparseable JSON, a
checksum mismatch, a foreign file, a key or kind mismatch) is
quarantined to ``*.corrupt`` and recomputed.

**Byte-identical warm runs.**  The store is only consulted and
populated in the parent process, hits are delivered through the same
submission-order reduction cold results use, and cached payloads are
exact ``to_dict()`` round-trips — so a warm re-run's ``results.json``
is ``cmp``-identical to a cold run at any ``--jobs`` count.

The store is explicitly *not* invalidated by code changes: it trusts
that the same key means the same computation.  After editing simulator
semantics, resume into a fresh directory.  How a cell executes — worker
count, batched or scalar replay — never changes its result, so none of
it enters keys.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from repro.sim.checkpoint import atomic_write_json, full_fingerprint, plain

#: Store schema version, baked into every key: entries written by an
#: incompatible layout can never be replayed as fresh results.
#: v3: one flat checksummed entry per file.
CACHE_SCHEMA_VERSION = 3

#: Suffix quarantined (corrupt or mismatched) entries are renamed to.
QUARANTINE_SUFFIX = ".corrupt"


class ResultCache:
    """A directory of content-addressed, checksummed result entries.

    ``directory`` is the store root, created on first use.  Entries live
    under two-hex shard subdirectories (``ab/<64-hex-key>.json``);
    nothing else in the directory is read.
    """

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        #: Session counters (this process's traffic, not the store).
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.bytes_saved = 0
        self.quarantined = 0

    # -- keys ----------------------------------------------------------

    def key(self, kind: str, *parts: Any) -> str:
        """The full-width content address of one unit of work.

        Always incorporates the store schema version and the entry
        ``kind``; callers add everything that determines the result
        (config, trace digest, seed, telemetry spec, trial index ...).
        """
        return full_fingerprint(
            "repro-result-cache", CACHE_SCHEMA_VERSION, kind, *parts
        )

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key + ".json")

    # -- lookup and store ----------------------------------------------

    def get(self, key: str, kind: str) -> Optional[Any]:
        """The payload stored under ``key``, or None (a miss).

        A hit requires the entry to validate end-to-end: parseable
        JSON, schema version, kind, the embedded key itself, and the
        payload checksum.  Anything less is quarantined and reported as
        a miss — a damaged or colliding store degrades to
        recomputation, never to wrong results or a crash.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as stream:
                raw = stream.read()
        except OSError:
            self.misses += 1
            return None
        try:
            entry = json.loads(raw)
        except ValueError:  # truncated write or external corruption
            entry = None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != CACHE_SCHEMA_VERSION
            or entry.get("kind") != kind
            or entry.get("key") != key
            or "payload" not in entry
            or entry.get("checksum") != full_fingerprint(entry["payload"])
        ):
            # Damaged, foreign, or a valid entry under the wrong address
            # (a hash collision or a copied file).  Never replay it.
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        self.bytes_saved += len(raw)
        return entry["payload"]

    def put(self, key: str, payload: Any, kind: str) -> None:
        """Store ``payload`` under ``key`` (atomic, idempotent)."""
        payload = plain(payload)
        atomic_write_json(self._path(key), {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": kind,
            "key": key,
            "checksum": full_fingerprint(payload),
            "payload": payload,
        })
        self.stores += 1

    def _quarantine(self, path: str) -> None:
        """Move a bad entry aside so it is never consulted again."""
        try:
            os.replace(path, path + QUARANTINE_SUFFIX)
        except OSError:
            pass
        self.quarantined += 1

    # -- reporting -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """This process's cache traffic — the manifest block."""
        return {
            "directory": self.directory,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "bytes_saved": self.bytes_saved,
            "quarantined": self.quarantined,
        }

    def __repr__(self) -> str:
        return (
            f"ResultCache({self.directory!r}, {self.hits} hits, "
            f"{self.misses} misses)"
        )


# ----------------------------------------------------------------------
# Domain keys
# ----------------------------------------------------------------------

def simulation_cell_key(
    cache: ResultCache,
    config,
    trace,
    keys=None,
    spec=None,
) -> str:
    """The store key of one (config, trace, keys, telemetry) cell.

    ``keys`` is identified by its seed (a :class:`~repro.crypto.keys.
    ProcessorKeys` is fully determined by it); ``spec`` is the
    :class:`~repro.telemetry.runtime.TelemetrySpec` shipped to the cell
    (or None) — cells simulated with and without event recording return
    different payloads and must not share an address.
    """
    return cache.key(
        "simulation-result",
        config,
        trace.content_digest(),
        None if keys is None else keys.seed,
        spec,
    )


# ----------------------------------------------------------------------
# Process-global configuration (mirrors configure_telemetry)
# ----------------------------------------------------------------------

_ACTIVE: Optional[ResultCache] = None


def configure_result_cache(
    cache: Optional[ResultCache],
) -> Optional[ResultCache]:
    """Install ``cache`` as the process-current result cache.

    The executor and campaign runners consult :func:`active_result_
    cache` in the *parent* process only — workers never see the store,
    which is what keeps warm runs byte-identical at any ``--jobs``
    count.  Pass None to disarm.
    """
    global _ACTIVE
    _ACTIVE = cache
    return cache


def active_result_cache() -> Optional[ResultCache]:
    """The configured result cache, or None."""
    return _ACTIVE
