"""Content-addressed memoization of completed simulation work.

The evaluation is a grid of independent, deterministic cells — one
(config, trace, seed) simulation or one campaign trial each.  Their
identities (:mod:`repro.sim.checkpoint`) address a store of finished
results, the one mechanism that skips finished work: ``--resume DIR``
keeps an interrupted run's store in ``DIR``, and a shared
``--cache-dir`` lets a sweep re-run after a one-line config edit
recompute only the cells whose inputs actually changed.  The store
reads only its two-hex shard subdirectories, so run artifacts can sit
beside them in the same directory.

Three guarantees, in order of importance:

**Never replay the wrong result.**  Keys are *full-width* sha256
fingerprints (see :func:`~repro.sim.checkpoint.full_fingerprint` — the
16-hex display form is too collidable for a store that outlives runs),
they incorporate the store schema version, the entry kind, and the
per-cell seed, and every entry embeds its own key: an entry that does
not validate end-to-end is a miss, never a hit.  Telemetry specs are
part of a simulation cell's key too — a cell cached without events must
not satisfy a ``--trace-out`` run.

**Never crash on a damaged store.**  Entries are versioned, checksummed
artifacts (:func:`~repro.sim.checkpoint.write_artifact`); anything that
fails validation (:class:`~repro.errors.ArtifactCorruptError`, foreign
files, key mismatches) is quarantined to ``*.corrupt`` and recomputed.

**Byte-identical warm runs.**  The store is only consulted and
populated in the parent process, hits are delivered through the same
submission-order reduction cold results use, and cached payloads are
exact ``to_dict()`` round-trips — so a warm re-run's ``results.json``
is ``cmp``-identical to a cold run at any ``--jobs`` count.

The cache is explicitly *not* invalidated by code changes: it trusts
that the same key means the same computation.  After editing simulator
semantics, clear the store (``repro cache clear``), point runs at a
fresh ``--cache-dir``, or set a *code stamp* (``--cache-stamp`` /
``REPRO_CACHE_STAMP``, e.g. a git revision) — the stamp is mixed into
every key, so entries written under a different stamp simply miss.
How a cell executes — worker count, batched or scalar replay — never
changes its result, so none of it enters keys.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ArtifactCorruptError
from repro.sim.checkpoint import (
    full_fingerprint,
    load_artifact,
    trace_digest,
    write_artifact,
)

#: Store schema version, baked into every key: entries written by an
#: incompatible layout can never be replayed as fresh results.
#: v2: keys optionally mix in a caller-supplied code stamp.
CACHE_SCHEMA_VERSION = 2

#: Artifact-envelope kind of one store entry.
ENTRY_KIND = "result-cache-entry"

#: Suffix quarantined (corrupt or mismatched) entries are renamed to.
QUARANTINE_SUFFIX = ".corrupt"


@dataclass
class GcReport:
    """What one :meth:`ResultCache.gc` pass did."""

    examined: int = 0
    removed: int = 0
    removed_bytes: int = 0
    kept: int = 0
    kept_bytes: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "examined": self.examined,
            "removed": self.removed,
            "removed_bytes": self.removed_bytes,
            "kept": self.kept,
            "kept_bytes": self.kept_bytes,
        }


class ResultCache:
    """A directory of content-addressed, checksummed result entries.

    Parameters
    ----------
    directory:
        Store root; created on first use.  Entries live under two-hex
        shard subdirectories (``ab/<64-hex-key>.json``); nothing else
        in the directory is read.  :meth:`gc` bounds its size.
    code_stamp:
        Optional opaque string (a git revision, a build id) mixed into
        every key.  Set it to scope entries to one code version when
        simulator semantics are in flux; leave unset (the default) to
        share entries across versions.
    """

    def __init__(
        self,
        directory: str,
        code_stamp: Optional[str] = None,
    ) -> None:
        self.directory = os.path.abspath(directory)
        self.code_stamp = code_stamp
        os.makedirs(self.directory, exist_ok=True)
        #: Session counters (this process's traffic, not the store).
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.bytes_saved = 0
        self.quarantined = 0
        self.evicted = 0
        self.evicted_bytes = 0

    # -- keys ----------------------------------------------------------

    def key(self, kind: str, *parts: Any) -> str:
        """The full-width content address of one unit of work.

        Always incorporates the store schema version, the entry
        ``kind``, and the cache's ``code_stamp`` (when set); callers
        add everything that determines the result (config, trace
        digest, seed, telemetry spec, trial index ...).
        """
        return full_fingerprint(
            "repro-result-cache",
            CACHE_SCHEMA_VERSION,
            self.code_stamp,
            kind,
            *parts,
        )

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key[:2], key + ".json")

    # -- lookup and store ----------------------------------------------

    def get(self, key: str, kind: str) -> Optional[Any]:
        """The payload stored under ``key``, or None (a miss).

        A hit requires the entry to validate end-to-end: artifact
        envelope, checksum, schema version, kind, and the embedded key
        itself.  Anything less is quarantined and reported as a miss —
        a damaged or colliding store degrades to recomputation, never
        to wrong results or a crash.
        """
        path = self._path(key)
        try:
            size = os.path.getsize(path)
        except OSError:
            self.misses += 1
            self._mirror("misses")
            return None
        try:
            entry = load_artifact(path, kind=ENTRY_KIND)
        except ArtifactCorruptError:
            self._quarantine(path)
            self.misses += 1
            self._mirror("misses")
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != CACHE_SCHEMA_VERSION
            or entry.get("kind") != kind
            or entry.get("key") != key
        ):
            # A validating artifact under the wrong address: either a
            # hash collision or a copied/renamed file.  Never replay it.
            self._quarantine(path)
            self.misses += 1
            self._mirror("misses")
            return None
        self.hits += 1
        self.bytes_saved += size
        self._mirror("hits")
        self._mirror("bytes_saved", size)
        return entry["payload"]

    def put(self, key: str, payload: Any, kind: str) -> None:
        """Store ``payload`` under ``key`` (atomic, idempotent)."""
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": kind,
            "key": key,
            "payload": payload,
        }
        write_artifact(self._path(key), entry, kind=ENTRY_KIND)
        self.stores += 1
        self._mirror("stores")

    def _quarantine(self, path: str) -> None:
        """Move a bad entry aside so it is never consulted again."""
        try:
            os.replace(path, path + QUARANTINE_SUFFIX)
        except OSError:
            pass
        self.quarantined += 1
        self._mirror("quarantined")

    def _mirror(self, name: str, amount: int = 1) -> None:
        """Mirror a counter bump into the live telemetry session."""
        from repro.telemetry.runtime import current_session

        active = current_session()
        if active is not None:
            active.registry.group("result_cache").counter(name).add(amount)

    # -- maintenance ---------------------------------------------------

    def _entries(self) -> Iterator[Tuple[str, int, float]]:
        """Every entry as (path, size, mtime), unordered."""
        for shard in os.listdir(self.directory):
            shard_dir = os.path.join(self.directory, shard)
            if len(shard) != 2 or not os.path.isdir(shard_dir):
                continue
            for name in os.listdir(shard_dir):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    status = os.stat(path)
                except OSError:
                    continue
                yield path, status.st_size, status.st_mtime

    def gc(
        self,
        max_bytes: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        now: Optional[float] = None,
    ) -> GcReport:
        """Bounded, deterministic eviction: oldest entries go first.

        Entries are ordered by (mtime, path) — a total order, so the
        same store state and bounds always evict the same entries.
        Quarantined ``*.corrupt`` files are always removed.  Returns a
        :class:`GcReport`.
        """
        import time

        report = GcReport()
        if now is None:
            now = time.time()
        entries = sorted(self._entries(), key=lambda e: (e[2], e[0]))
        report.examined = len(entries)
        total = sum(size for _path, size, _mtime in entries)
        survivors: List[Tuple[str, int, float]] = []
        for path, size, mtime in entries:
            expired = (
                max_age_seconds is not None
                and now - mtime > max_age_seconds
            )
            if expired:
                self._remove(path, size, report)
                total -= size
            else:
                survivors.append((path, size, mtime))
        if max_bytes is not None:
            for path, size, mtime in survivors:
                if total <= max_bytes:
                    report.kept += 1
                    report.kept_bytes += size
                    continue
                self._remove(path, size, report)
                total -= size
        else:
            report.kept = len(survivors)
            report.kept_bytes = sum(size for _p, size, _m in survivors)
        self._sweep_quarantine()
        return report

    def _remove(self, path: str, size: int, report: GcReport) -> None:
        try:
            os.unlink(path)
        except OSError:
            return
        report.removed += 1
        report.removed_bytes += size
        self.evicted += 1
        self.evicted_bytes += size

    def _sweep_quarantine(self) -> None:
        """Delete quarantined files (already recomputed; just debris)."""
        for shard in os.listdir(self.directory):
            shard_dir = os.path.join(self.directory, shard)
            if len(shard) != 2 or not os.path.isdir(shard_dir):
                continue
            for name in os.listdir(shard_dir):
                if name.endswith(QUARANTINE_SUFFIX):
                    try:
                        os.unlink(os.path.join(shard_dir, name))
                    except OSError:
                        pass

    def clear(self) -> int:
        """Remove every entry (and quarantined debris); returns count."""
        removed = 0
        for path, _size, _mtime in list(self._entries()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        self._sweep_quarantine()
        return removed

    # -- reporting -----------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """This process's cache traffic — the manifest block."""
        return {
            "directory": self.directory,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "bytes_saved": self.bytes_saved,
            "quarantined": self.quarantined,
            "evicted": self.evicted,
            "evicted_bytes": self.evicted_bytes,
        }

    def store_stats(self) -> Dict[str, int]:
        """What is on disk right now (``repro cache stats``)."""
        entries = 0
        total_bytes = 0
        for _path, size, _mtime in self._entries():
            entries += 1
            total_bytes += size
        return {
            "directory": self.directory,
            "entries": entries,
            "total_bytes": total_bytes,
        }

    def __repr__(self) -> str:
        return (
            f"ResultCache({self.directory!r}, {self.hits} hits, "
            f"{self.misses} misses)"
        )


# ----------------------------------------------------------------------
# Code-stamp derivation
# ----------------------------------------------------------------------

def derive_cache_stamp(
    package: str = "repro", cwd: Optional[str] = None
) -> Optional[str]:
    """Best-effort automatic code stamp (``--cache-stamp auto``).

    Preference order:

    1. ``pkg:<version>`` — the installed distribution version of
       ``package``.  An installed package is the deployment story, and
       its version changes exactly when the code does.
    2. ``git:<sha>`` — ``git rev-parse HEAD`` of ``cwd`` (default: the
       current directory).  The source-checkout story.
    3. ``None`` — no package metadata and no repository; the caller
       falls back to an unstamped cache rather than failing the run.

    The prefixes keep the two namespaces from colliding: version
    strings and abbreviated hashes can look alike.
    """
    try:
        from importlib import metadata

        version = metadata.version(package)
        if version:
            return f"pkg:{version}"
    except Exception:  # noqa: BLE001 — not installed, no metadata
        pass
    try:
        import subprocess

        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
            cwd=cwd,
        )
        sha = proc.stdout.strip()
        if proc.returncode == 0 and sha:
            return f"git:{sha}"
    except Exception:  # noqa: BLE001 — no git binary, sandboxed
        pass
    return None


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
        trace_digest(trace),
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
