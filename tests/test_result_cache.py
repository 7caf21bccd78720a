"""The result cache's promises: right answer or recompute, never both.

The contract under test, in order of importance:

1. a warm re-run replays exactly the unchanged cells and recomputes
   exactly the edited ones, and warm output is byte-identical to a cold
   run at any ``--jobs`` count;
2. a damaged or mismatched store entry degrades to recomputation —
   quarantined, counted, never a crash, never a wrong result;
3. keys discriminate everything that determines a result: config,
   trace content, seed, telemetry spec, schema version, entry kind;
4. gc is deterministic and honors its size/age bounds.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.config import SchemeKind
from repro.crypto.keys import ProcessorKeys
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.sim.checkpoint import canonical_json
from repro.sim.parallel import ParallelSweepExecutor
from repro.sim.result_cache import (
    CACHE_SCHEMA_VERSION,
    QUARANTINE_SUFFIX,
    ResultCache,
    active_result_cache,
    configure_result_cache,
    simulation_cell_key,
)
from repro.telemetry import TelemetrySpec
from repro.traces.profiles import profile
from repro.traces.synthetic import generate_trace

from tests.helpers import small_config


@pytest.fixture
def cache(tmp_path):
    return ResultCache(str(tmp_path / "store"))


def _entry_files(cache):
    files = []
    for root, _dirs, names in os.walk(cache.directory):
        files.extend(os.path.join(root, name) for name in names)
    return sorted(files)


# ---------------------------------------------------------------------------
# the store itself
# ---------------------------------------------------------------------------


class TestStore:
    def test_round_trip_and_traffic_counters(self, cache):
        key = cache.key("simulation-result", "anything")
        assert len(key) == 64
        assert cache.get(key, kind="simulation-result") is None
        cache.put(key, {"value": 7}, kind="simulation-result")
        assert cache.get(key, kind="simulation-result") == {"value": 7}
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert stats["bytes_saved"] > 0

    def test_keys_discriminate_kind_and_schema(self, cache):
        assert cache.key("fault-trial", 1) != cache.key(
            "simulation-result", 1
        )
        # The schema version is baked into every address: bumping it
        # orphans (rather than misinterprets) old stores.  v2 added the
        # optional code stamp to key derivation.
        assert CACHE_SCHEMA_VERSION in (2,)

    def test_wrong_kind_is_quarantined_not_replayed(self, cache):
        key = cache.key("simulation-result", "x")
        cache.put(key, {"value": 1}, kind="simulation-result")
        assert cache.get(key, kind="fault-trial") is None
        assert cache.quarantined == 1
        # Quarantine renamed the entry aside; even the right kind now
        # misses.
        assert cache.get(key, kind="simulation-result") is None

    def test_copied_entry_is_never_replayed_under_another_key(self, cache):
        """A validating artifact under the wrong address is a miss —
        the embedded key is what makes collisions/copies harmless."""
        key_a = cache.key("simulation-result", "a")
        key_b = cache.key("simulation-result", "b")
        cache.put(key_a, {"value": "a"}, kind="simulation-result")
        source = cache._path(key_a)
        target = cache._path(key_b)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        with open(source, "rb") as handle:
            blob = handle.read()
        with open(target, "wb") as handle:
            handle.write(blob)
        assert cache.get(key_b, kind="simulation-result") is None
        assert cache.quarantined == 1
        assert os.path.exists(target + QUARANTINE_SUFFIX)

    def test_corrupt_entry_quarantined(self, cache):
        key = cache.key("simulation-result", "x")
        cache.put(key, {"value": 1}, kind="simulation-result")
        path = cache._path(key)
        with open(path, "w") as handle:
            handle.write("{ not json")
        assert cache.get(key, kind="simulation-result") is None
        assert cache.quarantined == 1
        assert os.path.exists(path + QUARANTINE_SUFFIX)
        # The slot is free again: a recomputed result stores cleanly.
        cache.put(key, {"value": 2}, kind="simulation-result")
        assert cache.get(key, kind="simulation-result") == {"value": 2}

    def test_clear_and_store_stats(self, cache):
        for tag in range(3):
            cache.put(
                cache.key("simulation-result", tag),
                {"value": tag},
                kind="simulation-result",
            )
        stats = cache.store_stats()
        assert stats["entries"] == 3
        assert stats["total_bytes"] > 0
        assert cache.clear() == 3
        assert cache.store_stats()["entries"] == 0


class TestGc:
    def _populate(self, cache, count):
        keys = []
        for tag in range(count):
            key = cache.key("simulation-result", tag)
            cache.put(key, {"value": tag, "pad": "x" * 64}, kind="simulation-result")
            # Pin mtimes so eviction order is under test control:
            # entry 0 is the oldest.
            os.utime(cache._path(key), (1000.0 + tag, 1000.0 + tag))
            keys.append(key)
        return keys

    def test_gc_honors_size_bound_oldest_first(self, cache):
        keys = self._populate(cache, 4)
        sizes = [os.path.getsize(cache._path(key)) for key in keys]
        budget = sizes[2] + sizes[3]
        report = cache.gc(max_bytes=budget, now=2000.0)
        assert report.examined == 4
        assert report.removed == 2
        assert report.kept == 2
        # Deterministic: the two oldest went, the two newest stayed.
        assert cache.get(keys[0], kind="simulation-result") is None
        assert cache.get(keys[1], kind="simulation-result") is None
        assert cache.get(keys[2], kind="simulation-result") is not None
        assert cache.get(keys[3], kind="simulation-result") is not None

    def test_gc_expires_by_age(self, cache):
        keys = self._populate(cache, 3)
        report = cache.gc(max_age_seconds=1.5, now=1002.0)
        # mtimes 1000/1001/1002: the first is > 1.5s old at now=1002.
        assert report.removed == 1
        assert cache.get(keys[0], kind="simulation-result") is None
        assert cache.get(keys[2], kind="simulation-result") is not None

    def test_gc_sweeps_quarantine_debris(self, cache):
        key = cache.key("simulation-result", "x")
        cache.put(key, {"value": 1}, kind="simulation-result")
        path = cache._path(key)
        with open(path, "w") as handle:
            handle.write("junk")
        cache.get(key, kind="simulation-result")
        assert os.path.exists(path + QUARANTINE_SUFFIX)
        cache.gc()
        assert not os.path.exists(path + QUARANTINE_SUFFIX)


# ---------------------------------------------------------------------------
# simulation sweeps
# ---------------------------------------------------------------------------


MIB = 1024 * 1024


def _grid():
    traces = [generate_trace(profile("gcc"), 200, seed=3)]
    return [
        (small_config(scheme, memory_bytes=64 * MIB), trace)
        for trace in traces
        for scheme in (
            SchemeKind.WRITE_BACK,
            SchemeKind.OSIRIS,
            SchemeKind.AGIT_PLUS,
        )
    ]


def _run_grid(cells, cache, jobs=1):
    configure_result_cache(cache)
    try:
        executor = ParallelSweepExecutor(jobs, backoff=0)
        results = executor.run_simulations(cells, ProcessorKeys(7))
    finally:
        configure_result_cache(None)
    return canonical_json([result.to_dict() for result in results])


class TestSweepCaching:
    def test_warm_rerun_recomputes_only_changed_cells(self, cache):
        cells = _grid()
        cold = _run_grid(cells, cache)
        assert cache.stores == len(cells)
        assert cache.hits == 0

        # Perturb exactly one cell's config; the rest replay.
        warm_cache = ResultCache(cache.directory)
        edited = list(cells)
        edited[1] = (
            edited[1][0].with_scheme(SchemeKind.STRICT_PERSISTENCE),
            edited[1][1],
        )
        warm = _run_grid(edited, warm_cache)
        assert warm_cache.hits == len(cells) - 1
        assert warm_cache.misses == 1
        assert warm_cache.stores == 1
        assert warm != cold  # the edited cell really was recomputed

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_warm_results_byte_identical_at_any_jobs(self, cache, jobs):
        cells = _grid()
        cold = _run_grid(cells, cache)
        warm_cache = ResultCache(cache.directory)
        warm = _run_grid(cells, warm_cache, jobs=jobs)
        assert warm == cold
        assert warm_cache.hits == len(cells)
        assert warm_cache.misses == 0
        assert warm_cache.bytes_saved > 0

    def test_corrupt_entry_recomputed_not_crashed(self, cache):
        cells = _grid()
        cold = _run_grid(cells, cache)
        victim_key = simulation_cell_key(
            cache, cells[0][0], cells[0][1], ProcessorKeys(7), None
        )
        with open(cache._path(victim_key), "w") as handle:
            handle.write("garbage")
        warm_cache = ResultCache(cache.directory)
        warm = _run_grid(cells, warm_cache)
        assert warm == cold
        assert warm_cache.hits == len(cells) - 1
        assert warm_cache.misses == 1
        assert warm_cache.quarantined == 1

    def test_telemetry_spec_is_part_of_the_key(self, cache):
        """A cell cached without events must not satisfy a traced run."""
        cells = _grid()[:1]
        _run_grid(cells, cache)
        warm_cache = ResultCache(cache.directory)
        configure_result_cache(warm_cache)
        try:
            from repro.telemetry import configure_telemetry

            configure_telemetry(TelemetrySpec())
            try:
                executor = ParallelSweepExecutor(1, backoff=0)
                results = executor.run_simulations(cells, ProcessorKeys(7))
            finally:
                configure_telemetry(None)
        finally:
            configure_result_cache(None)
        assert warm_cache.hits == 0
        assert warm_cache.misses == 1
        assert results[0].events  # the traced run really recorded

    def test_keys_discriminate_seed(self, cache):
        config, trace = _grid()[0]
        assert simulation_cell_key(
            cache, config, trace, ProcessorKeys(1), None
        ) != simulation_cell_key(cache, config, trace, ProcessorKeys(2), None)


# ---------------------------------------------------------------------------
# fault campaigns
# ---------------------------------------------------------------------------


def _campaign():
    return CampaignConfig(
        system=small_config(SchemeKind.AGIT_PLUS),
        seed=2,
        trials=4,
        trace_length=300,
        num_crash_points=2,
        probe_reads=2,
    )


class TestCampaignCaching:
    def test_warm_campaign_restores_every_trial(self, cache):
        configure_result_cache(cache)
        try:
            cold = run_campaign(_campaign())
        finally:
            configure_result_cache(None)
        assert cache.stores == 4

        warm_cache = ResultCache(cache.directory)
        seen = []
        configure_result_cache(warm_cache)
        try:
            warm = run_campaign(_campaign(), on_trial=seen.append)
        finally:
            configure_result_cache(None)
        assert warm_cache.hits == 4
        assert warm_cache.misses == 0
        # Restored trials are merged in plan order and do not re-fire
        # on_trial.
        assert seen == []
        assert canonical_json(warm.to_dict()) == canonical_json(
            cold.to_dict()
        )

# ---------------------------------------------------------------------------
# process-global wiring
# ---------------------------------------------------------------------------


def test_resume_dir_is_the_store_unless_another_is_named(
    tmp_path, monkeypatch
):
    from repro.sim.options import ExecutionOptions

    monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
    resume, shared = str(tmp_path / "resume"), str(tmp_path / "shared")

    def store(**flags):
        cache = ExecutionOptions(**flags).result_cache()
        return None if cache is None else cache.directory

    assert store() is None
    assert store(resume=resume) == resume
    assert store(resume=resume, cache_dir=shared) == shared
    assert store(resume=resume, cache_dir=shared,
                 no_result_cache=True) == resume
    assert store(cache_dir=shared, no_result_cache=True) is None
    monkeypatch.setenv("REPRO_RESULT_CACHE", shared)
    assert store(resume=resume) == shared
    assert store(resume=resume, no_result_cache=True) == resume


def test_configure_result_cache_installs_and_disarms(cache):
    assert active_result_cache() is None
    assert configure_result_cache(cache) is cache
    assert active_result_cache() is cache
    configure_result_cache(None)
    assert active_result_cache() is None


# ---------------------------------------------------------------------------
# automatic code stamps (--cache-stamp auto)
# ---------------------------------------------------------------------------


class TestDeriveCacheStamp:
    def test_prefers_installed_package_version(self, monkeypatch):
        from importlib import metadata

        from repro.sim.result_cache import derive_cache_stamp

        monkeypatch.setattr(
            metadata, "version", lambda package: "9.9.9"
        )
        assert derive_cache_stamp() == "pkg:9.9.9"

    def test_falls_back_to_git_head(self, monkeypatch, tmp_path):
        import subprocess
        from importlib import metadata

        from repro.sim.result_cache import derive_cache_stamp

        def missing(package):
            raise metadata.PackageNotFoundError(package)

        monkeypatch.setattr(metadata, "version", missing)
        subprocess.run(
            ["git", "init", "-q"], cwd=tmp_path, check=True
        )
        subprocess.run(
            [
                "git", "-c", "user.email=t@example.com",
                "-c", "user.name=t", "commit",
                "--allow-empty", "-q", "-m", "stamp",
            ],
            cwd=tmp_path,
            check=True,
        )
        stamp = derive_cache_stamp(cwd=str(tmp_path))
        assert stamp is not None and stamp.startswith("git:")
        assert len(stamp[len("git:"):]) == 40

    def test_returns_none_when_nothing_available(
        self, monkeypatch, tmp_path
    ):
        from importlib import metadata

        from repro.sim.result_cache import derive_cache_stamp

        def missing(package):
            raise metadata.PackageNotFoundError(package)

        monkeypatch.setattr(metadata, "version", missing)
        # An empty directory: not a git repository.
        assert derive_cache_stamp(cwd=str(tmp_path)) is None
