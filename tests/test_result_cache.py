"""The result cache's promises: right answer or recompute, never both.

The contract under test, in order of importance:

1. a warm re-run replays exactly the unchanged cells and recomputes
   exactly the edited ones, and warm output is byte-identical to a cold
   run at any ``--jobs`` count;
2. a damaged or mismatched store entry degrades to recomputation —
   quarantined, counted, never a crash, never a wrong result;
3. keys discriminate everything that determines a result: config,
   trace content, seed, telemetry spec, schema version, entry kind.
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
    def test_round_trip_and_traffic_counters(self, cache, tmp_path):
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
        # One flat entry per file, and no temp files left behind.
        assert _entry_files(cache) == [cache._path(key)]
        with open(cache._path(key)) as handle:
            entry = json.load(handle)
        assert sorted(entry) == ["checksum", "key", "kind", "payload", "schema"]
        assert entry["payload"] == {"value": 7}
        # Entry bytes are deterministic: another store writes the same.
        other = ResultCache(str(tmp_path / "other"))
        other.put(key, {"value": 7}, kind="simulation-result")
        with open(cache._path(key), "rb") as a, open(other._path(key), "rb") as b:
            assert a.read() == b.read()

    def test_keys_discriminate_kind_and_schema(self, cache):
        assert cache.key("fault-trial", 1) != cache.key(
            "simulation-result", 1
        )
        # The schema version is baked into every address: bumping it
        # orphans (rather than misinterprets) old stores.  v3 made each
        # entry one flat checksummed JSON object.
        assert CACHE_SCHEMA_VERSION in (3,)

    def test_wrong_kind_is_quarantined_not_replayed(self, cache):
        key = cache.key("simulation-result", "x")
        cache.put(key, {"value": 1}, kind="simulation-result")
        assert cache.get(key, kind="fault-trial") is None
        assert cache.quarantined == 1
        # Quarantine renamed the entry aside; even the right kind now
        # misses, and the recomputed result stores cleanly.
        assert cache.get(key, kind="simulation-result") is None
        assert os.path.exists(cache._path(key) + QUARANTINE_SUFFIX)
        cache.put(key, {"value": 1}, kind="simulation-result")
        assert cache.get(key, kind="simulation-result") == {"value": 1}

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
        def truncate(raw):
            return raw[: len(raw) // 2]

        def tamper_payload(raw):
            # Valid JSON, right key and kind: only the checksum can tell.
            return raw.replace(b'"value": 41', b'"value": 42')

        def foreign_json(raw):
            return b'{"just": "json"}'

        def not_json(raw):
            return b"{ not json"

        damages = (truncate, tamper_payload, foreign_json, not_json)
        key = cache.key("simulation-result", "x")
        path = cache._path(key)
        for count, damage in enumerate(damages, start=1):
            cache.put(key, {"value": 41}, kind="simulation-result")
            with open(path, "rb") as handle:
                raw = handle.read()
            with open(path, "wb") as handle:
                handle.write(damage(raw))
            assert cache.get(key, kind="simulation-result") is None, damage
            assert cache.quarantined == count
            assert os.path.exists(path + QUARANTINE_SUFFIX)
            assert not os.path.exists(path)
            # The slot is free again: a recomputed result stores cleanly.
            cache.put(key, {"value": 41}, kind="simulation-result")
            assert cache.get(key, kind="simulation-result") == {"value": 41}


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
        executor = ParallelSweepExecutor(jobs)
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
        # A plausible but altered result: only the checksum catches it.
        path = cache._path(victim_key)
        with open(path) as handle:
            entry = json.load(handle)
        entry["payload"]["elapsed_ns"] += 1.0
        with open(path, "w") as handle:
            json.dump(entry, handle)
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
                executor = ParallelSweepExecutor(1)
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


def test_resume_dir_is_the_store(tmp_path):
    from repro.sim.options import ExecutionOptions

    resume = str(tmp_path / "resume")
    assert ExecutionOptions().result_cache() is None
    assert ExecutionOptions(resume=resume).result_cache().directory == resume


def test_configure_result_cache_installs_and_disarms(cache):
    assert active_result_cache() is None
    assert configure_result_cache(cache) is cache
    assert active_result_cache() is cache
    configure_result_cache(None)
    assert active_result_cache() is None
