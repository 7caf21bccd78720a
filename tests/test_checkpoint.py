"""The checkpoint layer's promises: stable identities, atomic and
validated artifacts.

Run artifacts are plain atomic JSON; the checksummed artifacts are the
result store's entries, which either load exactly as written or are
quarantined and recomputed — never a silently truncated result.
"""

import json
import os

import pytest

from repro.config import SchemeKind
from repro.sim.checkpoint import (
    atomic_write_json,
    canonical_json,
    fingerprint,
    plain,
)
from repro.sim.result_cache import QUARANTINE_SUFFIX, ResultCache
from repro.sim.results import SimulationResult
from repro.traces.profiles import profile
from repro.traces.synthetic import generate_trace

from tests.helpers import small_config


class TestFingerprints:
    def test_stable_across_calls(self):
        config = small_config()
        assert fingerprint(config, 3) == fingerprint(config, 3)

    def test_sensitive_to_every_part(self):
        config = small_config()
        base = fingerprint(config, 3)
        assert fingerprint(config, 4) != base
        assert fingerprint(small_config(SchemeKind.OSIRIS), 3) != base

    def test_plain_handles_the_harness_types(self):
        config = small_config()
        encoded = plain(
            {"config": config, "blob": b"\x00\xff", "kind": SchemeKind.OSIRIS}
        )
        # Must survive a JSON round trip unchanged.
        assert json.loads(json.dumps(encoded)) == encoded

    def test_plain_rejects_unserializable(self):
        with pytest.raises(TypeError):
            canonical_json(object())

    def test_full_fingerprint_is_sha256_width(self):
        from repro.sim.checkpoint import full_fingerprint

        config = small_config()
        full = full_fingerprint(config, 3)
        assert len(full) == 64
        assert set(full) <= set("0123456789abcdef")
        # The 16-hex display form is exactly a truncation of the full
        # digest.
        assert fingerprint(config, 3) == full[:16]

    def test_trace_digest_matches_reference_stream(self):
        """The chunked hash reproduces the frozen per-request stream."""
        import hashlib

        trace = generate_trace(profile("gcc"), 200, seed=5)
        reference = hashlib.sha256()
        reference.update(trace.name.encode("utf-8"))
        for request in trace:
            reference.update(
                f"|{request.op.value}:{request.address}:"
                f"{request.gap_ns!r}:".encode()
            )
            if request.data:
                reference.update(request.data)
        assert trace.content_digest() == reference.hexdigest()

    def test_trace_digest_memoized_and_invalidated(self):
        trace = generate_trace(profile("gcc"), 50, seed=1)
        before = trace.content_digest()
        assert trace.content_digest() == before
        assert trace._digest_memo == before
        # Mutation invalidates the memo: the digest tracks content.
        trace.append(list(trace)[0])
        assert trace._digest_memo is None
        assert trace.content_digest() != before


class TestAtomicArtifacts:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "result.json")
        payload = {"numbers": [1, 2.5], "name": "fig07"}
        atomic_write_json(path, payload)
        with open(path) as stream:
            assert json.load(stream) == payload

    def test_write_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        atomic_write_json(a, {"x": 1.25, "a": [2, 1]})
        atomic_write_json(b, {"a": [2, 1], "x": 1.25})
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "result.json")
        atomic_write_json(path, {"ok": True})
        atomic_write_json(path, {"ok": False})
        assert os.listdir(tmp_path) == ["result.json"]

    # A damaged store entry is a quarantined miss, then recomputed.

    @staticmethod
    def _stored(tmp_path, payload, kind="test"):
        cache = ResultCache(str(tmp_path / "store"))
        key = cache.key(kind, "cell")
        cache.put(key, payload, kind=kind)
        return cache, key, cache._path(key)

    @staticmethod
    def _assert_quarantined_then_recomputed(cache, key, kind, payload):
        path = cache._path(key)
        assert cache.get(key, kind=kind) is None
        assert cache.quarantined == 1
        assert os.path.exists(path + QUARANTINE_SUFFIX)
        assert not os.path.exists(path)
        cache.put(key, payload, kind=kind)
        assert cache.get(key, kind=kind) == payload

    def test_tampered_payload_detected(self, tmp_path):
        cache, key, path = self._stored(tmp_path, {"value": 41})
        text = open(path).read()
        assert '"value": 41' in text
        open(path, "w").write(text.replace('"value": 41', '"value": 42'))
        # Still valid JSON with the right key and kind: only the checksum
        # can tell.
        self._assert_quarantined_then_recomputed(
            cache, key, "test", {"value": 41}
        )

    def test_truncated_file_detected(self, tmp_path):
        payload = {"value": list(range(100))}
        cache, key, path = self._stored(tmp_path, payload)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) // 2])
        self._assert_quarantined_then_recomputed(cache, key, "test", payload)

    def test_wrong_kind_detected(self, tmp_path):
        cache, key, _path = self._stored(tmp_path, {}, kind="fault-campaign")
        assert cache.get(key, kind="experiment-results") is None
        assert cache.quarantined == 1
        # Quarantined, so even the right kind misses until recomputed.
        self._assert_quarantined_then_recomputed(
            cache, key, "fault-campaign", {}
        )
        assert cache.quarantined == 1

    def test_not_an_artifact_detected(self, tmp_path):
        cache, key, path = self._stored(tmp_path, {"value": 1})
        open(path, "w").write('{"just": "json"}')
        self._assert_quarantined_then_recomputed(
            cache, key, "test", {"value": 1}
        )


class TestSimulationResultRoundTrip:
    def test_to_dict_from_dict_exact(self):
        result = SimulationResult(
            benchmark="gcc",
            scheme=SchemeKind.AGIT_PLUS,
            elapsed_ns=123456.75,
            requests=800,
            stats={"nvm.writes": 42.0, "counter_cache.hit_rate": 0.9375},
        )
        clone = SimulationResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert clone == result
