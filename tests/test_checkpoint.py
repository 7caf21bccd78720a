"""The checkpoint layer's promises: stable identities, atomic and
validated artifacts.

Artifacts either load exactly as written or raise
:class:`ArtifactCorruptError` — never a silently truncated result.
"""

import json
import os

import pytest

from repro.config import SchemeKind
from repro.errors import ArtifactCorruptError
from repro.sim.checkpoint import (
    atomic_write_json,
    canonical_json,
    fingerprint,
    load_artifact,
    plain,
    write_artifact,
)
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

        from repro.sim.checkpoint import trace_digest

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
        assert trace_digest(trace) == reference.hexdigest()

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
        write_artifact(path, payload, kind="test")
        assert load_artifact(path, kind="test") == payload

    def test_write_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_artifact(a, {"x": 1.25}, kind="test")
        write_artifact(b, {"x": 1.25}, kind="test")
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "result.json")
        atomic_write_json(path, {"ok": True})
        write_artifact(path, {"ok": True}, kind="test")
        assert os.listdir(tmp_path) == ["result.json"]

    def test_tampered_payload_detected(self, tmp_path):
        path = str(tmp_path / "result.json")
        write_artifact(path, {"value": 41}, kind="test")
        text = open(path).read().replace("41", "42")
        open(path, "w").write(text)
        with pytest.raises(ArtifactCorruptError, match="checksum"):
            load_artifact(path)

    def test_truncated_file_detected(self, tmp_path):
        path = str(tmp_path / "result.json")
        write_artifact(path, {"value": list(range(100))}, kind="test")
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[: len(raw) // 2])
        with pytest.raises(ArtifactCorruptError, match="JSON"):
            load_artifact(path)

    def test_wrong_kind_detected(self, tmp_path):
        path = str(tmp_path / "result.json")
        write_artifact(path, {}, kind="fault-campaign")
        with pytest.raises(ArtifactCorruptError, match="expected"):
            load_artifact(path, kind="experiment-results")

    def test_not_an_artifact_detected(self, tmp_path):
        path = str(tmp_path / "result.json")
        open(path, "w").write('{"just": "json"}')
        with pytest.raises(ArtifactCorruptError, match="envelope"):
            load_artifact(path)


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
