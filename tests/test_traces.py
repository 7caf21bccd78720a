"""Tests for trace containers, profiles, and the synthetic generator."""

import pytest

from repro.controller.access import MemoryRequest, Op
from repro.errors import ConfigError, TraceError
from repro.traces.profiles import (
    SPEC_PROFILES,
    SyntheticProfile,
    profile,
    profile_names,
)
from repro.traces.synthetic import generate_trace
from repro.traces.trace import Trace

MIB = 1024 * 1024


class TestMemoryRequest:
    def test_write_requires_data(self):
        with pytest.raises(ValueError):
            MemoryRequest(op=Op.WRITE, address=0)

    def test_read_rejects_data(self):
        with pytest.raises(ValueError):
            MemoryRequest(op=Op.READ, address=0, data=bytes(64))

    def test_is_write(self):
        assert MemoryRequest(op=Op.WRITE, address=0, data=bytes(64)).is_write
        assert not MemoryRequest(op=Op.READ, address=0).is_write


class TestTraceContainer:
    def test_counts(self):
        trace = Trace("t")
        trace.append(MemoryRequest(op=Op.READ, address=0))
        trace.append(MemoryRequest(op=Op.WRITE, address=64, data=bytes(64)))
        assert trace.num_reads == 1
        assert trace.num_writes == 1
        assert trace.write_fraction == pytest.approx(0.5)

    def test_footprint(self):
        trace = Trace("t")
        for address in (0, 0, 64):
            trace.append(MemoryRequest(op=Op.READ, address=address))
        assert trace.footprint_bytes == 128

    def test_validate_alignment(self):
        trace = Trace("t")
        trace.append(MemoryRequest(op=Op.READ, address=3))
        with pytest.raises(TraceError):
            trace.validate(1024)

    def test_validate_range(self):
        trace = Trace("t")
        trace.append(MemoryRequest(op=Op.READ, address=2048))
        with pytest.raises(TraceError):
            trace.validate(1024)

    def test_validate_accepts_good_trace(self):
        trace = Trace("t")
        trace.append(MemoryRequest(op=Op.WRITE, address=0, data=bytes(64)))
        trace.validate(1024)

    def test_iter_range_matches_slice(self):
        trace = generate_trace(profile("gcc"), 300, seed=5)
        assert list(trace.iter_range(50, 120)) == list(trace)[50:120]

    def test_rebuilt_from_requests_is_equal(self):
        generated = generate_trace(profile("gcc"), 300, seed=5)
        rebuilt = Trace(generated.name, list(generated))
        assert rebuilt == generated
        assert rebuilt.content_digest() == generated.content_digest()


class TestProfiles:
    def test_eleven_benchmarks(self):
        # §5: "11 memory-intensive applications from SPEC 2006".
        assert len(SPEC_PROFILES) == 11

    def test_paper_named_benchmarks_present(self):
        for name in ("mcf", "lbm", "libquantum"):
            assert name in SPEC_PROFILES

    def test_mcf_is_read_dominated(self):
        # §6.1: MCF is read-intensive with poor locality.
        mcf = profile("mcf")
        assert mcf.write_fraction < 0.15
        assert mcf.pattern == "random"

    def test_libquantum_is_most_write_intensive(self):
        libquantum = profile("libquantum")
        assert libquantum.write_fraction == max(
            entry.write_fraction for entry in SPEC_PROFILES.values()
        )
        assert libquantum.rewrite_count > 4  # trips the stop-loss

    def test_lbm_streams(self):
        assert profile("lbm").pattern == "stream"

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            profile("nonexistent")

    def test_profile_names_order_stable(self):
        assert profile_names()[0] == "mcf"
        assert len(profile_names()) == 11

    def test_profile_validation(self):
        with pytest.raises(ConfigError):
            SyntheticProfile(
                name="bad", write_fraction=1.5, pattern="stream",
                footprint_bytes=MIB,
            )
        with pytest.raises(ConfigError):
            SyntheticProfile(
                name="bad", write_fraction=0.5, pattern="zigzag",
                footprint_bytes=MIB,
            )
        with pytest.raises(ConfigError):
            SyntheticProfile(
                name="bad", write_fraction=0.5, pattern="stream",
                footprint_bytes=1024,
            )


class TestGenerator:
    def test_exact_length(self):
        trace = generate_trace(profile("gcc"), length=500)
        assert len(trace) == 500

    def test_deterministic(self):
        a = generate_trace(profile("gcc"), length=200, seed=7)
        b = generate_trace(profile("gcc"), length=200, seed=7)
        assert [(r.op, r.address) for r in a] == [(r.op, r.address) for r in b]

    def test_seed_changes_stream(self):
        a = generate_trace(profile("gcc"), length=200, seed=1)
        b = generate_trace(profile("gcc"), length=200, seed=2)
        assert [(r.op, r.address) for r in a] != [(r.op, r.address) for r in b]

    def test_write_fraction_approximated(self):
        # write_fraction is the per-decision write probability; rewrite
        # bursts multiply each write decision by rewrite_count requests.
        entry = profile("lbm")
        wf, rc = entry.write_fraction, entry.rewrite_count
        effective = wf * rc / (wf * rc + (1 - wf))
        trace = generate_trace(entry, length=5000)
        assert abs(trace.write_fraction - effective) < 0.1

    def test_addresses_within_footprint(self):
        entry = profile("gcc")
        trace = generate_trace(entry, length=2000)
        for request in trace:
            assert 0 <= request.address < entry.footprint_bytes

    def test_region_base_offsets(self):
        trace = generate_trace(profile("gcc"), length=200, region_base=MIB)
        assert all(request.address >= MIB for request in trace)

    def test_capacity_validation(self):
        with pytest.raises(TraceError):
            generate_trace(profile("gcc"), length=100, capacity_bytes=1024)

    def test_stream_pattern_is_sequential(self):
        entry = SyntheticProfile(
            name="s", write_fraction=0.0, pattern="stream",
            footprint_bytes=MIB, burst_length=1,
        )
        trace = generate_trace(entry, length=10)
        addresses = [request.address for request in trace]
        assert addresses == [index * 64 for index in range(10)]

    def test_hot_cold_respects_hot_fraction(self):
        entry = SyntheticProfile(
            name="h", write_fraction=0.0, pattern="hot_cold",
            footprint_bytes=16 * MIB, hot_bytes=MIB, hot_fraction=0.9,
        )
        trace = generate_trace(entry, length=3000)
        hot = sum(1 for request in trace if request.address < MIB)
        assert hot / len(trace) > 0.8

    def test_rewrite_bursts_repeat_address(self):
        entry = SyntheticProfile(
            name="r", write_fraction=1.0, pattern="stream",
            footprint_bytes=MIB, rewrite_count=4,
        )
        trace = generate_trace(entry, length=8)
        requests = list(trace)
        assert requests[0].address == requests[3].address

    def test_gaps_positive(self):
        trace = generate_trace(profile("gcc"), length=200)
        assert all(request.gap_ns > 0 for request in trace)

    def test_zero_length_rejected(self):
        with pytest.raises(ConfigError):
            generate_trace(profile("gcc"), length=0)
