"""Unit tests for the single-channel timing model."""

import pytest

from repro.config import TimingConfig
from repro.mem.timing import MemoryChannel


def make_channel(**kwargs) -> MemoryChannel:
    return MemoryChannel(TimingConfig(**kwargs))


class TestAdvance:
    def test_advance_moves_core_clock(self):
        channel = make_channel()
        channel.advance(100.0)
        assert channel.now == 100.0

    def test_elapsed_includes_backlog(self):
        channel = make_channel(background_write_overlap=0.0)
        channel.write()
        channel.write()
        assert channel.elapsed_ns == pytest.approx(300.0)


class TestReads:
    def test_read_stalls_full_latency_when_idle(self):
        channel = make_channel()
        stall = channel.read()
        assert stall == pytest.approx(60.0)
        assert channel.now == pytest.approx(60.0)

    def test_read_queues_behind_backlog(self):
        channel = make_channel(background_write_overlap=0.0)
        channel.write()  # occupies [0, 150)
        stall = channel.read()
        assert stall == pytest.approx(150.0 + 60.0)

    def test_dependent_reads_serialize(self):
        channel = make_channel()
        stalls = [channel.read() for _ in range(3)]
        assert stalls == pytest.approx([60.0, 60.0, 60.0])
        assert channel.now == pytest.approx(180.0)
        assert channel.read_stall.count == 3

    def test_gap_hides_backlog(self):
        channel = make_channel(background_write_overlap=0.0)
        channel.write()
        channel.advance(200.0)  # compute past the write
        stall = channel.read()
        assert stall == pytest.approx(60.0)


class TestWrites:
    def test_posted_write_does_not_stall(self):
        channel = make_channel()
        channel.write()
        assert channel.now == 0.0
        assert channel.busy_until > 0.0

    def test_posted_write_occupancy_is_discounted(self):
        channel = make_channel(background_write_overlap=0.6)
        channel.write()
        assert channel.busy_until == pytest.approx(150.0 * 0.4)

    def test_write_counts(self):
        channel = make_channel()
        for _ in range(3):
            channel.write()
        assert channel.writes == 3


class TestHashLatency:
    def test_hash_advances_core(self):
        channel = make_channel()
        channel.hash_latency()
        channel.hash_latency()
        assert channel.now == pytest.approx(80.0)


class TestReset:
    def test_reset_zeroes_clocks(self):
        channel = make_channel()
        channel.read()
        channel.write()
        channel.reset()
        assert channel.now == 0.0
        assert channel.busy_until == 0.0
