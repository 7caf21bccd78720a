"""Unit tests for the NVM device model."""

import pytest

from repro.errors import AlignmentError, LayoutError
from repro.mem.layout import Region
from repro.mem.nvm import NvmDevice

SIZE = 64 * 1024
LINE = bytes(range(64))


@pytest.fixture
def nvm():
    return NvmDevice(SIZE)


class TestBasicIo:
    def test_unwritten_reads_zero(self, nvm):
        assert nvm.read(0) == bytes(64)

    def test_write_then_read(self, nvm):
        nvm.write(128, LINE)
        assert nvm.read(128) == LINE

    def test_write_is_copied(self, nvm):
        data = bytearray(LINE)
        nvm.write(0, bytes(data))
        data[0] = 99
        assert nvm.read(0) == LINE

    def test_misaligned_rejected(self, nvm):
        with pytest.raises(AlignmentError):
            nvm.read(1)

    def test_out_of_range_rejected(self, nvm):
        with pytest.raises(LayoutError):
            nvm.write(SIZE, LINE)

    def test_wrong_block_size_rejected(self, nvm):
        with pytest.raises(ValueError):
            nvm.write(0, b"short")

    def test_bad_device_size_rejected(self):
        with pytest.raises(LayoutError):
            NvmDevice(100)


class TestDefaultProvider:
    def test_provider_serves_unwritten(self, nvm):
        sentinel = bytes([7]) * 64
        nvm.default_provider = lambda address: sentinel
        assert nvm.read(0) == sentinel
        assert nvm.peek(64) == sentinel

    def test_written_overrides_provider(self, nvm):
        nvm.default_provider = lambda address: bytes([7]) * 64
        nvm.write(0, LINE)
        assert nvm.read(0) == LINE

    def test_snapshot_keeps_provider(self, nvm):
        sentinel = bytes([9]) * 64
        nvm.default_provider = lambda address: sentinel
        assert nvm.snapshot().read(0) == sentinel


class TestAccounting:
    def test_read_write_counts(self, nvm):
        nvm.write(0, LINE)
        nvm.read(0)
        nvm.read(64)
        assert nvm.writes == 1
        assert nvm.reads == 2

    def test_peek_poke_do_not_count(self, nvm):
        nvm.poke(0, LINE)
        nvm.peek(0)
        assert nvm.reads == 0
        assert nvm.writes == 0

    def test_poke_changes_content(self, nvm):
        nvm.poke(0, LINE)
        assert nvm.read(0) == LINE

    def test_per_block_write_counts(self, nvm):
        for _ in range(3):
            nvm.write(0, LINE)
        nvm.write(64, LINE)
        assert nvm.write_count(0) == 3
        assert nvm.write_count(64) == 1
        assert nvm.write_count(128) == 0

    def test_is_written(self, nvm):
        assert not nvm.is_written(0)
        nvm.write(0, LINE)
        assert nvm.is_written(0)

    def test_region_write_totals(self, nvm):
        low = Region("low", 0, 1024)
        high = Region("high", 1024, SIZE - 1024)
        nvm.write(0, LINE)
        nvm.write(64, LINE)
        nvm.write(2048, LINE)
        totals = nvm.region_write_totals([low, high])
        assert totals == {"low": 2, "high": 1}

    def test_region_write_totals_accepts_a_generator(self, nvm):
        regions = [Region("low", 0, 1024), Region("high", 1024, SIZE - 1024)]
        nvm.write(0, LINE)
        nvm.write(2048, LINE)
        from_generator = nvm.region_write_totals(r for r in regions)
        assert from_generator == nvm.region_write_totals(regions)
        assert from_generator == {"low": 1, "high": 1}

    def test_touched_blocks_sorted(self, nvm):
        nvm.write(128, LINE)
        nvm.write(0, LINE)
        addresses = [address for address, _data in nvm.touched_blocks()]
        assert addresses == [0, 128]


class TestSideband:
    def test_default_sideband(self, nvm):
        assert nvm.read_ecc(0) == bytes(16)

    def test_sideband_roundtrip(self, nvm):
        nvm.write_ecc(0, b"\xab" * 16)
        assert nvm.read_ecc(0) == b"\xab" * 16

    def test_sideband_independent_of_data(self, nvm):
        nvm.write(0, LINE)
        assert nvm.read_ecc(0) == bytes(16)


class TestSnapshot:
    def test_snapshot_is_deep(self, nvm):
        nvm.write(0, LINE)
        clone = nvm.snapshot()
        nvm.write(0, bytes(64))
        assert clone.read(0) == LINE

    def test_snapshot_copies_sideband(self, nvm):
        nvm.write_ecc(0, b"\x01" * 16)
        assert nvm.snapshot().read_ecc(0) == b"\x01" * 16

    def test_snapshot_copies_write_counts(self, nvm):
        nvm.write(0, LINE)
        nvm.read(0)
        clone = nvm.snapshot()
        assert clone.write_count(0) == 1
        assert (clone.reads, clone.writes) == (1, 1)
        assert clone.stats.as_dict() == {"nvm.reads": 1, "nvm.writes": 1}

    def test_restore_rewinds_contents(self, nvm):
        nvm.write(0, LINE)
        snapshot = nvm.snapshot()
        nvm.write(0, b"\xff" * 64)
        nvm.write(64, LINE)
        nvm.read(64)
        nvm.restore(snapshot)
        assert (nvm.reads, nvm.writes) == (0, 1)
        assert nvm.read(0) == LINE
        assert not nvm.is_written(64)

    def test_restore_is_isolated_from_snapshot(self, nvm):
        nvm.write(0, LINE)
        snapshot = nvm.snapshot()
        nvm.restore(snapshot)
        nvm.write(0, b"\xff" * 64)
        assert snapshot.read(0) == LINE

    def test_restore_rejects_size_mismatch(self, nvm):
        with pytest.raises(LayoutError):
            nvm.restore(NvmDevice(SIZE * 2))


class TestInjectionHooks:
    def test_bit_flip_returns_previous_value(self, nvm):
        nvm.write(0, LINE)
        first = nvm.inject_bit_flip(0, bit=9)
        second = nvm.inject_bit_flip(0, bit=9)
        assert {first, second} == {0, 1}
        assert nvm.read(0) == LINE  # two flips cancel out

    def test_batch_flip_reports_each_bit(self, nvm):
        nvm.write(0, LINE)
        previous = nvm.inject_bit_flips(0, [0, 1, 2])
        assert previous == [0, 0, 0]  # byte 0 was 0x00
        assert nvm.read(0)[0] == 0x07

    def test_stuck_at_reports_whether_it_changed(self, nvm):
        nvm.write(0, LINE)
        assert nvm.inject_stuck_at(0, bit=0, value=1) is True
        assert nvm.inject_stuck_at(0, bit=0, value=1) is False
        assert nvm.read(0)[0] == 0x01

    def test_stuck_at_rejects_non_binary_value(self, nvm):
        with pytest.raises(ValueError):
            nvm.inject_stuck_at(0, bit=0, value=2)
