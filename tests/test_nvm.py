"""Unit tests for the NVM device model."""

import pytest

from repro.errors import AlignmentError, LayoutError
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

    def test_read_written_never_asks_provider(self, nvm):
        def refuse(address):
            raise AssertionError(f"provider asked for {address:#x}")

        nvm.default_provider = refuse
        nvm.write(0, LINE)
        assert nvm.read_written(64) == (None, False)
        assert nvm.reads == 1
        assert nvm.read_written(0) == (LINE, True)
        assert nvm.reads == 2
        # read() and peek() still serve the provider's default bytes.
        sentinel = bytes([5]) * 64
        nvm.default_provider = lambda address: sentinel
        assert nvm.read(64) == sentinel
        assert nvm.peek(64) == sentinel
        assert nvm.reads == 3


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

    def test_touched_blocks_sorted(self, nvm):
        nvm.write(128, LINE)
        nvm.write(0, LINE)
        addresses = [address for address, _data in nvm.touched_blocks()]
        assert addresses == [0, 128]


class TestWrittenIn:
    @pytest.mark.parametrize("count", [2, 8, 1000])  # probe and filter
    def test_matches_is_written_in_ascending_order(self, nvm, count):
        for address in (640, 64, 384, 448, 128 * 64):
            nvm.write(address, bytes([address % 251]) * 64)
        nvm.poke(512, LINE)  # out-of-band content counts as written
        base = 64
        expected = [
            (address, nvm.peek(address))
            for address in range(base, base + count * 64, 64)
            if nvm.is_written(address)
        ]
        assert list(nvm.written_in(base, count).items()) == expected

    def test_counts_no_reads_and_skips_provider(self, nvm):
        nvm.default_provider = lambda address: b"\x01" * 64
        nvm.write(64, LINE)
        assert nvm.written_in(0, 4) == {64: LINE}
        assert nvm.reads == 0

    def test_empty_range(self, nvm):
        nvm.write(0, LINE)
        assert nvm.written_in(SIZE, 0) == {}

    @pytest.mark.parametrize(
        "base, count, error",
        [
            (32, 1, AlignmentError),
            (-64, 1, LayoutError),
            (SIZE - 64, 2, LayoutError),
            (0, -1, LayoutError),
        ],
    )
    def test_bad_range_rejected(self, nvm, base, count, error):
        with pytest.raises(error):
            nvm.written_in(base, count)


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
