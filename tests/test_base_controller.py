"""Unit tests for the shared controller base-class machinery."""

import pytest

from repro.config import SchemeKind, TreeKind
from repro.controller.base import SIDEBAND_BYTES

from tests.helpers import line, make_controller, payload


class TestSidebandPacking:
    def test_roundtrip(self, bonsai_controller):
        blob = bonsai_controller.pack_sideband(b"\x01" * 8, 0xDEAD)
        ecc, mac = bonsai_controller.unpack_sideband(blob)
        assert ecc == b"\x01" * 8
        assert mac == 0xDEAD

    def test_blob_length(self, bonsai_controller):
        blob = bonsai_controller.pack_sideband(b"\x00" * 8, 0)
        assert len(blob) == SIDEBAND_BYTES


class TestDataMac:
    def test_binds_every_input(self, bonsai_controller):
        base = bonsai_controller.data_mac(0, 1, 2, payload(1))
        assert base != bonsai_controller.data_mac(64, 1, 2, payload(1))
        assert base != bonsai_controller.data_mac(0, 2, 2, payload(1))
        assert base != bonsai_controller.data_mac(0, 1, 3, payload(1))
        assert base != bonsai_controller.data_mac(0, 1, 2, payload(2))

    def test_deterministic(self, bonsai_controller):
        assert bonsai_controller.data_mac(0, 1, 2, payload(1)) == (
            bonsai_controller.data_mac(0, 1, 2, payload(1))
        )


class TestSealOpen:
    def test_roundtrip(self, bonsai_controller):
        cipher, sideband = bonsai_controller.seal_data(0, payload(5), 3, 7)
        assert cipher != payload(5)
        assert bonsai_controller.open_data(0, cipher, sideband, 3, 7) == (
            payload(5)
        )

    def test_line_counter_selection(self):
        bonsai = make_controller(tree=TreeKind.BONSAI)
        sgx = make_controller(tree=TreeKind.SGX)
        # split-counter: the minor is the line counter; SGX: the 56-bit
        # counter rides the `major` argument.
        assert bonsai._line_counter(major=9, minor=4) == 4
        assert sgx._line_counter(major=9, minor=0) == 9


class TestReadDataLine:
    def test_forwards_from_wpq(self, bonsai_controller):
        bonsai_controller.wpq.insert(0, payload(1), b"\x02" * 16)
        cipher, sideband, fresh = bonsai_controller.read_data_line(0)
        assert fresh
        assert cipher == payload(1)
        assert sideband == b"\x02" * 16

    def test_unwritten_not_fresh(self, bonsai_controller):
        _cipher, _sideband, fresh = bonsai_controller.read_data_line(64)
        assert not fresh

    def test_forwarding_skips_channel(self, bonsai_controller):
        bonsai_controller.wpq.insert(0, payload(1))
        reads_before = bonsai_controller.channel.reads
        bonsai_controller.read_data_line(0)
        assert bonsai_controller.channel.reads == reads_before


class TestFinalize:
    def test_finalize_drains_wpq(self, bonsai_controller):
        bonsai_controller.write(line(0), payload(1))
        assert len(bonsai_controller.wpq) > 0
        elapsed = bonsai_controller.finalize()
        assert len(bonsai_controller.wpq) == 0
        assert elapsed >= 0

    def test_elapsed_monotone(self, bonsai_controller):
        first = bonsai_controller.elapsed_ns
        bonsai_controller.write(line(0), payload(1))
        bonsai_controller.read(line(0))
        assert bonsai_controller.elapsed_ns >= first


class TestAccessDispatch:
    def test_read_request_returns_data(self, bonsai_controller):
        from repro.controller.access import MemoryRequest, Op

        bonsai_controller.write(line(3), payload(3))
        result = bonsai_controller.access(
            MemoryRequest(op=Op.READ, address=line(3), gap_ns=10.0)
        )
        assert result == payload(3)

    def test_write_request_returns_none(self, bonsai_controller):
        from repro.controller.access import MemoryRequest, Op

        result = bonsai_controller.access(
            MemoryRequest(
                op=Op.WRITE, address=line(3), data=payload(1), gap_ns=10.0
            )
        )
        assert result is None

    def test_gap_advances_clock(self, bonsai_controller):
        from repro.controller.access import MemoryRequest, Op

        before = bonsai_controller.channel.now
        bonsai_controller.access(
            MemoryRequest(
                op=Op.WRITE, address=line(0), data=payload(1), gap_ns=500.0
            )
        )
        assert bonsai_controller.channel.now >= before + 500.0


class TestFactoryErrors:
    def test_asit_on_bonsai_rejected_at_config(self):
        from repro.config import SystemConfig
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            SystemConfig(scheme=SchemeKind.ASIT, tree=TreeKind.BONSAI)

    def test_agit_read_on_sgx_rejected(self):
        from repro.config import SystemConfig, UpdatePolicy
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            SystemConfig(
                scheme=SchemeKind.AGIT_PLUS,
                tree=TreeKind.SGX,
                update_policy=UpdatePolicy.LAZY,
            )

    def test_selective_factory_builds_bonsai(self):
        controller = make_controller(SchemeKind.SELECTIVE)
        from repro.controller.bonsai import BonsaiController

        assert type(controller) is BonsaiController
