"""Behavioral tests for the AGIT controllers (shadow tracking)."""

import pytest

from repro.config import SchemeKind
from repro.core.agit import AgitPlusController, AgitReadController
from repro.core.shadow_table import ShadowAddressTable
from repro.errors import ConfigError

from tests.helpers import line, make_controller, payload, small_config


def sct_addresses_in_nvm(controller):
    """Parse the SCT region straight out of NVM."""
    addresses = set()
    for group in range(controller.layout.sct.num_blocks):
        block_address = controller.layout.sct.block_address(group)
        if controller.nvm.is_written(block_address):
            for tracked in ShadowAddressTable.parse_block(
                controller.nvm.peek(block_address)
            ):
                if tracked:
                    addresses.add(tracked)
    return addresses


class TestSchemeGuard:
    def test_read_controller_requires_read_scheme(self):
        from repro.controller.factory import build_layout

        config = small_config(SchemeKind.AGIT_PLUS)
        with pytest.raises(ConfigError):
            AgitReadController(config, build_layout(config))

    def test_plus_controller_requires_plus_scheme(self):
        from repro.controller.factory import build_layout

        config = small_config(SchemeKind.AGIT_READ)
        with pytest.raises(ConfigError):
            AgitPlusController(config, build_layout(config))


class TestAgitRead:
    def test_tracks_on_fill_even_for_reads(self):
        controller = make_controller(SchemeKind.AGIT_READ)
        controller.read(line(0))  # clean counter fill
        controller.wpq.drain_all()
        counter_address = controller.layout.counter_block_for(line(0))
        assert counter_address in sct_addresses_in_nvm(controller)

    def test_mirror_matches_cache_contents(self):
        controller = make_controller(SchemeKind.AGIT_READ)
        for index in range(40):
            controller.write(line(index * 64), payload(index))
        cached = {
            address
            for _slot, address, _payload, _dirty in (
                controller.counter_cache.resident()
            )
        }
        tracked = {address for address in controller.sct.slots if address}
        assert cached == tracked

    def test_merkle_fills_tracked_in_smt(self):
        controller = make_controller(SchemeKind.AGIT_READ)
        controller.write(line(0), payload(1))
        assert any(controller.smt.slots)

    def test_shadow_writes_counted(self):
        controller = make_controller(SchemeKind.AGIT_READ)
        controller.write(line(0), payload(1))
        assert controller.shadow_writes >= 2  # SCT + SMT

    def test_uses_stop_loss(self):
        controller = make_controller(SchemeKind.AGIT_READ)
        counter_address = controller.layout.counter_block_for(line(0))
        for index in range(controller.stop_loss):
            controller.write(line(0), payload(index))
        controller.wpq.drain_all()
        assert controller.nvm.is_written(counter_address)


class TestAgitPlus:
    def test_no_tracking_on_clean_fill(self):
        controller = make_controller(SchemeKind.AGIT_PLUS)
        controller.read(line(0))
        controller.wpq.drain_all()
        assert controller.shadow_writes == 0

    def test_tracking_on_first_modification(self):
        controller = make_controller(SchemeKind.AGIT_PLUS)
        controller.write(line(0), payload(1))
        controller.wpq.drain_all()
        counter_address = controller.layout.counter_block_for(line(0))
        assert counter_address in sct_addresses_in_nvm(controller)

    def test_no_retracking_on_repeat_writes(self):
        controller = make_controller(SchemeKind.AGIT_PLUS)
        controller.write(line(0), payload(1))
        first = controller.shadow_writes
        controller.write(line(0), payload(2))
        controller.write(line(0), payload(3))
        # Counter and leaf tracking happen once; only upper-level nodes
        # newly dirtied could add more.
        assert controller.shadow_writes == first

    def test_fewer_shadow_writes_than_read_variant(self):
        read_variant = make_controller(SchemeKind.AGIT_READ, seed=2)
        plus_variant = make_controller(SchemeKind.AGIT_PLUS, seed=2)
        for controller in (read_variant, plus_variant):
            # read-heavy pattern over many pages
            for index in range(120):
                controller.read(line(index * 64))
            for index in range(10):
                controller.write(line(index * 64), payload(index))
        assert plus_variant.shadow_writes < read_variant.shadow_writes

    def test_smt_tracked_on_node_dirty(self):
        controller = make_controller(SchemeKind.AGIT_PLUS)
        controller.write(line(0), payload(1))
        assert any(controller.smt.slots)


class TestShadowRegionContents:
    def test_slot_reuse_overwrites_entry(self):
        controller = make_controller(SchemeKind.AGIT_READ)
        layout = controller.layout
        # Two counter blocks that map to the same cache set: page stride
        # x num_sets pages apart.
        sets = controller.counter_cache.cache.num_sets
        ways = controller.counter_cache.cache.ways
        pages = [index * sets for index in range(ways + 1)]
        for page in pages:
            controller.read(page * 4096)
        controller.wpq.drain_all()
        tracked = sct_addresses_in_nvm(controller)
        # the first page's counter block was evicted and its slot reused
        resident = {
            address
            for _slot, address, _payload, _dirty in (
                controller.counter_cache.resident()
            )
        }
        assert resident <= tracked  # NVM over-approximates the cache
        assert layout.counter_block_for(pages[-1] * 4096) in tracked
