"""AGIT recovery (Algorithm 1) tests: round trips, tampering, bounds."""

import pytest

from repro.config import SchemeKind
from repro.core.recovery_agit import AgitRecovery
from repro.errors import RootMismatchError, UnrecoverableError
from repro.recovery.crash import crash, reincarnate

from tests.helpers import line, make_controller, payload


def run_workload(controller, writes=60, reads=20):
    oracle = {}
    for index in range(writes):
        address = line(index * 16)
        data = payload(index % 250)
        controller.write(address, data)
        oracle[address] = data
    for index in range(reads):
        controller.read(line(index * 16))
    return oracle


def crash_and_recover(controller):
    crash(controller)
    reborn = reincarnate(controller)
    report = AgitRecovery(reborn.nvm, reborn.layout, reborn).run()
    return reborn, report


class TestRoundTrip:
    @pytest.mark.parametrize(
        "scheme", [SchemeKind.AGIT_READ, SchemeKind.AGIT_PLUS]
    )
    def test_all_data_readable_after_recovery(self, scheme):
        controller = make_controller(scheme)
        oracle = run_workload(controller)
        reborn, report = crash_and_recover(controller)
        assert report.root_matched
        for address, expected in oracle.items():
            assert reborn.read(address) == expected

    def test_recovery_with_rewrites_past_stop_loss(self):
        controller = make_controller(SchemeKind.AGIT_PLUS)
        for index in range(17):  # 17 writes to one line: deep into phases
            controller.write(line(0), payload(index))
        reborn, report = crash_and_recover(controller)
        assert reborn.read(line(0)) == payload(16)

    def test_recovery_after_minor_overflow(self):
        controller = make_controller(SchemeKind.AGIT_PLUS)
        for index in range(130):  # crosses the 7-bit minor overflow
            controller.write(line(0), payload(index % 250))
        controller.write(line(1), payload(7))
        reborn, _report = crash_and_recover(controller)
        assert reborn.read(line(0)) == payload(129 % 250)
        assert reborn.read(line(1)) == payload(7)

    def test_recovery_after_heavy_eviction_pressure(self):
        controller = make_controller(SchemeKind.AGIT_PLUS)
        oracle = {}
        for index in range(500):
            address = line(index * 64)  # distinct pages, thrashes cache
            controller.write(address, payload(index % 250))
            oracle[address] = payload(index % 250)
        reborn, report = crash_and_recover(controller)
        for address, expected in list(oracle.items())[::7]:
            assert reborn.read(address) == expected

    def test_post_recovery_writes_continue(self):
        controller = make_controller(SchemeKind.AGIT_PLUS)
        run_workload(controller, writes=30, reads=0)
        reborn, _report = crash_and_recover(controller)
        reborn.write(line(1000), payload(42))
        assert reborn.read(line(1000)) == payload(42)

    def test_double_crash_recovery(self):
        controller = make_controller(SchemeKind.AGIT_PLUS)
        controller.write(line(0), payload(1))
        reborn, _ = crash_and_recover(controller)
        reborn.write(line(0), payload(2))
        reborn2, report2 = crash_and_recover(reborn)
        assert report2.root_matched
        assert reborn2.read(line(0)) == payload(2)

    def test_recovery_is_idempotent(self):
        controller = make_controller(SchemeKind.AGIT_PLUS)
        run_workload(controller, writes=30, reads=0)
        crash(controller)
        reborn = reincarnate(controller)
        AgitRecovery(reborn.nvm, reborn.layout, reborn).run()
        report2 = AgitRecovery(reborn.nvm, reborn.layout, reborn).run()
        assert report2.root_matched
        assert report2.counters_repaired == 0  # nothing left to fix


class TestOsirisCandidateChoice:
    @pytest.mark.parametrize("seed", [2, 26])
    def test_clean_candidate_beats_earlier_correctable_one(self, seed):
        """A wrong counter's garbage can sit one SECDED correction away;
        an exactly-sane candidate later in the stop-loss window must win
        over it, or the rebuilt root mismatches."""
        from repro.config import KIB, TreeKind, default_table1_config
        from repro.controller.factory import build_controller
        from repro.crypto.keys import ProcessorKeys
        from repro.traces.profiles import profile
        from repro.traces.replay import replay_batched
        from repro.traces.synthetic import generate_trace

        config = default_table1_config(
            SchemeKind.AGIT_PLUS, TreeKind.BONSAI
        ).with_cache_size(512 * KIB)
        controller = build_controller(config, keys=ProcessorKeys(seed))
        replay_batched(
            controller,
            generate_trace(profile("libquantum"), 8000, seed=seed),
        )
        _reborn, report = crash_and_recover(controller)
        assert report.root_matched


class TestRecoveryBounds:
    def test_work_bounded_by_shadow_tables_not_memory(self):
        """The O(cache) claim: recovery reads scale with tracked blocks,
        not with the number of data blocks in memory."""
        controller = make_controller(SchemeKind.AGIT_PLUS)
        for index in range(200):
            controller.write(line(index * 64), payload(index % 250))
        crash(controller)
        reborn = reincarnate(controller)
        report = AgitRecovery(reborn.nvm, reborn.layout, reborn).run()
        tracked = report.tracked_counter_blocks
        lines_per_block = reborn.layout.lines_per_counter_block
        shadow_blocks = (
            reborn.layout.sct.num_blocks + reborn.layout.smt.num_blocks
        )
        bound = (
            shadow_blocks
            + tracked * (1 + lines_per_block)
            + (report.tracked_tree_nodes + report.nodes_rebuilt) * 9
            + 8
        )
        assert report.memory_reads <= bound

    def test_estimated_time_positive_and_small(self):
        controller = make_controller(SchemeKind.AGIT_PLUS)
        run_workload(controller, writes=30, reads=0)
        _reborn, report = crash_and_recover(controller)
        assert 0 < report.estimated_seconds() < 0.1

    def test_levels_rebuilt_bottom_up(self):
        controller = make_controller(SchemeKind.AGIT_PLUS)
        run_workload(controller, writes=30, reads=0)
        _reborn, report = crash_and_recover(controller)
        assert report.nodes_rebuilt > 0
        assert sorted(report.repaired_levels) == list(report.repaired_levels)


class TestTamperDetection:
    def test_tampered_data_line_fails_recovery(self):
        controller = make_controller(SchemeKind.AGIT_PLUS)
        controller.write(line(0), payload(1))
        crash(controller)
        raw = bytearray(controller.nvm.peek(0))
        raw[0] ^= 0xFF
        controller.nvm.poke(0, bytes(raw))
        reborn = reincarnate(controller)
        with pytest.raises(Exception):
            # Either Osiris trials fail (UnrecoverableError) or the
            # root mismatches — both are recovery failures.
            AgitRecovery(reborn.nvm, reborn.layout, reborn).run()

    def test_tampered_untracked_counter_caught_by_root(self):
        controller = make_controller(SchemeKind.AGIT_PLUS)
        controller.write(line(0), payload(1))
        controller.writeback_all()
        crash(controller)
        # Tamper with a counter block recovery will NOT repair (it was
        # clean/written back; shadow tables may still name it, so pick
        # an address recovery recomputes from: an upper tree node).
        node_address = controller.layout.node_address(1, 5)
        controller.nvm.poke(node_address, b"\x99" * 64)
        reborn = reincarnate(controller)
        with pytest.raises(RootMismatchError):
            AgitRecovery(reborn.nvm, reborn.layout, reborn).run()

    def test_erased_shadow_tables_miss_lost_state(self):
        """Scrubbing the SCT hides dirty counters from recovery; the
        root check must then refuse the state."""
        controller = make_controller(SchemeKind.AGIT_PLUS)
        for index in range(10):
            controller.write(line(0), payload(index))  # dirty, unpersisted..
        controller.write(line(64 * 64), payload(1))  # second page
        crash(controller)
        for group in range(controller.layout.sct.num_blocks):
            address = controller.layout.sct.block_address(group)
            if controller.nvm.is_written(address):
                controller.nvm.poke(address, bytes(64))
        reborn = reincarnate(controller)
        with pytest.raises(RootMismatchError):
            AgitRecovery(reborn.nvm, reborn.layout, reborn).run()


def plant_tracked_address(controller, region, address):
    """Make slot 0 of ``region`` (the SCT or SMT) track ``address``."""
    block = address.to_bytes(8, "little") + bytes(56)
    controller.nvm.poke(region.block_address(0), block)


class TestTrackedAddressCheck:
    @pytest.mark.parametrize(
        "table, target",
        [
            (table, target)
            for table in ("SCT", "SMT")
            for target in ("data", "shadow", "misaligned", "wrong_level")
        ],
    )
    def test_entry_outside_its_levels_unrecoverable(self, table, target):
        controller = make_controller(SchemeKind.AGIT_PLUS)
        run_workload(controller, writes=10, reads=0)
        crash(controller)
        layout = controller.layout
        own_level = 0 if table == "SCT" else 1
        address = {
            "data": line(100),
            "shadow": layout.st.base,
            "misaligned": layout.level_regions[own_level].base + 8,
            # the SCT names counter blocks only, the SMT never does
            "wrong_level": layout.level_regions[1 - own_level].base,
        }[target]
        region = layout.sct if table == "SCT" else layout.smt
        plant_tracked_address(controller, region, address)
        reborn = reincarnate(controller)
        with pytest.raises(
            UnrecoverableError, match=f"{table} entry names an invalid block"
        ):
            AgitRecovery(reborn.nvm, reborn.layout, reborn).run()


class TestReportContents:
    def test_report_counts_consistent(self):
        controller = make_controller(SchemeKind.AGIT_PLUS)
        run_workload(controller, writes=40, reads=10)
        _reborn, report = crash_and_recover(controller)
        assert report.tracked_counter_blocks >= report.counters_repaired
        assert report.memory_writes >= report.nodes_rebuilt
        assert report.osiris_trials >= report.counters_repaired
