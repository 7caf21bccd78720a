"""Crash-during-recovery tests: recovery must be restartable.

A second power failure can land in the middle of recovery itself.
Recovery writes only *repairs* (recomputed counters and nodes) whose
values are independent of how much of the previous attempt completed,
so a partially-applied recovery followed by a fresh run must converge
to the same verified state.  These tests interrupt recovery after k
device writes and re-run it.
"""

import pytest

from repro.config import SchemeKind, TreeKind
from repro.core.recovery_agit import AgitRecovery
from repro.core.recovery_asit import AsitRecovery
from repro.recovery.crash import crash, reincarnate

from tests.helpers import compute_shadow_root, line, make_controller, payload


class _PowerFailure(Exception):
    """Injected mid-recovery power loss."""


class _InterruptingNvm:
    """Proxy that fails the Nth write, passing everything else through."""

    def __init__(self, nvm, fail_after: int) -> None:
        self._nvm = nvm
        self._remaining = fail_after
        #: Addresses of the writes that went through, in order.
        self.written = []

    def write(self, address, data):
        if self._remaining <= 0:
            raise _PowerFailure()
        self._remaining -= 1
        self.written.append(address)
        return self._nvm.write(address, data)

    def __getattr__(self, name):
        return getattr(self._nvm, name)


def run_workload(controller, writes=40):
    oracle = {}
    for index in range(writes):
        address = line(index * 16)
        controller.write(address, payload(index % 250))
        oracle[address] = payload(index % 250)
    return oracle


class TestAgitRecoveryRestartable:
    @pytest.mark.parametrize("fail_after", [0, 1, 3, 7, 15])
    def test_interrupted_then_completed(self, fail_after):
        controller = make_controller(SchemeKind.AGIT_PLUS)
        oracle = run_workload(controller)
        crash(controller)
        reborn = reincarnate(controller)

        interrupted = _InterruptingNvm(reborn.nvm, fail_after)
        try:
            AgitRecovery(interrupted, reborn.layout, reborn).run()
        except _PowerFailure:
            pass  # interrupted mid-repair, as intended

        # second boot: run recovery to completion on the real device
        report = AgitRecovery(reborn.nvm, reborn.layout, reborn).run()
        assert report.root_matched
        for address, expected in oracle.items():
            assert reborn.read(address) == expected

    def test_many_interruptions_then_completion(self):
        controller = make_controller(SchemeKind.AGIT_PLUS)
        oracle = run_workload(controller, writes=25)
        crash(controller)
        reborn = reincarnate(controller)
        for fail_after in (2, 5, 9):
            interrupted = _InterruptingNvm(reborn.nvm, fail_after)
            with pytest.raises(_PowerFailure):
                AgitRecovery(interrupted, reborn.layout, reborn).run()
        report = AgitRecovery(reborn.nvm, reborn.layout, reborn).run()
        assert report.root_matched
        for address, expected in oracle.items():
            assert reborn.read(address) == expected


class TestAsitRecoveryRestartable:
    @pytest.mark.parametrize("fail_after", [0, 1, 4, 10])
    def test_interrupted_then_completed(self, fail_after):
        controller = make_controller(SchemeKind.ASIT, TreeKind.SGX)
        oracle = run_workload(controller)
        crash(controller)
        reborn = reincarnate(controller)

        interrupted = _InterruptingNvm(reborn.nvm, fail_after)
        with pytest.raises(_PowerFailure):
            AsitRecovery(interrupted, reborn.layout, reborn).run()

        report = AsitRecovery(reborn.nvm, reborn.layout, reborn).run()
        assert report.shadow_root_matched
        for address, expected in oracle.items():
            assert reborn.read(address) == expected

    def test_interruption_during_st_reset_phase(self):
        """ASIT's commit step writes recovered nodes, then resets the
        ST.  A crash between the two leaves valid ST entries describing
        already-written nodes — the rerun must treat them as harmless
        re-recoveries, not corruption."""
        controller = make_controller(SchemeKind.ASIT, TreeKind.SGX)
        oracle = run_workload(controller, writes=20)
        crash(controller)
        reborn = reincarnate(controller)
        # First run to count total writes, on a snapshot.
        probe = reincarnate(controller)
        probe_nvm = reborn.nvm.snapshot()
        probe_report = AsitRecovery(probe_nvm, probe.layout, probe).run()
        total_writes = probe_report.memory_writes
        # Interrupt the real device mid-reset (after node writes).
        cut = probe_report.nodes_recovered + 1
        assert cut < total_writes
        interrupted = _InterruptingNvm(reborn.nvm, cut)
        with pytest.raises(_PowerFailure):
            AsitRecovery(interrupted, reborn.layout, reborn).run()
        report = AsitRecovery(reborn.nvm, reborn.layout, reborn).run()
        assert report.shadow_root_matched
        for address, expected in oracle.items():
            assert reborn.read(address) == expected

    def test_st_reset_in_slot_order_with_register_per_entry(self):
        """Cut recovery at every device write of the ST reset: the resets
        so far are the first written slots in ascending order, and
        SHADOW_TREE_ROOT is the root over the ST as NVM holds it."""
        controller = make_controller(SchemeKind.ASIT, TreeKind.SGX)
        run_workload(controller, writes=20)
        crash(controller)
        image = controller.nvm.snapshot()
        st = controller.layout.st
        written = [a for a, _raw in image.touched_blocks() if st.contains(a)]
        probe = reincarnate(controller)
        probe_report = AsitRecovery(image.snapshot(), probe.layout, probe).run()
        nodes = probe_report.nodes_recovered
        assert probe_report.memory_writes == nodes + len(written)
        for cut in range(nodes, probe_report.memory_writes):
            reborn = reincarnate(controller)
            nvm = image.snapshot()
            interrupted = _InterruptingNvm(nvm, cut)
            with pytest.raises(_PowerFailure):
                AsitRecovery(interrupted, reborn.layout, reborn).run()
            assert interrupted.written[nodes:] == written[: cut - nodes]
            assert reborn.shadow_tree_root == compute_shadow_root(
                reborn.keys.shadow_key,
                reborn.metadata_cache.num_slots,
                lambda slot: nvm.peek(reborn.layout.st_entry_address(slot)),
            )
