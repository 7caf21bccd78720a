"""ASIT recovery — Algorithm 2 of the paper.

Nothing here runs Osiris: the Shadow Table *is* the lost cache content.
Recovery:

1. reads the whole Shadow Table from NVM and recomputes the shadow-
   region tree's root; a mismatch with the SHADOW_TREE_ROOT register
   means the ST was tampered with — unrecoverable, full stop.  The
   report charges a read and a leaf hash for every slot, while the host
   reads only the written blocks: every other slot is 64 zero bytes;
2. for each valid entry, reads the tracked node's stale memory copy and
   splices in the shadow LSBs and MAC (memory supplies only counter
   MSBs, which the LSB-wrap persist rule keeps truthful);
3. verifies every recovered node's MAC against its parent nonce —
   taken from the recovered set when the parent was itself recovered,
   from memory otherwise (§4.3.2);
4. writes the recovered nodes back and resets the Shadow Table, leaving
   NVM exactly as an orderly write-back would have.

Recovery work is O(cache slots): read the ST, read one stale node per
valid entry, occasionally one parent — no dependence on memory size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import BLOCK_SIZE, SystemConfig
from repro.core.asit import AsitController
from repro.core.recovery_time import STEP_NS
from repro.core.shadow_table import ShadowRegionTree, StEntry
from repro.counters.sgx import SgxCounterBlock
from repro.errors import MacMismatchError, UnrecoverableError
from repro.mem.layout import MemoryLayout
from repro.mem.nvm import NvmDevice
from repro.telemetry.flightrec import FlightRecorder, breakdown_seconds
from repro.telemetry.runtime import live_tracer


@dataclass
class AsitRecoveryReport:
    """What one ASIT recovery run did and what it cost."""

    st_blocks_scanned: int = 0
    valid_entries: int = 0
    nodes_recovered: int = 0
    parent_fetches: int = 0
    memory_reads: int = 0
    memory_writes: int = 0
    hash_ops: int = 0
    shadow_root_matched: bool = False
    #: Flight-recorder phase records (analytic_ns partitions
    #: :meth:`estimated_ns` exactly; wall_seconds is diagnostic).
    phases: List[dict] = field(default_factory=list)

    def breakdown_seconds(self) -> Dict[str, float]:
        """Phase -> analytic seconds; sums to :meth:`estimated_seconds`."""
        return breakdown_seconds(self.phases)

    def estimated_ns(self) -> float:
        """Recovery time under the paper's 100ns-per-step model."""
        return (self.memory_reads + self.hash_ops) * STEP_NS

    def estimated_seconds(self) -> float:
        """:meth:`estimated_ns` in seconds."""
        return self.estimated_ns() / 1e9


class AsitRecovery:
    """Runs Algorithm 2 against a crashed system's NVM image."""

    def __init__(
        self,
        nvm: NvmDevice,
        layout: MemoryLayout,
        controller: AsitController,
        config: Optional[SystemConfig] = None,
    ) -> None:
        self.nvm = nvm
        self.layout = layout
        self.controller = controller
        self.config = config if config is not None else controller.config
        self.engine = controller.engine
        self.lsb_bits = self.config.anubis.asit_lsb_bits
        self.num_slots = controller.metadata_cache.num_slots
        self.tracer = live_tracer()

    def _step_ns(self, report: AsitRecoveryReport) -> float:
        """Event timestamp under the paper's 100ns-per-step model."""
        return report.estimated_ns()

    # ------------------------------------------------------------------
    # step 1: verify the Shadow Table's integrity
    # ------------------------------------------------------------------

    def _verify_shadow_table(
        self, report: AsitRecoveryReport
    ) -> List[Tuple[int, bytes]]:
        """Check the ST against SHADOW_TREE_ROOT in one scan; returns
        ``(slot, raw)`` for every block whose valid bit is set.

        The model reads and hashes every slot; the host reads only the
        written blocks, since every other slot holds 64 zero bytes.
        """
        written = self._written_entries()
        # Keep the live tree: _commit updates it (and the persistent
        # root register) entry by entry while resetting the ST, so a
        # crash during recovery leaves register and table consistent.
        self._live_tree = ShadowRegionTree(
            self.controller.keys.shadow_key, self.num_slots, written
        )
        root = self._live_tree.root
        report.st_blocks_scanned = self.num_slots
        report.memory_reads += self.num_slots
        report.hash_ops += self.num_slots  # one leaf hash per block
        report.shadow_root_matched = root == self.controller.shadow_tree_root
        if not report.shadow_root_matched:
            raise UnrecoverableError(
                "ASIT recovery failed: SHADOW_TREE_ROOT mismatch — the "
                "Shadow Table was tampered with or corrupted"
            )
        # StEntry's valid bit is the low bit of the first byte.
        return [(slot, raw) for slot, raw in written.items() if raw[0] & 1]

    def _written_entries(self) -> Dict[int, bytes]:
        """``{slot: raw}`` for the written ST blocks, in slot order."""
        base = self.layout.st_entry_address(0)
        return {
            (address - base) // BLOCK_SIZE: raw
            for address, raw in self.nvm.written_in(
                base, self.num_slots
            ).items()
        }

    # ------------------------------------------------------------------
    # steps 2-3: splice and verify
    # ------------------------------------------------------------------

    def _recover_nodes(
        self, valid: List[Tuple[int, bytes]], report: AsitRecoveryReport
    ) -> Dict[int, SgxCounterBlock]:
        recovered: Dict[int, SgxCounterBlock] = {}
        for slot, raw in valid:
            entry = StEntry.from_bytes(raw)
            report.valid_entries += 1
            # A valid entry must name a stored tree node.  The root-hash
            # check already rejects wholesale ST tampering, but fail as
            # *detected* corruption — not a layout crash — if a bogus
            # address slips through (defense in depth).
            aligned = entry.address % BLOCK_SIZE == 0
            if not aligned or self.layout.level_of(entry.address) < 0:
                raise UnrecoverableError(
                    f"ST entry {slot} names an invalid node "
                    f"{entry.address:#x} — the Shadow Table is corrupted"
                )
            stale = SgxCounterBlock.from_bytes(self.nvm.peek(entry.address))
            report.memory_reads += 1
            stale.splice_lsbs(list(entry.lsbs), entry.mac, self.lsb_bits)
            recovered[entry.address] = stale
        return recovered

    def _parent_nonce(
        self,
        address: int,
        recovered: Dict[int, SgxCounterBlock],
        report: AsitRecoveryReport,
    ) -> int:
        """Parent nonce for verification: recovered copy first (§4.3.2)."""
        level, index = self.layout.locate_node(address)
        if level == self.layout.root_level - 1:
            return self.engine.root_nonce_for(index)
        parent_level, parent_index = self.layout.parent_of(level, index)
        parent_address = self.layout.node_address(parent_level, parent_index)
        if parent_address in recovered:
            parent = recovered[parent_address]
        else:
            parent = SgxCounterBlock.from_bytes(self.nvm.peek(parent_address))
            report.parent_fetches += 1
            report.memory_reads += 1
        return parent.counter(self.layout.child_slot(index))

    def _verify_recovered(
        self,
        recovered: Dict[int, SgxCounterBlock],
        report: AsitRecoveryReport,
    ) -> None:
        for address in sorted(recovered):
            node = recovered[address]
            nonce = self._parent_nonce(address, recovered, report)
            report.hash_ops += 1
            if not self.engine.verify(node, nonce):
                raise MacMismatchError(
                    f"ASIT recovery failed: recovered node {address:#x} "
                    "does not verify — memory MSBs were tampered with"
                )

    # ------------------------------------------------------------------
    # step 4: commit and reset
    # ------------------------------------------------------------------

    def _commit(
        self,
        recovered: Dict[int, SgxCounterBlock],
        report: AsitRecoveryReport,
    ) -> None:
        for address in sorted(recovered):
            self.nvm.write(address, recovered[address].to_bytes())
            report.memory_writes += 1
            report.nodes_recovered += 1
        # The write-backs make memory the truth; reset the Shadow Table
        # so it again mirrors an (empty) cache.  SHADOW_TREE_ROOT must
        # track every step: the register write after each entry reset
        # is what makes recovery itself restartable — a crash mid-reset
        # leaves register and table consistent, and the rerun simply
        # re-recovers whatever entries survived (idempotently).
        # A never-written entry is already empty, so only written ones
        # are reset, in slot order.
        empty = StEntry.invalid().to_bytes()
        for slot in self._written_entries():
            self.nvm.write(self.layout.st_entry_address(slot), empty)
            report.memory_writes += 1
            report.hash_ops += self._live_tree.update(slot, empty)
            self.controller._persistent_shadow_root = self._live_tree.root
        # The post-reboot controller starts with an empty live shadow
        # tree that now matches NVM; retire the carried-over register.
        if hasattr(self.controller, "_persistent_shadow_root"):
            del self.controller._persistent_shadow_root

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def run(self) -> AsitRecoveryReport:
        """Execute Algorithm 2; raises on an unrecoverable state."""
        report = AsitRecoveryReport()
        recorder = FlightRecorder("asit", report.estimated_ns)
        report.phases = recorder.phases
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit("recovery.begin", ns=0.0, engine="asit")
        with recorder.phase("scan_shadow"):
            valid = self._verify_shadow_table(report)
        if tracer.enabled:
            tracer.emit(
                "recovery.step",
                ns=self._step_ns(report),
                engine="asit",
                step="scan_shadow",
                blocks=report.st_blocks_scanned,
            )
        with recorder.phase("splice"):
            recovered = self._recover_nodes(valid, report)
        if tracer.enabled:
            for address in sorted(recovered):
                tracer.emit(
                    "recovery.step",
                    ns=self._step_ns(report),
                    engine="asit",
                    step="splice",
                    address=address,
                )
        with recorder.phase("verify"):
            self._verify_recovered(recovered, report)
        if tracer.enabled:
            tracer.emit(
                "recovery.step",
                ns=self._step_ns(report),
                engine="asit",
                step="verify",
                nodes=len(recovered),
            )
        with recorder.phase("commit"):
            self._commit(recovered, report)
        if tracer.enabled:
            tracer.emit(
                "recovery.end",
                ns=self._step_ns(report),
                engine="asit",
                ok=True,
                nodes_recovered=report.nodes_recovered,
            )
        return report
