"""AGIT recovery — Algorithm 1 of the paper.

After a crash, only the metadata blocks named by the Shadow Counter
Table and Shadow Merkle Table can be stale in memory; everything else
was clean on-chip or already written back.  Recovery therefore:

1. scans the SCT and repairs each listed counter block by running the
   Osiris trial loop (decrypt the data line with candidate counters
   until the encrypted ECC sanity-check passes) on each of its 64
   counters;
2. scans the SMT, sorts the listed tree nodes by level, and recomputes
   each from its (already repaired) children, bottom-up;
3. recomputes the on-chip root node from the top stored level and
   compares it with the value that survived in the processor — any
   mismatch (tampered shadow tables, corrupted memory, failed trials)
   makes the system *unrecoverable*.

The work is O(cache slots × tree depth), never O(memory): that is the
10^7 recovery-time claim, and :attr:`AgitRecoveryReport.estimated_ns`
prices it with the paper's 100ns-per-step model (footnote 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.config import BLOCK_SIZE, CounterRecoveryKind, SystemConfig
from repro.controller.bonsai import BonsaiController
from repro.core.recovery_time import STEP_NS
from repro.core.shadow_table import ShadowAddressTable
from repro.counters.split import SplitCounterBlock
from repro.crypto.ctr import CounterModeEngine
from repro.errors import RootMismatchError, UnrecoverableError
from repro.mem.ecc import ECC_BYTES, SecdedCodec
from repro.mem.layout import MemoryLayout
from repro.mem.nvm import NvmDevice
from repro.telemetry.flightrec import FlightRecorder, breakdown_seconds
from repro.telemetry.runtime import live_tracer


@dataclass
class AgitRecoveryReport:
    """What one AGIT recovery run did and what it cost."""

    tracked_counter_blocks: int = 0
    tracked_tree_nodes: int = 0
    counters_repaired: int = 0
    nodes_rebuilt: int = 0
    osiris_trials: int = 0
    memory_reads: int = 0
    memory_writes: int = 0
    hash_ops: int = 0
    root_matched: bool = False
    repaired_levels: Dict[int, int] = field(default_factory=dict)
    #: Flight-recorder phase records (analytic_ns partitions
    #: :meth:`estimated_ns` exactly; wall_seconds is diagnostic).
    phases: List[dict] = field(default_factory=list)

    def breakdown_seconds(self) -> Dict[str, float]:
        """Phase -> analytic seconds; sums to :meth:`estimated_seconds`."""
        return breakdown_seconds(self.phases)

    def estimated_ns(self) -> float:
        """Recovery time under the paper's 100ns-per-step model.

        Each memory fetch (data line for a trial, shadow block, child
        node) plus its hash/decrypt is one step; extra Osiris trials
        beyond the first are additional decrypt steps at the same cost.
        """
        steps = self.memory_reads + self.osiris_trials + self.hash_ops
        return steps * STEP_NS

    def estimated_seconds(self) -> float:
        """:meth:`estimated_ns` in seconds."""
        return self.estimated_ns() / 1e9


class AgitRecovery:
    """Runs Algorithm 1 against a crashed system's NVM image."""

    def __init__(
        self,
        nvm: NvmDevice,
        layout: MemoryLayout,
        controller: BonsaiController,
        config: Optional[SystemConfig] = None,
    ) -> None:
        self.nvm = nvm
        self.layout = layout
        self.controller = controller
        self.config = config if config is not None else controller.config
        self.engine = controller.engine
        self.ctr = CounterModeEngine(controller.keys)
        self.codec = SecdedCodec()
        self.stop_loss = self.config.encryption.stop_loss_limit
        self.tracer = live_tracer()

    def _step_ns(self, report: AgitRecoveryReport) -> float:
        """Event timestamp under the paper's 100ns-per-step model."""
        return report.estimated_ns()

    # ------------------------------------------------------------------
    # shadow-table scan
    # ------------------------------------------------------------------

    def _read_shadow_region(
        self, region, report: AgitRecoveryReport
    ) -> Set[int]:
        """Collect the tracked addresses from a shadow region in NVM."""
        addresses: Set[int] = set()
        # A never-used group tracks nothing and is not read.
        for raw in self.nvm.written_in(region.base, region.num_blocks).values():
            report.memory_reads += 1
            for tracked in ShadowAddressTable.parse_block(raw):
                if tracked:
                    addresses.add(tracked)
        return addresses

    def _validate_tracked(self, addresses: Set[int], table: str) -> None:
        """Reject shadow-table entries naming impossible blocks.

        A bit flip inside the SCT/SMT can turn a tracked address into
        one outside the region it must point into.  That is *detected*
        corruption of the shadow tables, not a recovery crash: raise
        :class:`UnrecoverableError` instead of letting the repair loop
        die on a layout lookup.
        """
        for address in addresses:
            level = self.layout.level_of(address)
            # The SCT names counter blocks (level 0); the SMT mirrors the
            # Merkle cache, which holds nodes of any stored level above.
            in_table = level == 0 if table == "SCT" else level >= 1
            if in_table and address % BLOCK_SIZE == 0:
                continue
            raise UnrecoverableError(
                f"{table} entry names an invalid block {address:#x} — "
                "the shadow table is corrupted or tampered with"
            )

    # ------------------------------------------------------------------
    # counter repair (Osiris trials, §2.4)
    # ------------------------------------------------------------------

    def _repair_counter_block(
        self, counter_address: int, report: AgitRecoveryReport
    ) -> SplitCounterBlock:
        """Run Osiris on every counter of one tracked block."""
        raw = self.nvm.peek(counter_address)
        report.memory_reads += 1
        block = SplitCounterBlock.from_bytes(raw)
        region_index = self.layout.counter_region.block_index(counter_address)
        lines = self.layout.lines_per_counter_block
        first_address = region_index * lines * BLOCK_SIZE
        changed = False
        # A never-written line's true counter is still zero; the stale
        # copy cannot disagree, so only written lines are tried.
        written = self.nvm.written_in(first_address, lines)
        for line_address, cipher in written.items():
            offset = (line_address - first_address) // BLOCK_SIZE
            sideband = self.nvm.read_ecc(line_address)
            report.memory_reads += 1
            recovered = self._osiris_trial(
                line_address, cipher, sideband, block, offset, report
            )
            if recovered is None:
                raise UnrecoverableError(
                    f"Osiris failed to recover the counter of line "
                    f"{line_address:#x} within {self.stop_loss} trials"
                )
            if recovered != block.minors[offset]:
                block.minors[offset] = recovered
                changed = True
        if changed:
            report.counters_repaired += 1
        self.nvm.write(counter_address, block.to_bytes())
        report.memory_writes += 1
        return block

    def _osiris_trial(
        self,
        line_address: int,
        cipher: bytes,
        sideband: bytes,
        block: SplitCounterBlock,
        slot: int,
        report: AgitRecoveryReport,
    ) -> Optional[int]:
        """Recover one minor counter from its data line.

        Osiris mode: try stale, stale+1, ... stale+N-1 until the ECC
        sanity passes.  Phase mode (§2.4): the cleartext phase byte
        names the exact counter; one decrypt confirms it.  The stop-loss
        rule guarantees the true minor lies in the window and that
        overflows were persisted (so the major is never stale).
        """
        stale = block.minors[slot]
        minor_max = (1 << block.minor_bits) - 1
        if self.config.encryption.counter_recovery == CounterRecoveryKind.PHASE:
            phase_bits = self.config.encryption.phase_bits
            phase_mask = (1 << phase_bits) - 1
            if len(sideband) <= ECC_BYTES + 8:
                return None  # phase byte missing: pre-phase write image
            phase = sideband[ECC_BYTES + 8]
            delta = (phase - (stale & phase_mask)) & phase_mask
            candidate = stale + delta
            if candidate > minor_max:
                return None
            report.osiris_trials += 1
            plaintext, opened = self.ctr.decrypt_with_ecc(
                cipher,
                sideband[: ECC_BYTES + 8],
                line_address,
                block.major,
                candidate,
            )
            if self.codec.is_sane(plaintext, opened[:ECC_BYTES]):
                return candidate
            return None
        correctable: Optional[int] = None
        for delta in range(self.stop_loss):
            candidate = stale + delta
            if candidate > minor_max:
                break
            report.osiris_trials += 1
            plaintext, opened = self.ctr.decrypt_with_ecc(
                cipher, sideband, line_address, block.major, candidate
            )
            if self.codec.is_sane(plaintext, opened[:ECC_BYTES]):
                return candidate
            # A single soft-error bit flip must not make the whole
            # system unrecoverable: fall back to the first candidate
            # whose decrypt is one SECDED-correctable bit away.  Only a
            # fallback — garbage from a wrong counter occasionally
            # passes correction too, so an exactly-sane candidate later
            # in the window wins.
            if correctable is None:
                corrected, _repaired = self.codec.correct_line(
                    plaintext, opened[:ECC_BYTES]
                )
                if corrected:
                    correctable = candidate
        return correctable

    # ------------------------------------------------------------------
    # tree repair
    # ------------------------------------------------------------------

    def _counted_reader(self, report: AgitRecoveryReport):
        def reader(address: int) -> bytes:
            report.memory_reads += 1
            return self.nvm.peek(address)

        return reader

    def _rebuild_nodes(
        self, node_addresses: Set[int], report: AgitRecoveryReport
    ) -> None:
        """Recompute tracked tree nodes from children, bottom-up."""
        by_level: Dict[int, List[int]] = {}
        for address in node_addresses:
            level, index = self.layout.locate_node(address)
            by_level.setdefault(level, []).append(address)
        reader = self._counted_reader(report)
        for level in sorted(by_level):
            if level == 0:
                continue  # counter blocks were repaired by Osiris
            for address in sorted(by_level[level]):
                _level, index = self.layout.locate_node(address)
                node = self.engine.rebuild_level(level, reader, index)
                report.hash_ops += 8
                self.nvm.write(address, node.to_bytes())
                report.memory_writes += 1
                report.nodes_rebuilt += 1
                report.repaired_levels[level] = (
                    report.repaired_levels.get(level, 0) + 1
                )

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def run(self) -> AgitRecoveryReport:
        """Execute Algorithm 1; raises on an unrecoverable state."""
        report = AgitRecoveryReport()
        recorder = FlightRecorder("agit", report.estimated_ns)
        report.phases = recorder.phases
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit("recovery.begin", ns=0.0, engine="agit")

        with recorder.phase("scan"):
            tracked_counters = self._read_shadow_region(
                self.layout.sct, report
            )
            tracked_nodes = self._read_shadow_region(self.layout.smt, report)
            self._validate_tracked(tracked_counters, "SCT")
            self._validate_tracked(tracked_nodes, "SMT")
        report.tracked_counter_blocks = len(tracked_counters)
        report.tracked_tree_nodes = len(tracked_nodes)
        if tracer.enabled:
            tracer.emit(
                "recovery.step",
                ns=self._step_ns(report),
                engine="agit",
                step="scan_shadow",
                tracked_counters=report.tracked_counter_blocks,
                tracked_nodes=report.tracked_tree_nodes,
            )

        with recorder.phase("repair_counters"):
            for counter_address in sorted(tracked_counters):
                self._repair_counter_block(counter_address, report)
                if tracer.enabled:
                    tracer.emit(
                        "recovery.step",
                        ns=self._step_ns(report),
                        engine="agit",
                        step="repair_counter",
                        address=counter_address,
                    )

        # Every repaired counter block's ancestors must be recomputed
        # even if the SMT missed them (it cannot, but recovery must not
        # depend on that); union them in.
        all_nodes = set(tracked_nodes)
        for counter_address in tracked_counters:
            all_nodes.update(self.layout.ancestors_of_counter(counter_address))
        with recorder.phase("rebuild_nodes"):
            self._rebuild_nodes(all_nodes, report)
        if tracer.enabled:
            tracer.emit(
                "recovery.step",
                ns=self._step_ns(report),
                engine="agit",
                step="rebuild_nodes",
                nodes=report.nodes_rebuilt,
            )

        with recorder.phase("verify_root"):
            rebuilt_root = self.engine.rebuild_root(
                self._counted_reader(report)
            )
            report.hash_ops += 8
            report.root_matched = (
                rebuilt_root == self.controller.engine.root_node
            )
        if not report.root_matched:
            raise RootMismatchError(
                "AGIT recovery failed: reconstructed root does not match "
                "the on-chip root — the system is unrecoverable"
            )
        if tracer.enabled:
            tracer.emit(
                "recovery.end",
                ns=self._step_ns(report),
                engine="agit",
                ok=True,
                counters_repaired=report.counters_repaired,
                nodes_rebuilt=report.nodes_rebuilt,
            )
        return report
