"""Whole-memory Osiris recovery — the state of the art Anubis beats.

Without shadow tracking, a crashed system does not know *which* counters
and tree nodes are stale, so it must assume all of them are: run the
Osiris trial loop over **every** data line in memory, then rebuild the
**entire** Merkle tree bottom-up, then compare the root (§2.5, Fig. 5).
The work is O(n) in the number of data blocks — about 7.8 hours at 8TB
under the 100ns-per-step model — and that linear scaling is precisely
what Fig. 5 plots and what Anubis removes.

The functional implementation below runs the same algorithm on the
simulator's sparse NVM image (only touched blocks exist, untouched ones
are provably default), so tests can check that full recovery and AGIT
recovery reach the *same* repaired state.  The report separately prices
the full O(n) cost for a hypothetical dense memory of the configured
capacity, which is the Fig. 5 number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.config import SystemConfig
from repro.controller.bonsai import BonsaiController
from repro.core.recovery_agit import AgitRecovery, AgitRecoveryReport
from repro.core.recovery_time import STEP_NS, osiris_recovery_time_s
from repro.errors import RootMismatchError
from repro.mem.layout import MemoryLayout
from repro.mem.nvm import NvmDevice
from repro.telemetry.flightrec import FlightRecorder, breakdown_seconds
from repro.telemetry.runtime import live_tracer


@dataclass
class OsirisRecoveryReport:
    """Result of a full-memory Osiris recovery."""

    counter_blocks_scanned: int = 0
    counters_repaired: int = 0
    nodes_rebuilt: int = 0
    osiris_trials: int = 0
    memory_reads: int = 0
    memory_writes: int = 0
    root_matched: bool = False
    #: The O(n) cost for a dense memory of the configured capacity,
    #: priced with the Fig. 5 model — hours at terabyte scale.
    full_capacity_seconds: float = 0.0
    #: Flight-recorder phase records (analytic_ns partitions
    #: :meth:`estimated_seconds` exactly; wall_seconds is diagnostic).
    phases: List[dict] = field(default_factory=list)

    def estimated_seconds(self) -> float:
        """Cost of the work actually performed on the sparse image."""
        return (self.memory_reads + self.osiris_trials) * STEP_NS / 1e9

    def breakdown_seconds(self) -> Dict[str, float]:
        """Phase -> analytic seconds; sums to :meth:`estimated_seconds`."""
        return breakdown_seconds(self.phases)


class OsirisFullRecovery:
    """Counter recovery + full tree rebuild, with no shadow tables.

    Reuses the AGIT repair machinery but feeds it *every* counter block
    that covers a written data line, plus every ancestor — exactly what
    a tracker-less system is forced to do.
    """

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
        self._agit = AgitRecovery(nvm, layout, controller, self.config)

    def _all_touched_counter_blocks(self) -> Set[int]:
        """Counter blocks covering any written data line."""
        touched: Set[int] = set()
        for address, _data in self.nvm.touched_blocks():
            if self.layout.data.contains(address):
                touched.add(self.layout.counter_block_for(address))
        return touched

    def run(self) -> OsirisRecoveryReport:
        """Repair everything; raises :class:`RootMismatchError` on failure."""
        inner = AgitRecoveryReport()
        report = OsirisRecoveryReport()
        # Match the report's own cost model: the sparse-image estimate
        # prices fetches and trial decrypts only (the dense-capacity
        # Fig. 5 number carries the tree-hash cost instead).
        recorder = FlightRecorder(
            "osiris",
            lambda: (inner.memory_reads + inner.osiris_trials) * 100.0,
        )
        report.phases = recorder.phases
        tracer = live_tracer()
        if tracer.enabled:
            tracer.emit("recovery.begin", ns=0.0, engine="osiris")

        with recorder.phase("scan_counters"):
            counter_blocks = self._all_touched_counter_blocks()
            report.counter_blocks_scanned = len(counter_blocks)
            for counter_address in sorted(counter_blocks):
                self._agit._repair_counter_block(counter_address, inner)

        with recorder.phase("rebuild_tree"):
            nodes: Set[int] = set()
            for counter_address in counter_blocks:
                nodes.update(
                    self.layout.ancestors_of_counter(counter_address)
                )
            self._agit._rebuild_nodes(nodes, inner)

        with recorder.phase("verify_root"):
            rebuilt_root = self.controller.engine.rebuild_root(
                self._agit._counted_reader(inner)
            )
            report.root_matched = (
                rebuilt_root == self.controller.engine.root_node
            )

        report.counters_repaired = inner.counters_repaired
        report.nodes_rebuilt = inner.nodes_rebuilt
        report.osiris_trials = inner.osiris_trials
        report.memory_reads = inner.memory_reads
        report.memory_writes = inner.memory_writes
        report.full_capacity_seconds = osiris_recovery_time_s(
            self.config.memory.capacity_bytes,
            stop_loss=self.config.encryption.stop_loss_limit,
        )
        if not report.root_matched:
            raise RootMismatchError(
                "Osiris full recovery failed: reconstructed root does not "
                "match the on-chip root"
            )
        if tracer.enabled:
            tracer.emit(
                "recovery.end",
                ns=recorder.total_ns(),
                engine="osiris",
                ok=True,
                counters_repaired=report.counters_repaired,
                nodes_rebuilt=report.nodes_rebuilt,
            )
        return report
