"""Selective counter atomicity restore — and the replay attack it admits.

The HPCA'18 selective-persistence design [8] atomically persists
counters only for a programmer-declared persistent region; everything
else is plain write-back.  After a crash it cannot *verify* a root: the
non-persistent counters in memory are stale, so the pre-crash root can
never match.  Its restore path therefore rebuilds the Merkle tree from
whatever counter blocks memory holds and **adopts the rebuilt root as
the new trust anchor**.

That adoption is the vulnerability Osiris [7] pointed out and this
module makes executable: an attacker who records an old
(data, sideband, counter-block) triple for a *non-persistent* line can
plant all three before recovery; the rebuilt tree blesses the stale
counter, the stale counter decrypts the stale data, and the read
returns **old data with every check passing** — a silent replay.
``tests/test_selective_replay_attack.py`` runs the attack against this
scheme (it succeeds) and against AGIT (the on-chip root refuses it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from repro.config import SystemConfig
from repro.controller.bonsai import BonsaiController
from repro.core.recovery_time import STEP_NS
from repro.mem.layout import MemoryLayout
from repro.mem.nvm import NvmDevice


@dataclass
class SelectiveRestoreReport:
    """What the selective-persistence restore path did.

    Note the field that is *not* here: ``root_matched``.  This scheme
    has no pre-crash root to match against — that absence is the point.
    """

    counter_blocks_scanned: int = 0
    nodes_rebuilt: int = 0
    memory_reads: int = 0
    adopted_new_root: bool = False

    def estimated_seconds(self) -> float:
        """Restore cost under the 100ns-per-step model (still O(n):
        the whole tree over the touched region is recomputed)."""
        return (self.memory_reads + self.nodes_rebuilt) * STEP_NS / 1e9


class SelectiveRestore:
    """Rebuild the tree from memory and adopt the result as truth."""

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

    def _touched_counter_blocks(self) -> Set[int]:
        touched: Set[int] = set()
        for address, _data in self.nvm.touched_blocks():
            if self.layout.data.contains(address):
                touched.add(self.layout.counter_block_for(address))
            elif self.layout.counter_region.contains(address):
                touched.add(address)
        return touched

    def run(self) -> SelectiveRestoreReport:
        """Rebuild bottom-up from memory counters; adopt the new root.

        No counter repair happens: persistent-region counters are exact
        by construction, and the scheme *chooses to trust* whatever the
        non-persistent region holds — which is what an attacker (or
        plain staleness) exploits.
        """
        report = SelectiveRestoreReport()
        touched = self._touched_counter_blocks()
        report.counter_blocks_scanned = len(touched)

        def reader(address: int) -> bytes:
            report.memory_reads += 1
            return self.nvm.peek(address)

        # recompute every ancestor of every touched counter block
        nodes: Set[int] = set()
        for counter_address in touched:
            nodes.update(self.layout.ancestors_of_counter(counter_address))
        by_level = {}
        for address in nodes:
            level, index = self.layout.locate_node(address)
            by_level.setdefault(level, []).append((address, index))
        for level in sorted(by_level):
            for address, index in sorted(by_level[level]):
                node = self.engine.rebuild_level(level, reader, index)
                self.nvm.write(address, node.to_bytes())
                report.nodes_rebuilt += 1

        # ... and the root — which is *adopted*, not compared.
        self.controller.engine.root_node = self.engine.rebuild_root(reader)
        report.adopted_new_root = True
        return report
