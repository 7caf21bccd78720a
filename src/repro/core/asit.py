"""ASIT — Anubis for SGX Integrity Trees (§4.3).

ASIT keeps an integrity-protected persistent snapshot of every *modified*
line of the combined metadata cache.  Each cache slot owns one 64B
Shadow Table (ST) entry holding the tracked node's address, its current
MAC, and the 49-bit LSBs of its eight counters.  The invariant
maintained here:

    ST[slot] is valid  ⟺  the node in `slot` is dirty (modified),
    and then ST[slot] snapshots that node's current counters and MAC.

Transitions:

* every modification of a cached node (data-write increment, or a
  parent-nonce bump during a child's eviction) reseals the node's MAC
  and rewrites its ST entry — the paper's "one extra write per memory
  write";
* a dirty eviction writes the node back and *invalidates* its ST entry
  (the memory copy is now the truth);
* an imminent 49-bit LSB wrap persists the whole node first, so memory
  MSBs plus shadow LSBs always reconstruct the true counter (§4.3.1).

Every ST write updates the on-chip shadow-region tree eagerly;
SHADOW_TREE_ROOT lives in a persistent register and is the recovery-time
authority over the ST (the stale main-tree root cannot be, §2.6).
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import SchemeKind, SystemConfig
from repro.controller.sgx import CachedNode, SgxController
from repro.core.shadow_table import ShadowRegionTree, StEntry
from repro.crypto.keys import ProcessorKeys
from repro.errors import ConfigError
from repro.mem.layout import MemoryLayout
from repro.mem.nvm import NvmDevice


class AsitController(SgxController):
    """SGX-style controller with the ASIT Shadow Table."""

    COUNTERS = SgxController.COUNTERS + ("lsb_overflow_persists",)

    def __init__(
        self,
        config: SystemConfig,
        layout: MemoryLayout,
        keys: Optional[ProcessorKeys] = None,
        nvm: Optional[NvmDevice] = None,
    ) -> None:
        if config.scheme != SchemeKind.ASIT:
            raise ConfigError(
                f"AsitController requires scheme ASIT, got {config.scheme}"
            )
        super().__init__(config, layout, keys, nvm)
        self.lsb_bits = config.anubis.asit_lsb_bits
        num_slots = self.metadata_cache.num_slots
        self.st_entries: List[StEntry] = [StEntry.invalid()] * num_slots
        self.shadow_tree = ShadowRegionTree(self.keys.shadow_key, num_slots)

    # ------------------------------------------------------------------
    # ST maintenance
    # ------------------------------------------------------------------

    def _write_st(self, slot: int, entry: StEntry) -> None:
        """Persist one ST entry and fold it into the shadow tree."""
        self.st_entries[slot] = entry
        raw = entry.to_bytes()
        self.shadow_write(
            self.layout.st_entry_address(slot), raw, table="st"
        )
        # The shadow-region tree hashes ride the background hash engine
        # (they gate nothing the core waits for), so they cost traffic
        # bookkeeping only, not core stall time.
        self.shadow_tree.update(slot, raw)

    def _touch_node(self, address: int, record: CachedNode) -> None:
        """Every modification reseals the node and snapshots it in ST."""
        self.metadata_cache.mark_dirty(address)
        self.engine.seal(record.node, record.parent_nonce)
        slot = self.metadata_cache.slot_of(address)
        entry = StEntry(
            valid=True,
            address=address,
            mac=record.node.mac,
            lsbs=tuple(record.node.lsbs(self.lsb_bits)),
        )
        self._write_st(slot, entry)

    def _on_node_evicted(self, slot: int, address: int, dirty: bool) -> None:
        """A write-back makes memory the truth; drop the ST snapshot.

        Evictions can complete out of order (a queued eviction is
        flushed early when its address is refetched), so the slot may
        already track a *new* occupant — only invalidate an entry that
        still describes the evicted node.
        """
        if not dirty:
            return
        entry = self.st_entries[slot]
        if entry.valid and entry.address == address:
            self._write_st(slot, StEntry.invalid())

    def _after_increment(
        self, address: int, record: CachedNode, slot: int
    ) -> None:
        """Persist the node when a counter's 49-bit LSB field wraps
        (§4.3.1): the memory copy's MSBs must carry the wrap so that
        ``MSB(memory) | LSB(shadow)`` reconstructs the true counter."""
        lsb_mask = (1 << self.lsb_bits) - 1
        if record.node.counter(slot) & lsb_mask == 0:
            self.lsb_overflow_persists += 1
            self.engine.seal(record.node, record.parent_nonce)
            self.wpq.insert(address, record.node.to_bytes())

    # ------------------------------------------------------------------
    # crash
    # ------------------------------------------------------------------

    def drop_volatile(self) -> None:
        """Lose the cache and the on-chip ST mirror.

        The shadow-region tree's intermediate levels are volatile too,
        but SHADOW_TREE_ROOT survives in its persistent register — the
        recovery engine recomputes the tree from the NVM copy of the ST
        and compares roots (§4.3.2).
        """
        root = self.shadow_tree.root
        super().drop_volatile()
        self.st_entries = [StEntry.invalid()] * self.metadata_cache.num_slots
        # Keep the persistent root; the volatile levels are stale now
        # but only `root` is ever consulted after a crash.
        self._persistent_shadow_root = root

    @property
    def shadow_tree_root(self) -> int:
        """SHADOW_TREE_ROOT — the persistent on-chip register value."""
        return getattr(self, "_persistent_shadow_root", self.shadow_tree.root)
