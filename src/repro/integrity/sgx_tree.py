"""SGX-style parallelizable integrity tree (§2.3.2, Fig. 3).

Every node — leaf version blocks and intermediate nodes — is an
:class:`~repro.counters.sgx.SgxCounterBlock`: eight 56-bit nonces plus a
56-bit MAC.  A node's MAC covers its own nonces and *the one nonce in its
parent that versions it*; the top stored level is versioned by nonces in
the on-chip root block.  Incrementing any nonce therefore lets each
affected level recompute its MAC independently (parallelizable updates),
but it also means the tree **cannot** be rebuilt from the leaves: losing
an intermediate node loses both its nonces and the MAC that vouched for
its children's freshness.  That inter-level dependency is the entire
reason ASIT exists.

MACs are position-free for the same lazy-zero reason as the Bonsai
engine; every untouched node is the single *default node* (zero nonces,
MAC over zeros with a zero parent nonce).
"""

from __future__ import annotations

import struct

from repro.config import BLOCK_SIZE, TREE_ARITY
from repro.counters.sgx import SgxCounterBlock
from repro.crypto.hashes import mac56_keyed
from repro.crypto.keys import ProcessorKeys
from repro.mem.layout import MemoryLayout
from repro.telemetry.runtime import live_tracer

#: MAC input: the eight nonces then the parent nonce, each a u64 LE.
_MAC_PAYLOAD = struct.Struct("<9Q")
_ZERO_BLOCK = bytes(BLOCK_SIZE)


class SgxTreeEngine:
    """MAC math, lazy-zero defaults, and the on-chip root block."""

    def __init__(self, keys: ProcessorKeys, layout: MemoryLayout) -> None:
        self.keys = keys
        self.layout = layout
        # The live-session facade: disabled outside a telemetry
        # session, so the hot-path guard is one attribute test.
        self._tracer = live_tracer()
        self._mac = mac56_keyed(keys.tree_key)
        default = SgxCounterBlock()
        default.mac = self.compute_mac(default, parent_nonce=0)
        self._default_block = default
        self._default_bytes = default.to_bytes()
        #: On-chip root block: nonces versioning the top stored level.
        #: Held in an NVM register, so it survives crashes.  The root
        #: block needs no MAC — it never leaves the chip.
        self.root_block = SgxCounterBlock()

    # ------------------------------------------------------------------
    # pure MAC math
    # ------------------------------------------------------------------

    def compute_mac(self, node: SgxCounterBlock, parent_nonce: int) -> int:
        """MAC over the node's eight nonces and its parent nonce."""
        return self._mac.value(_MAC_PAYLOAD.pack(*node.counters, parent_nonce))

    def verify(self, node: SgxCounterBlock, parent_nonce: int) -> bool:
        """Does the node's stored MAC match its nonces + parent nonce?"""
        ok = node.mac == self.compute_mac(node, parent_nonce)
        tracer = self._tracer
        if tracer.enabled and tracer.detail:
            tracer.emit("integrity.check", tree="sgx", ok=ok)
        return ok

    def seal(self, node: SgxCounterBlock, parent_nonce: int) -> None:
        """Recompute and install the node's MAC before it leaves the chip."""
        node.mac = self.compute_mac(node, parent_nonce)

    # ------------------------------------------------------------------
    # defaults for untouched memory
    # ------------------------------------------------------------------

    def default_node(self) -> SgxCounterBlock:
        """Fresh copy of the all-zero default node (valid default MAC)."""
        return self._default_block.copy()

    def verified_default(self) -> SgxCounterBlock:
        """A never-written node fetched under parent nonce 0, verified.

        Its bytes are the default node's, whose MAC was computed under
        parent nonce 0, so :meth:`verify` would return True: the check
        is skipped (its detail event still fires) and a copy returned.
        """
        tracer = self._tracer
        if tracer.enabled and tracer.detail:
            tracer.emit("integrity.check", tree="sgx", ok=True)
        return self._default_block.copy()

    def default_provider(self, address: int) -> bytes:
        """NVM default-content hook for tree regions."""
        if self.layout.level_of(address) >= 0:
            return self._default_bytes
        return _ZERO_BLOCK

    # ------------------------------------------------------------------
    # root handling
    # ------------------------------------------------------------------

    def root_nonce_for(self, top_level_index: int) -> int:
        """The root nonce versioning top-stored-level node ``index``."""
        return self.root_block.counters[top_level_index % TREE_ARITY]

    def bump_root_nonce_for(self, top_level_index: int) -> int:
        """Increment (and return) the root nonce for a top-level node.

        Called when a dirty top-stored-level node is evicted: the fresh
        nonce versions its write-back, making older memory copies
        unreplayable.
        """
        slot = top_level_index % TREE_ARITY
        self.root_block.increment(slot)
        return self.root_block.counters[slot]
