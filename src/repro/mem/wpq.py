"""Write Pending Queue (WPQ), ADR, and persistent registers (§2.7).

The WPQ is the boundary of the *persistent domain*: once an entry is
inserted it is guaranteed (by the platform's ADR feature) to reach NVM
even across a power failure.  Entries drain lazily to the device; reads
must be forwarded from pending entries.

Atomic multi-block updates (data + counter + tree nodes + Anubis shadow
blocks) use the two-stage commit of §2.7: all blocks of one logical write
are first staged in on-chip *persistent registers*; a DONE_BIT is set
once the set is complete; then the registers are copied entry-by-entry
into the WPQ and the DONE_BIT is cleared.  A crash mid-copy replays from
the registers; a crash mid-staging loses the whole write (it never
reached the persistent domain) — never a torn mix.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import BLOCK_SIZE
from repro.errors import WpqError
from repro.mem.nvm import NvmDevice
from repro.mem.timing import MemoryChannel
from repro.telemetry.runtime import live_tracer
from repro.util.stats import StatGroup

#: A pending write: (data bytes, optional sideband ECC bytes).
_Entry = Tuple[bytes, Optional[bytes]]


@dataclass
class AdrFlushRecord:
    """What an ADR flush actually did, entry by entry.

    Under the normal (strong-ADR) model every pending entry lands in NVM
    and ``dropped``/``torn`` stay empty.  Weak-ADR fault injection can
    drop the newest entries entirely or tear them (half-written block,
    sideband lost) — the addresses affected are recorded so a fault
    campaign knows which lines to probe after recovery.
    """

    flushed: List[int] = field(default_factory=list)
    dropped: List[int] = field(default_factory=list)
    torn: List[int] = field(default_factory=list)

    @property
    def count(self) -> int:
        """Entries that reached NVM intact (legacy flush count)."""
        return len(self.flushed)


class WritePendingQueue:
    """FIFO of persistent writes draining to the NVM device."""

    def __init__(
        self, nvm: NvmDevice, channel: MemoryChannel, entries: int
    ) -> None:
        if entries < 1:
            raise WpqError("WPQ needs at least one entry")
        self.nvm = nvm
        self.channel = channel
        self.capacity = entries
        self.tracer = live_tracer()
        self.inserts = 0
        self.drains = 0
        self.coalesced = 0
        #: address -> (data, ecc); OrderedDict gives FIFO draining while
        #: letting repeated writes to one address coalesce (real WPQs do).
        self._pending: "OrderedDict[int, _Entry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def stats(self) -> StatGroup:
        """Read-only ``wpq.*`` view of the queue's counts."""
        return StatGroup("wpq", {
            "inserts": self.inserts,
            "drains": self.drains,
            "coalesced": self.coalesced,
        })

    def insert(self, address: int, data: bytes, ecc: Optional[bytes] = None) -> None:
        """Insert a write into the persistent domain.

        If the queue is full the oldest entry is drained to NVM first
        (a posted write on the channel).  A write to an address already
        pending coalesces in place.
        """
        self.inserts += 1
        if address in self._pending:
            self.coalesced += 1
            self._pending[address] = (bytes(data), ecc)
            self._pending.move_to_end(address)
            return
        if len(self._pending) >= self.capacity:
            self._drain_one()
        self._pending[address] = (bytes(data), ecc)

    def lookup(self, address: int) -> Optional[bytes]:
        """Forward the newest pending data for ``address``, if any."""
        entry = self._pending.get(address)
        return entry[0] if entry is not None else None

    def lookup_entry(self, address: int) -> Optional[_Entry]:
        """Forward the newest pending ``(data, sideband)`` pair, if any."""
        return self._pending.get(address)

    def _drain_one(self) -> None:
        address, (data, ecc) = self._pending.popitem(last=False)
        self.drains += 1
        self.nvm.write(address, data)
        if ecc is not None:
            self.nvm.write_ecc(address, ecc)
        self.channel.write()

    def drain_all(self) -> int:
        """Drain every pending entry to NVM (normal operation flush)."""
        drained = 0
        while self._pending:
            self._drain_one()
            drained += 1
        if drained and self.tracer.enabled:
            self.tracer.emit("wpq.drain", count=drained)
        return drained

    def pending_entries(self) -> List[Tuple[int, bytes, Optional[bytes]]]:
        """FIFO snapshot of pending writes: ``(address, data, sideband)``.

        Used to fork the persistent domain at a crash point: a campaign
        captures the queue alongside an NVM snapshot, then replays the
        entries into a trial device under a (possibly weakened) ADR
        flush without disturbing the live controller.
        """
        return [
            (address, data, ecc)
            for address, (data, ecc) in self._pending.items()
        ]

    def adr_flush(self, drop_newest: int = 0, tear_newest: int = 0) -> AdrFlushRecord:
        """Crash-time ADR flush: dump all entries to NVM with *no* timing
        cost (the platform's residual energy pays for it).

        ``drop_newest``/``tear_newest`` model a *weak* ADR whose residual
        energy runs out early (a documented NVDIMM failure mode).  The
        newest ``drop_newest`` entries never reach NVM at all; the next
        newest ``tear_newest`` entries are torn — the first half of the
        block is written, the second half keeps its old content, and the
        sideband write is lost.  Entries are still drained oldest-first,
        so the casualties are exactly the writes most recently accepted
        into the queue.
        """
        record = AdrFlushRecord()
        pending = len(self._pending)
        drop_newest = min(max(drop_newest, 0), pending)
        tear_newest = min(max(tear_newest, 0), pending - drop_newest)
        intact = pending - drop_newest - tear_newest
        position = 0
        while self._pending:
            address, (data, ecc) = self._pending.popitem(last=False)
            if position < intact:
                self.nvm.write(address, data)
                if ecc is not None:
                    self.nvm.write_ecc(address, ecc)
                record.flushed.append(address)
            elif position < intact + tear_newest:
                half = BLOCK_SIZE // 2
                old = self.nvm.peek(address)
                self.nvm.write(address, data[:half] + old[half:])
                record.torn.append(address)
            else:
                record.dropped.append(address)
            position += 1
        return record


class PersistentRegisters:
    """Two-stage commit staging area with a DONE_BIT (§2.7, Fig. 4)."""

    def __init__(self, wpq: WritePendingQueue, capacity: int = 16) -> None:
        self.wpq = wpq
        self.capacity = capacity
        self._staged: Dict[int, _Entry] = {}
        self._order: List[int] = []
        self.done_bit = False
        self._open = False

    def begin(self) -> None:
        """Start staging one atomic write group."""
        if self._open:
            raise WpqError("previous atomic group still open")
        self._staged.clear()
        self._order.clear()
        self.done_bit = False
        self._open = True

    def stage(self, address: int, data: bytes, ecc: Optional[bytes] = None) -> None:
        """Add one block to the open atomic group."""
        if not self._open:
            raise WpqError("stage() outside an atomic group")
        if address not in self._staged:
            if len(self._staged) >= self.capacity:
                raise WpqError(
                    f"atomic group exceeds {self.capacity} persistent registers"
                )
            self._order.append(address)
        self._staged[address] = (bytes(data), ecc)

    def commit(self) -> int:
        """Complete the group: set DONE_BIT, copy to WPQ, clear DONE_BIT.

        Returns the number of blocks pushed into the WPQ.
        """
        if not self._open:
            raise WpqError("commit() without begin()")
        self.done_bit = True
        pushed = 0
        for address in self._order:
            data, ecc = self._staged[address]
            self.wpq.insert(address, data, ecc)
            pushed += 1
        self.done_bit = False
        self._staged.clear()
        self._order.clear()
        self._open = False
        return pushed

    def abort(self) -> None:
        """Discard an open group (models a crash before DONE_BIT)."""
        self._staged.clear()
        self._order.clear()
        self.done_bit = False
        self._open = False

    def crash_replay(self) -> int:
        """Crash-time handling: replay a completed-but-uncopied group.

        If the DONE_BIT was set when power failed, every staged register
        is (re-)inserted into the WPQ — re-inserting blocks that already
        made it is harmless because the copy is idempotent.  If the
        DONE_BIT was clear, the staged content never entered the
        persistent domain and is discarded.
        """
        replayed = 0
        if self.done_bit:
            for address in self._order:
                data, ecc = self._staged[address]
                self.wpq.insert(address, data, ecc)
                replayed += 1
        self.abort()
        return replayed
