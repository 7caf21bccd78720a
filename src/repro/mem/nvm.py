"""Functional model of the non-volatile main memory device.

The device stores real bytes (ciphertext, metadata blocks) sparsely in a
dict keyed by block address — a 16GB (or 8TB) memory costs only as much
host RAM as the blocks actually touched.  It also keeps the endurance
accounting the paper argues from: total writes, writes per region, and
per-block write counts (NVM cells wear out; strict persistence's ~10
extra writes per write is one of its disqualifying costs, §6.2).

Crash semantics: the device content *is* the persistent domain.  Crash
injection (``repro.recovery.crash``) simply discards all volatile state
(caches, on-chip registers not modeled as NVM) and keeps this object.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from repro.config import BLOCK_SIZE
from repro.errors import AlignmentError, LayoutError
from repro.util.stats import StatGroup

_ZERO_BLOCK = bytes(BLOCK_SIZE)


class NvmDevice:
    """Byte-addressable NVM storing 64B blocks plus sideband ECC.

    Parameters
    ----------
    size:
        Total device size in bytes (data + metadata + shadow regions).
    """

    def __init__(self, size: int) -> None:
        if size <= 0 or size % BLOCK_SIZE:
            raise LayoutError(f"NVM size must be a positive multiple of 64: {size}")
        self.size = size
        #: Device-lifetime read and write counts (``nvm.*`` stats).
        self.reads = 0
        self.writes = 0
        self._blocks: Dict[int, bytes] = {}
        #: Sideband ECC storage, one entry per data block that has one.
        self._ecc: Dict[int, bytes] = {}
        self._write_counts: Dict[int, int] = {}
        #: Optional hook mapping an address to its *default* content for
        #: never-written blocks.  The tree engines install this so an
        #: untouched terabyte-scale integrity tree reads as consistent
        #: default nodes without materializing them (lazy-zero memory).
        self.default_provider = None

    def _check(self, address: int) -> None:
        if address % BLOCK_SIZE:
            raise AlignmentError(f"NVM address {address:#x} not 64B-aligned")
        if not 0 <= address < self.size:
            raise LayoutError(
                f"NVM address {address:#x} outside device of {self.size} bytes"
            )

    def _default(self, address: int) -> bytes:
        if self.default_provider is not None:
            return self.default_provider(address)
        return _ZERO_BLOCK

    def read(self, address: int) -> bytes:
        """Read the 64B block at ``address``.

        Never-written blocks return their default content: zeros, or the
        installed provider's value for metadata regions.
        """
        self._check(address)
        self.reads += 1
        block = self._blocks.get(address)
        return block if block is not None else self._default(address)

    def read_written(self, address: int) -> Tuple[bytes, bool]:
        """:meth:`read` plus :meth:`is_written`, with one check and one
        lookup: ``(bytes, True)`` for a written block, ``(default,
        False)`` for a never-written one."""
        self._check(address)
        self.reads += 1
        block = self._blocks.get(address)
        if block is None:
            return self._default(address), False
        return block, True

    def write(self, address: int, data: bytes) -> None:
        """Write a 64B block."""
        self._check(address)
        if len(data) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(data)}")
        self.writes += 1
        self._blocks[address] = bytes(data)
        self._write_counts[address] = self._write_counts.get(address, 0) + 1

    def read_ecc(self, address: int) -> bytes:
        """Read a data block's sideband (zeros by default).

        The sideband models the DIMM's ECC area, which — following
        Synergy [20] — carries both the SECDED code and the data MAC;
        controllers store a 16-byte ``ecc || mac`` blob here.
        """
        self._check(address)
        return self._ecc.get(address, bytes(16))

    def write_ecc(self, address: int, ecc: bytes) -> None:
        """Write a data block's sideband ECC bits (no extra write cost:
        ECC travels in the same burst as the data)."""
        self._check(address)
        self._ecc[address] = bytes(ecc)

    # ------------------------------------------------------------------
    # introspection used by recovery, tamper tests, and endurance stats
    # ------------------------------------------------------------------

    def peek(self, address: int) -> bytes:
        """Read without counting a device access (debug/verification)."""
        self._check(address)
        block = self._blocks.get(address)
        return block if block is not None else self._default(address)

    def poke(self, address: int, data: bytes) -> None:
        """Write without accounting — models an *attacker* or fault
        mutating NVM contents out-of-band."""
        self._check(address)
        if len(data) != BLOCK_SIZE:
            raise ValueError(f"block must be {BLOCK_SIZE} bytes")
        self._blocks[address] = bytes(data)

    def inject_bit_flip(self, address: int, bit: int) -> int:
        """Flip one stored bit — a radiation/wear soft error.

        Unlike :meth:`poke` (an attacker writing chosen content), this
        models the fault ECC exists for: reads of the block will see
        one flipped ciphertext bit, which CTR decryption turns into one
        flipped plaintext bit that the SECDED path repairs.

        Returns the *pre-flip* bit value (0 or 1), so callers that need
        to undo the fault can reapply the same flip — no need to read
        the block out-of-band first.
        """
        self._check(address)
        if not 0 <= bit < BLOCK_SIZE * 8:
            raise LayoutError(f"bit {bit} outside a {BLOCK_SIZE}B block")
        block = bytearray(self._blocks.get(address, self._default(address)))
        previous = (block[bit // 8] >> (bit % 8)) & 1
        block[bit // 8] ^= 1 << (bit % 8)
        self._blocks[address] = bytes(block)
        return previous

    def inject_bit_flips(self, address: int, bits: Iterable[int]) -> List[int]:
        """Flip several bits of one block (a multi-bit upset).

        Returns the pre-flip value of each bit, in ``bits`` order.
        Flipping the same bit twice restores it — the list reports what
        each individual flip observed.
        """
        return [self.inject_bit_flip(address, bit) for bit in bits]

    def inject_stuck_at(self, address: int, bit: int, value: int) -> bool:
        """Force one stored bit to ``value`` — a worn-out stuck-at cell.

        Unlike a flip this is idempotent: the cell reads as ``value``
        no matter what was (or is later) stored.  The simulator applies
        it once to the current content; campaign trials re-apply it
        after every restore.  Returns True if the bit actually changed.
        """
        self._check(address)
        if not 0 <= bit < BLOCK_SIZE * 8:
            raise LayoutError(f"bit {bit} outside a {BLOCK_SIZE}B block")
        if value not in (0, 1):
            raise ValueError(f"stuck-at value must be 0 or 1, got {value}")
        block = bytearray(self._blocks.get(address, self._default(address)))
        previous = (block[bit // 8] >> (bit % 8)) & 1
        if previous == value:
            return False
        block[bit // 8] ^= 1 << (bit % 8)
        self._blocks[address] = bytes(block)
        return True

    def is_written(self, address: int) -> bool:
        """True if the block has ever been written."""
        self._check(address)
        return address in self._blocks

    def write_count(self, address: int) -> int:
        """Lifetime write count of one block (endurance accounting)."""
        self._check(address)
        return self._write_counts.get(address, 0)

    def touched_blocks(self) -> Iterator[Tuple[int, bytes]]:
        """Iterate ``(address, data)`` over every written block."""
        return iter(sorted(self._blocks.items()))

    def region_write_totals(self, regions) -> Dict[str, int]:
        """Aggregate write counts per named region.

        ``regions`` is an iterable of :class:`~repro.mem.layout.Region`.
        """
        region_list = list(regions)
        totals = {region.name: 0 for region in region_list}
        for address, count in self._write_counts.items():
            for region in region_list:
                if region.contains(address):
                    totals[region.name] += count
                    break
        return totals

    @property
    def stats(self) -> StatGroup:
        """Read-only ``nvm.*`` view of the device's counts."""
        return StatGroup("nvm", {"reads": self.reads, "writes": self.writes})

    def snapshot(self) -> "NvmDevice":
        """Deep copy of the device (used to fork pre/post-crash images).

        Cheap: block payloads are immutable ``bytes``, so the copy is a
        dict copy sharing the payloads.  The read and write counts are
        carried over so endurance accounting survives the fork.
        """
        clone = NvmDevice(self.size)
        clone._blocks = dict(self._blocks)
        clone._ecc = dict(self._ecc)
        clone._write_counts = dict(self._write_counts)
        clone.reads = self.reads
        clone.writes = self.writes
        clone.default_provider = self.default_provider
        return clone

    def restore(self, snapshot: "NvmDevice") -> None:
        """Reset this device to a snapshot's state, in place.

        The inverse of :meth:`snapshot`: blocks, sideband, per-block
        write counts, and lifetime counters all revert.  The campaign
        runner uses one warmed-up snapshot per crash point and restores
        a single trial device before every fault injection instead of
        re-replaying the trace.
        """
        if snapshot.size != self.size:
            raise LayoutError(
                f"cannot restore a {snapshot.size}-byte snapshot into a "
                f"{self.size}-byte device"
            )
        self._blocks = dict(snapshot._blocks)
        self._ecc = dict(snapshot._ecc)
        self._write_counts = dict(snapshot._write_counts)
        self.reads = snapshot.reads
        self.writes = snapshot.writes
        self.default_provider = snapshot.default_provider

    def __repr__(self) -> str:
        return (
            f"NvmDevice(size={self.size}, touched={len(self._blocks)}, "
            f"reads={self.reads}, writes={self.writes})"
        )
