"""Trace container and summary statistics.

A trace is an ordered stream of post-LLC memory accesses plus the name
of the workload that produced it.  Traces are value objects: generators
build them, the engine replays them, experiments reuse one trace across
every scheme so comparisons see identical access streams.

A trace stores its accesses as four parallel Python lists —
``addresses``, ``is_write``, ``gaps`` and ``data`` (each write's 64B
payload, None for reads).  The batch replay engine reads those lists
directly, and so does scalar replay; :class:`MemoryRequest` objects are
built only when something iterates the trace.

A trace also carries two memos of work that is a pure function of its
content: its :meth:`~Trace.content_digest`, and the batch replay
engine's seals of its writes (:meth:`~Trace.seal_memo`).  Both are reset
by :meth:`~Trace.append`/:meth:`~Trace.extend`; the seal memo stays out
of equality, the content digest and pickles.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional

from repro.config import BLOCK_SIZE
from repro.controller.access import MemoryRequest, Op
from repro.errors import TraceError

#: Flush threshold for chunked digest hashing — large enough that the
#: per-update overhead vanishes, small enough to keep the buffer cheap.
_DIGEST_CHUNK = 1 << 20


class Trace:
    """An ordered memory-access stream."""

    __slots__ = (
        "name", "addresses", "is_write", "gaps", "data", "_digest_memo",
        "_seal_memo",
    )

    def __init__(
        self, name: str, requests: Optional[Iterable[MemoryRequest]] = None
    ) -> None:
        self.name = name
        self.addresses: List[int] = []
        self.is_write: List[bool] = []
        self.gaps: List[float] = []
        self.data: List[Optional[bytes]] = []
        self._digest_memo: Optional[str] = None
        self._seal_memo: Optional[Dict[Hashable, Any]] = None
        if requests is not None:
            self.extend(requests)

    def iter_range(self, start: int, stop: int) -> Iterator[MemoryRequest]:
        """Yield requests ``[start, stop)`` (clipped like a list slice)."""
        addresses = self.addresses
        writes = self.is_write
        gaps = self.gaps
        data = self.data
        for index in range(*slice(start, stop).indices(len(addresses))):
            yield MemoryRequest(
                Op.WRITE if writes[index] else Op.READ,
                addresses[index],
                data[index],
                gaps[index],
            )

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[MemoryRequest]:
        return self.iter_range(0, len(self))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Trace)
            and other.name == self.name
            and other.addresses == self.addresses
            and other.is_write == self.is_write
            and other.gaps == self.gaps
            and other.data == self.data
        )

    def append(self, request: MemoryRequest) -> None:
        """Add one request to the end of the trace."""
        self._digest_memo = None
        self._seal_memo = None
        self.addresses.append(request.address)
        self.is_write.append(request.op is Op.WRITE)
        self.gaps.append(request.gap_ns)
        self.data.append(request.data)

    def extend(self, requests: Iterable[MemoryRequest]) -> None:
        """Add many requests to the end of the trace."""
        for request in requests:
            self.append(request)

    def __getstate__(self):
        # The seal memo is a per-process cache: pickles (``--jobs``
        # payloads) carry what a fresh trace's would.
        return None, {
            name: getattr(self, name)
            for name in self.__slots__
            if name != "_seal_memo"
        }

    def __setstate__(self, state) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self._seal_memo = None

    def seal_memo(self) -> Dict[Hashable, Any]:
        """The batch replay engine's memo of this trace's write seals.

        A write's seal is a pure function of the processor keys, its
        address and payload and the counter it is sealed under, so
        cells that replay one trace can share it.  The dict maps a (key
        set, tree family) to its entries, laid out by
        :mod:`repro.controller.batch`, which also checks each entry's
        counter before using it.  Created empty on first use and reset
        by :meth:`append`/:meth:`extend`.
        """
        memo = self._seal_memo
        if memo is None:
            memo = self._seal_memo = {}
        return memo

    def content_digest(self) -> str:
        """Full sha256 hex digest of this trace's content, memoized.

        The byte stream is frozen: ``name`` then, per request,
        ``|op:address:gap_ns:`` + data.  Changing it would silently
        orphan every result-store entry keyed on a trace.  The digest is
        computed once per instance (in chunked batches) and invalidated
        by :meth:`append`/:meth:`extend`.
        """
        memo = self._digest_memo
        if memo is None:
            digest = hashlib.sha256()
            digest.update(self.name.encode("utf-8"))
            buffer = bytearray()
            addresses = self.addresses
            writes = self.is_write
            gaps = self.gaps
            data = self.data
            for index in range(len(addresses)):
                op = "write" if writes[index] else "read"
                buffer += f"|{op}:{addresses[index]}:{gaps[index]!r}:".encode()
                blob = data[index]
                if blob:
                    buffer += blob
                if len(buffer) >= _DIGEST_CHUNK:
                    digest.update(buffer)
                    buffer.clear()
            if buffer:
                digest.update(buffer)
            memo = self._digest_memo = digest.hexdigest()
        return memo

    # ------------------------------------------------------------------
    # summary metrics
    # ------------------------------------------------------------------

    @property
    def num_reads(self) -> int:
        """Count of read requests."""
        return self.is_write.count(False)

    @property
    def num_writes(self) -> int:
        """Count of write requests."""
        return len(self) - self.num_reads

    @property
    def write_fraction(self) -> float:
        """Writes / total (0.0 for an empty trace)."""
        total = len(self)
        return self.num_writes / total if total else 0.0

    @property
    def footprint_bytes(self) -> int:
        """Bytes of distinct 64B lines touched."""
        return 64 * len(set(self.addresses))

    def validate(self, capacity_bytes: int) -> None:
        """Check every request against a memory of ``capacity_bytes``."""
        writes = self.is_write
        data = self.data
        for position, address in enumerate(self.addresses):
            if address % BLOCK_SIZE:
                raise TraceError(
                    f"request {position}: address {address:#x} "
                    f"not {BLOCK_SIZE}B-aligned"
                )
            if not 0 <= address < capacity_bytes:
                raise TraceError(
                    f"request {position}: address {address:#x} "
                    f"outside {capacity_bytes}-byte memory"
                )
            if writes[position] and len(data[position]) != BLOCK_SIZE:
                raise TraceError(
                    f"request {position}: write data is "
                    f"{len(data[position])} bytes, expected {BLOCK_SIZE}"
                )

    def __repr__(self) -> str:
        return (
            f"Trace({self.name}: {len(self)} requests, "
            f"{self.write_fraction:.0%} writes, "
            f"{self.footprint_bytes // 1024}KiB footprint)"
        )
