"""Trace container, columnar backing, and summary statistics.

A trace is an ordered stream of post-LLC :class:`MemoryRequest` records
plus the name of the workload that produced it.  Traces are value
objects: generators build them, the engine replays them, experiments
reuse one trace across every scheme so comparisons see identical access
streams.

Two representations back a trace and convert lazily in both directions:

* **Request objects** — a list of :class:`MemoryRequest`, the interface
  the scalar controller path consumes.
* **Columns** — a :class:`TraceColumns` of parallel numpy arrays
  (address/op/gap) plus a payload list, the interface the batched
  replay engine consumes.  ``to_columns()`` is memoized alongside
  ``content_digest()``; a trace synthesized columnar materializes its
  request objects only if a scalar consumer actually iterates it.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, List, Optional, Sequence

from repro.controller.access import MemoryRequest, Op
from repro.errors import TraceError

_NUMPY_UNSET = object()
_numpy_module = _NUMPY_UNSET


def numpy_or_none():
    """The numpy module, or None when unavailable (checked once)."""
    global _numpy_module
    if _numpy_module is _NUMPY_UNSET:
        try:
            import numpy
        except ImportError:  # pragma: no cover - numpy ships in the env
            numpy = None
        _numpy_module = numpy
    return _numpy_module


#: Flush threshold for chunked digest hashing; must match the scalar
#: hasher in :mod:`repro.sim.checkpoint` (same frozen byte stream).
_DIGEST_CHUNK = 1 << 20


class TraceColumns:
    """Columnar view of a trace: parallel arrays over its requests.

    ``addresses`` (int64), ``is_write`` (bool), and ``gaps`` (float64)
    are numpy arrays of one entry per request; ``data`` is a plain list
    holding each write's 64B payload (None for reads — payloads stay
    Python ``bytes`` because the controllers consume them as such).
    """

    __slots__ = ("length", "addresses", "is_write", "gaps", "data")

    def __init__(self, addresses, is_write, gaps, data: List[Optional[bytes]]):
        self.length = len(data)
        self.addresses = addresses
        self.is_write = is_write
        self.gaps = gaps
        self.data = data

    @classmethod
    def from_lists(
        cls,
        addresses: Sequence[int],
        is_write: Sequence[bool],
        gaps: Sequence[float],
        data: List[Optional[bytes]],
    ) -> Optional["TraceColumns"]:
        """Build columns from parallel Python lists (None sans numpy)."""
        np = numpy_or_none()
        if np is None:
            return None
        return cls(
            np.asarray(addresses, dtype=np.int64),
            np.asarray(is_write, dtype=bool),
            np.asarray(gaps, dtype=np.float64),
            data,
        )

    @classmethod
    def from_requests(
        cls, requests: Sequence[MemoryRequest]
    ) -> Optional["TraceColumns"]:
        """Build columns from request objects (None sans numpy)."""
        np = numpy_or_none()
        if np is None:
            return None
        count = len(requests)
        addresses = np.fromiter(
            (request.address for request in requests), np.int64, count=count
        )
        is_write = np.fromiter(
            (request.op is Op.WRITE for request in requests), bool, count=count
        )
        gaps = np.fromiter(
            (request.gap_ns for request in requests), np.float64, count=count
        )
        return cls(addresses, is_write, gaps, [r.data for r in requests])

    # ------------------------------------------------------------------
    # conversion back to request objects
    # ------------------------------------------------------------------

    def materialize(self) -> List[MemoryRequest]:
        """Build the full request-object list (the scalar interface)."""
        return list(self.iter_requests(0, self.length))

    def iter_requests(self, start: int, stop: int) -> Iterator[MemoryRequest]:
        """Yield request objects for ``[start, stop)`` without building
        the whole list — scalar replay uses this."""
        addresses = self.addresses[start:stop].tolist()
        writes = self.is_write[start:stop].tolist()
        gaps = self.gaps[start:stop].tolist()
        data = self.data
        for offset in range(stop - start):
            if writes[offset]:
                yield MemoryRequest(
                    op=Op.WRITE,
                    address=addresses[offset],
                    data=data[start + offset],
                    gap_ns=gaps[offset],
                )
            else:
                yield MemoryRequest(
                    op=Op.READ,
                    address=addresses[offset],
                    gap_ns=gaps[offset],
                )

    # ------------------------------------------------------------------
    # digest + validation (column-native, identical to the scalar forms)
    # ------------------------------------------------------------------

    def content_digest(self, name: str) -> str:
        """sha256 digest of the trace stream, bit-identical to
        :func:`repro.sim.checkpoint._hash_trace_stream` over the
        materialized requests (the byte format is frozen — changing it
        would orphan every result-store entry keyed on a trace)."""
        digest = hashlib.sha256()
        digest.update(name.encode("utf-8"))
        buffer = bytearray()
        addresses = self.addresses.tolist()
        writes = self.is_write.tolist()
        gaps = self.gaps.tolist()
        data = self.data
        for index in range(self.length):
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
        return digest.hexdigest()

    def validate(self, capacity_bytes: int, block_size: int) -> None:
        """Vectorized geometry check, raising the same error (message
        and position) the per-request scalar walk would raise."""
        np = numpy_or_none()
        addresses = self.addresses
        align_bad = addresses % block_size != 0
        range_bad = (addresses < 0) | (addresses >= capacity_bytes)
        sizes = np.fromiter(
            (
                len(blob) if blob is not None else block_size
                for blob in self.data
            ),
            np.int64,
            count=self.length,
        )
        size_bad = self.is_write & (sizes != block_size)
        bad = align_bad | range_bad | size_bad
        if not bad.any():
            return
        position = int(bad.argmax())
        address = int(addresses[position])
        if align_bad[position]:
            raise TraceError(
                f"request {position}: address {address:#x} "
                f"not {block_size}B-aligned"
            )
        if range_bad[position]:
            raise TraceError(
                f"request {position}: address {address:#x} "
                f"outside {capacity_bytes}-byte memory"
            )
        raise TraceError(
            f"request {position}: write data is "
            f"{int(sizes[position])} bytes, expected {block_size}"
        )


class Trace:
    """An ordered memory-access stream."""

    __slots__ = ("name", "_requests", "_digest_memo", "_columns_memo")

    def __init__(
        self, name: str, requests: Optional[List[MemoryRequest]] = None
    ) -> None:
        self.name = name
        self._requests: Optional[List[MemoryRequest]] = (
            [] if requests is None else requests
        )
        self._digest_memo: Optional[str] = None
        self._columns_memo: Optional[TraceColumns] = None

    @classmethod
    def from_columns(cls, name: str, columns: TraceColumns) -> "Trace":
        """Wrap a columnar stream; requests materialize only on demand."""
        trace = cls(name)
        trace._requests = None
        trace._columns_memo = columns
        return trace

    # ------------------------------------------------------------------
    # representations
    # ------------------------------------------------------------------

    @property
    def requests(self) -> List[MemoryRequest]:
        """The request-object list (materialized from columns if needed)."""
        if self._requests is None:
            self._requests = self._columns_memo.materialize()
        return self._requests

    def to_columns(self) -> Optional[TraceColumns]:
        """Columnar view of this trace, memoized; None without numpy.

        Requests are treated as immutable (as everywhere else in the
        harness), so the arrays stay valid until :meth:`append`/
        :meth:`extend` invalidate the memo.
        """
        columns = self._columns_memo
        if columns is None:
            try:
                columns = TraceColumns.from_requests(self._requests)
            except OverflowError:
                # Addresses beyond int64 can't be columnized; scalar
                # replay (and validate) still handle them.
                return None
            self._columns_memo = columns
        return columns

    def iter_range(self, start: int, stop: int) -> Iterator[MemoryRequest]:
        """Yield requests ``[start, stop)``, avoiding full
        materialization for column-backed traces."""
        if self._requests is not None:
            return iter(self._requests[start:stop])
        return self._columns_memo.iter_requests(start, stop)

    def __len__(self) -> int:
        if self._requests is not None:
            return len(self._requests)
        return self._columns_memo.length

    def __iter__(self) -> Iterator[MemoryRequest]:
        return iter(self.requests)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Trace)
            and other.name == self.name
            and other.requests == self.requests
        )

    def append(self, request: MemoryRequest) -> None:
        """Add one request to the end of the trace."""
        requests = self.requests
        self._digest_memo = None
        self._columns_memo = None
        requests.append(request)

    def extend(self, requests: Sequence[MemoryRequest]) -> None:
        """Add many requests to the end of the trace."""
        existing = self.requests
        self._digest_memo = None
        self._columns_memo = None
        existing.extend(requests)

    def content_digest(self) -> str:
        """Full sha256 hex digest of this trace's content, memoized.

        Hashing a million-access trace request-by-request is what used
        to dominate cache lookups, so the digest is computed once per
        instance (in chunked batches) and invalidated by
        :meth:`append`/:meth:`extend`.  Column-backed traces hash
        straight from the arrays — same frozen byte stream, no object
        materialization.
        """
        memo = self._digest_memo
        if memo is None:
            if self._requests is None:
                memo = self._columns_memo.content_digest(self.name)
            else:
                from repro.sim.checkpoint import _hash_trace_stream

                memo = _hash_trace_stream(self)
            self._digest_memo = memo
        return memo

    # ------------------------------------------------------------------
    # summary metrics
    # ------------------------------------------------------------------

    @property
    def num_reads(self) -> int:
        """Count of read requests."""
        if self._requests is None:
            columns = self._columns_memo
            return int(columns.length - columns.is_write.sum())
        return sum(1 for request in self._requests if request.op == Op.READ)

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
        if self._requests is None:
            np = numpy_or_none()
            return 64 * int(np.unique(self._columns_memo.addresses).size)
        return 64 * len({request.address for request in self._requests})

    def validate(self, capacity_bytes: int, block_size: int = 64) -> None:
        """Check every request against a memory geometry."""
        if self._requests is None:
            self._columns_memo.validate(capacity_bytes, block_size)
            return
        for position, request in enumerate(self._requests):
            if request.address % block_size:
                raise TraceError(
                    f"request {position}: address {request.address:#x} "
                    f"not {block_size}B-aligned"
                )
            if not 0 <= request.address < capacity_bytes:
                raise TraceError(
                    f"request {position}: address {request.address:#x} "
                    f"outside {capacity_bytes}-byte memory"
                )
            if request.is_write and len(request.data) != block_size:
                raise TraceError(
                    f"request {position}: write data is "
                    f"{len(request.data)} bytes, expected {block_size}"
                )

    def __repr__(self) -> str:
        return (
            f"Trace({self.name}: {len(self)} requests, "
            f"{self.write_fraction:.0%} writes, "
            f"{self.footprint_bytes // 1024}KiB footprint)"
        )
