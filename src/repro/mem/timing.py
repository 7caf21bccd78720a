"""Single-channel memory timing model.

The paper's overhead numbers come from *extra memory traffic* competing
with demand traffic for the PCM channel.  We model that directly: one
channel services read and write events in order; reads stall the core
until they complete, writes are posted (the core continues) but occupy
the channel, delaying subsequent events.  This is the standard simple
contention model and reproduces why strict persistence (~10+ writes per
store) devastates performance while Anubis's one extra write per store
barely registers.

Bank-level parallelism and write buffering are folded into a configurable
``write_overlap`` factor: that fraction of a posted write's occupancy is
hidden (§2.7 notes WPQ entries drain concurrently across banks).
"""

from __future__ import annotations

from repro.config import TimingConfig
from repro.util.stats import Histogram


class MemoryChannel:
    """Accounts time for a stream of read/write events.

    The channel keeps two clocks: ``now`` (core time, advanced by the
    caller with compute gaps and read stalls) and ``busy_until`` (when
    the channel finishes its queued work).  ``reads``/``writes`` count
    the events and ``read_stall`` records each read's stall; the owning
    controller reports them as ``channel_reads``, ``channel_writes``
    and ``read_stall_ns``.
    """

    def __init__(self, timing: TimingConfig) -> None:
        self.timing = timing
        self.now = 0.0
        self.busy_until = 0.0
        self.reads = 0
        self.writes = 0
        self.read_stall = Histogram()

    def advance(self, gap_ns: float) -> None:
        """Advance core time by a compute gap between memory accesses."""
        self.now += gap_ns

    def read(self) -> float:
        """Issue one demand read; returns its stall.

        The core blocks until the data returns, so the channel's backlog
        is exposed directly as stall time.
        """
        done = max(self.now, self.busy_until) + self.timing.nvm_read_ns
        self.busy_until = done
        stall = done - self.now
        self.now = done
        self.reads += 1
        self.read_stall.observe(stall)
        return stall

    def write(self) -> None:
        """Issue one posted write.

        It occupies the channel for the non-overlapped fraction of the
        write latency but returns immediately to the core.
        """
        self.writes += 1
        occupancy = self.timing.nvm_write_ns * (
            1.0 - self.timing.background_write_overlap
        )
        self.busy_until = max(self.busy_until, self.now) + occupancy

    def hash_latency(self) -> None:
        """Account one on-chip hash computation (stalls the core: it is
        on the verification critical path)."""
        self.now += self.timing.hash_ns

    def reset(self) -> None:
        """Zero the clocks (event counts are kept)."""
        self.now = 0.0
        self.busy_until = 0.0

    @property
    def elapsed_ns(self) -> float:
        """Total core time elapsed, including the channel's tail backlog."""
        return max(self.now, self.busy_until)
