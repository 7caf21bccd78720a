"""Deterministic synthetic trace generation from a profile.

Given a :class:`~repro.traces.profiles.SyntheticProfile` and a seed, the
generator produces the same request stream every time, so experiments
can replay one stream across every scheme and tests can assert exact
counts.
"""

from __future__ import annotations

import random
import zlib
from typing import Optional

from repro.config import BLOCK_SIZE
from repro.errors import ConfigError
from repro.traces.profiles import SyntheticProfile
from repro.traces.trace import Trace


def _payload(rng: random.Random) -> bytes:
    """One 64B write payload of deterministic pseudo-random bytes."""
    return rng.getrandbits(BLOCK_SIZE * 8).to_bytes(BLOCK_SIZE, "little")


class _AddressSource:
    """Produces base addresses according to the profile's pattern."""

    def __init__(
        self, profile: SyntheticProfile, rng: random.Random, base: int
    ) -> None:
        self.profile = profile
        self.rng = rng
        self.base = base
        self.lines = profile.footprint_bytes // BLOCK_SIZE
        self.hot_lines = max(profile.hot_bytes // BLOCK_SIZE, 1)
        self.cursor = 0

    def next_base(self) -> int:
        """Next base line address for an access burst."""
        pattern = self.profile.pattern
        if pattern == "stream":
            line = self.cursor
            self.cursor = (self.cursor + self.profile.burst_length) % self.lines
        elif pattern == "random":
            line = self.rng.randrange(self.lines)
        else:  # hot_cold
            if self.rng.random() < self.profile.hot_fraction:
                line = self.rng.randrange(self.hot_lines)
            else:
                line = self.hot_lines + self.rng.randrange(
                    max(self.lines - self.hot_lines, 1)
                )
        return self.base + line * BLOCK_SIZE

    def clamp(self, address: int) -> int:
        """Wrap a burst address back into the footprint."""
        offset = (address - self.base) % (self.lines * BLOCK_SIZE)
        return self.base + offset


def generate_trace(
    profile: SyntheticProfile,
    length: int,
    seed: int = 0,
    region_base: int = 0,
    capacity_bytes: Optional[int] = None,
) -> Trace:
    """Generate ``length`` requests following ``profile``.

    ``region_base`` offsets the footprint within the data region (so
    multiple workloads can share a memory without aliasing).  The trace
    is validated against ``capacity_bytes`` when given.
    """
    if length <= 0:
        raise ConfigError("trace length must be positive")
    # crc32, not hash(): str hashing is randomized per process, and the
    # same (profile, seed) must yield the same trace across invocations.
    rng = random.Random(zlib.crc32(profile.name.encode("utf-8")) ^ seed)
    source = _AddressSource(profile, rng, region_base)

    # Generate straight into the trace's parallel lists — no per-access
    # objects.  The RNG call sequence below is frozen: it must match
    # what the old object-building loop performed, or every seeded trace
    # digest (and with it every result-store key) silently changes.
    trace = Trace(profile.name)
    addresses = trace.addresses
    is_write = trace.is_write
    gaps = trace.gaps
    payloads = trace.data
    count = 0

    while count < length:
        base = source.next_base()
        for line in range(profile.burst_length):
            if count >= length:
                break
            address = source.clamp(base + line * BLOCK_SIZE)
            gap = rng.expovariate(1.0 / profile.gap_mean_ns)
            if rng.random() < profile.write_fraction:
                # A write burst: rewrite_count back-to-back stores model
                # read-modify-write loops hammering one line.
                for _repeat in range(profile.rewrite_count):
                    if count >= length:
                        break
                    addresses.append(address)
                    is_write.append(True)
                    gaps.append(gap)
                    payloads.append(_payload(rng))
                    count += 1
                    gap = rng.expovariate(1.0 / profile.gap_mean_ns)
            else:
                addresses.append(address)
                is_write.append(False)
                gaps.append(gap)
                payloads.append(None)
                count += 1

    if capacity_bytes is not None:
        trace.validate(capacity_bytes)
    return trace
