"""System configuration for the Anubis reproduction.

The dataclasses here describe everything the simulator needs to build a
secure-NVM system: memory geometry, metadata cache shapes, PCM timing,
the encryption/integrity scheme, and which persistence scheme the memory
controller runs.  :func:`default_table1_config` reproduces Table 1 of the
paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigError
from repro.util.bitops import is_power_of_two

#: Cache-line / memory-block granularity used throughout (bytes).
BLOCK_SIZE = 64

#: Page granularity for the split-counter scheme (bytes).
PAGE_SIZE = 4096

#: Arity of every integrity tree in the paper (8 children per node).
TREE_ARITY = 8

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB


class SchemeKind(enum.Enum):
    """Persistence scheme run by the secure memory controller.

    Mirrors the five AGIT-evaluation schemes (Fig. 10) and the four
    ASIT-evaluation schemes (Fig. 11) of the paper.
    """

    WRITE_BACK = "write_back"
    STRICT_PERSISTENCE = "strict_persistence"
    OSIRIS = "osiris"
    #: Selective counter atomicity (HPCA'18 [8]): counters persisted
    #: only for a programmer-declared persistent region.  Implemented
    #: as the paper's security foil — see
    #: :mod:`repro.recovery.selective` for the replay attack it admits.
    SELECTIVE = "selective"
    AGIT_READ = "agit_read"
    AGIT_PLUS = "agit_plus"
    ASIT = "asit"

    @property
    def is_recoverable_general(self) -> bool:
        """True if the scheme can recover a general (Bonsai) tree.

        SELECTIVE is deliberately absent: it *restores service* after a
        crash but cannot recover a verified state — stale non-persistent
        counters admit replay attacks (§7, and Osiris's critique of [8]).
        """
        return self in (
            SchemeKind.STRICT_PERSISTENCE,
            SchemeKind.OSIRIS,
            SchemeKind.AGIT_READ,
            SchemeKind.AGIT_PLUS,
        )

    @property
    def is_recoverable_sgx(self) -> bool:
        """True if the scheme can recover an SGX-style tree (§6.2)."""
        return self in (SchemeKind.STRICT_PERSISTENCE, SchemeKind.ASIT)


class TreeKind(enum.Enum):
    """Integrity-tree family (§2.3)."""

    BONSAI = "bonsai"  # general, non-parallelizable hash tree
    SGX = "sgx"        # parallelizable nonce+MAC tree


@dataclass(frozen=True)
class MemoryConfig:
    """Size of the NVM main memory (64B lines, 4KB pages: §2.2)."""

    capacity_bytes: int = 16 * GIB

    def __post_init__(self) -> None:
        if self.capacity_bytes % PAGE_SIZE:
            raise ConfigError("capacity must be a whole number of pages")

    @property
    def num_blocks(self) -> int:
        """Number of data cache lines the memory holds."""
        return self.capacity_bytes // BLOCK_SIZE

    @property
    def num_pages(self) -> int:
        """Number of 4KB pages the memory holds."""
        return self.capacity_bytes // PAGE_SIZE

    @property
    def blocks_per_page(self) -> int:
        """Cache lines per page (64)."""
        return PAGE_SIZE // BLOCK_SIZE


@dataclass(frozen=True)
class CacheConfig:
    """Shape of an on-chip metadata cache of 64B blocks."""

    size_bytes: int
    ways: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0:
            raise ConfigError("cache size and associativity must be positive")
        if self.size_bytes % (self.ways * BLOCK_SIZE):
            raise ConfigError(
                f"cache of {self.size_bytes}B cannot be split into "
                f"{self.ways}-way sets of {BLOCK_SIZE}B blocks"
            )
        if not is_power_of_two(self.num_sets):
            raise ConfigError(
                f"number of sets must be a power of two, got {self.num_sets}"
            )

    @property
    def num_blocks(self) -> int:
        """Total block slots in the cache."""
        return self.size_bytes // BLOCK_SIZE

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.num_blocks // self.ways


@dataclass(frozen=True)
class TimingConfig:
    """Event costs in nanoseconds.

    PCM latencies follow Table 1 (read 60ns, write 150ns).  ``hash_ns``
    models the on-chip hash engine exercised on tree updates/verifications
    during normal operation.  Recovery is priced apart, at footnote 1's
    100ns per step (:data:`repro.core.recovery_time.STEP_NS`).
    """

    nvm_read_ns: float = 60.0
    nvm_write_ns: float = 150.0
    hash_ns: float = 40.0
    #: Fraction of a posted write's cost hidden by write buffering /
    #: bank-level parallelism.  Calibrated so the Fig. 10/11 baseline
    #: scheme overheads land near the paper's magnitudes (see
    #: EXPERIMENTS.md).
    background_write_overlap: float = 0.6


class CounterRecoveryKind(enum.Enum):
    """How lost encryption counters are recovered (§2.4).

    * ``OSIRIS`` — trial decryption against the encrypted ECC sanity
      check, up to ``stop_loss_limit`` candidates per counter.
    * ``PHASE`` — the paper's bus-extension alternative: the low
      ``log2(stop_loss_limit)`` counter bits ride each data write in
      the clear (counters need integrity, not confidentiality, §1), so
      recovery reads the exact counter in one step instead of trialing.
    """

    OSIRIS = "osiris"
    PHASE = "phase"


@dataclass(frozen=True)
class EncryptionConfig:
    """Counter recovery parameters (§2.4).

    The counter widths are fixed by the block formats: 64-bit majors and
    7-bit minors in a split-counter block, 56-bit SGX counters (§2.2).
    """

    stop_loss_limit: int = 4  # Osiris stop-loss N (§5: limit 4)
    counter_recovery: CounterRecoveryKind = CounterRecoveryKind.OSIRIS

    def __post_init__(self) -> None:
        if self.stop_loss_limit < 1:
            raise ConfigError("stop-loss limit must be >= 1")
        if self.counter_recovery == CounterRecoveryKind.PHASE:
            if not is_power_of_two(self.stop_loss_limit):
                raise ConfigError(
                    "phase recovery needs a power-of-two stop-loss limit "
                    "(the phase field holds log2(limit) counter bits)"
                )

    @property
    def phase_bits(self) -> int:
        """Width of the clear phase field (log2 of the stop-loss)."""
        return max(self.stop_loss_limit - 1, 0).bit_length()


@dataclass(frozen=True)
class AnubisConfig:
    """Anubis-specific parameters (§4)."""

    #: Bits of counter LSBs stored per counter in an ASIT shadow entry.
    asit_lsb_bits: int = 49


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated secure-NVM system."""

    scheme: SchemeKind = SchemeKind.WRITE_BACK
    tree: TreeKind = TreeKind.BONSAI
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    counter_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=256 * KIB, ways=8)
    )
    merkle_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=256 * KIB, ways=16)
    )
    timing: TimingConfig = field(default_factory=TimingConfig)
    encryption: EncryptionConfig = field(default_factory=EncryptionConfig)
    anubis: AnubisConfig = field(default_factory=AnubisConfig)
    #: Entries in the write pending queue (ADR persistent domain).
    wpq_entries: int = 32
    #: SELECTIVE scheme only: fraction of the data region (from address
    #: zero) whose counters receive atomic persistence ([8]'s
    #: programmer-declared persistent data).
    selective_persistent_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.scheme == SchemeKind.ASIT and self.tree != TreeKind.SGX:
            raise ConfigError("ASIT only applies to SGX-style trees")
        if self.scheme in (SchemeKind.AGIT_READ, SchemeKind.AGIT_PLUS):
            if self.tree != TreeKind.BONSAI:
                raise ConfigError("AGIT only applies to general (Bonsai) trees")
        if self.wpq_entries < 4:
            raise ConfigError("WPQ must have at least 4 entries")
        if self.scheme == SchemeKind.SELECTIVE and self.tree != TreeKind.BONSAI:
            raise ConfigError("SELECTIVE is defined for general trees only")
        if not 0.0 <= self.selective_persistent_fraction <= 1.0:
            raise ConfigError("persistent fraction must be in [0, 1]")

    @property
    def metadata_cache_bytes(self) -> int:
        """Combined metadata cache capacity (counter + tree caches)."""
        return self.counter_cache.size_bytes + self.merkle_cache.size_bytes

    def with_scheme(self, scheme: SchemeKind) -> "SystemConfig":
        """Copy of this config running a different persistence scheme."""
        return replace(self, scheme=scheme)

    def with_cache_size(self, size_bytes: int) -> "SystemConfig":
        """Copy with both metadata caches resized to ``size_bytes`` each."""
        return replace(
            self,
            counter_cache=replace(self.counter_cache, size_bytes=size_bytes),
            merkle_cache=replace(self.merkle_cache, size_bytes=size_bytes),
        )


def default_table1_config(
    scheme: SchemeKind = SchemeKind.WRITE_BACK,
    tree: TreeKind = TreeKind.BONSAI,
    capacity_bytes: Optional[int] = None,
) -> SystemConfig:
    """The configuration of Table 1 of the paper.

    16GB PCM (read 60ns / write 150ns), 256KB 8-way counter cache, 256KB
    16-way Merkle-tree cache, 64B blocks.  For SGX-style systems the two
    caches are treated as one combined 512KB metadata cache by the
    controller, matching the "ST in ASIT: 512KB" row.
    """
    memory = MemoryConfig(capacity_bytes=capacity_bytes or 16 * GIB)
    return SystemConfig(scheme=scheme, tree=tree, memory=memory)
