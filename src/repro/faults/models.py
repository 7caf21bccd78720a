"""The fault catalogue: what can go wrong at (or around) a crash.

Every model is deterministic given the campaign's ``random.Random`` —
no global RNG, no wall clock — so a campaign seed fully reproduces
every injected fault.

A model participates in a trial at two points:

1. :meth:`FaultModel.plan_flush` — *before* the crash-time ADR flush,
   the model may weaken ADR (drop or tear the newest pending WPQ
   entries).  Most models leave the flush intact.
2. :meth:`FaultModel.inject` — *after* the flush, the model mutates the
   trial NVM image out-of-band (bit flips, stuck-at cells, rollback,
   tampering).  Most flush-weakening models do nothing here.

Both return enough bookkeeping (:class:`InjectedFault`) for the runner
to know which data lines the fault could have corrupted, so those lines
are always probed after recovery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import BLOCK_SIZE, SchemeKind, SystemConfig, TreeKind
from repro.mem.layout import MemoryLayout
from repro.mem.nvm import NvmDevice

#: Region keys a targeted fault can aim at.
REGIONS = ("data", "counter", "tree", "sct", "smt", "st")


@dataclass
class InjectionContext:
    """Everything a fault model may consult while injecting.

    ``nvm`` is the *trial* device (already ADR-flushed); ``oracle`` maps
    data addresses to their latest pre-crash plaintext.  ``record_nvm``
    and ``record_oracle``, when present, are a consistent image of the
    whole device taken at an earlier "record point" — the material a
    rollback (replay) attacker would have captured.
    """

    config: SystemConfig
    layout: MemoryLayout
    nvm: NvmDevice
    oracle: Dict[int, bytes]
    record_nvm: Optional[NvmDevice] = None
    record_oracle: Optional[Dict[int, bytes]] = None


@dataclass
class InjectedFault:
    """What one trial's fault actually did."""

    model: str
    description: str
    #: Data-region addresses whose plaintext the fault could have
    #: changed; the runner always probes these after recovery.
    affected_lines: Tuple[int, ...] = ()
    #: True when the sampled trial had nothing to corrupt (e.g. a torn
    #: write with an empty WPQ) and degenerated to a clean crash.
    degenerate: bool = False


#: When a fault model tampers, the runner needs to know *when* the
#: adversary acts relative to recovery.
WINDOW_AT_CRASH = "at_crash"
WINDOW_MID_RECOVERY = "mid_recovery"
WINDOWS = (WINDOW_AT_CRASH, WINDOW_MID_RECOVERY)


class FaultModel:
    """Base class: a named, deterministic fault generator."""

    name: str = "fault"
    #: True for *deliberate* tampering (an active adversary) as opposed
    #: to accidental corruption.  The campaign classifies a refused
    #: tamper trial as :attr:`Outcome.TAMPER_DETECTED` — fail-closed by
    #: design — instead of folding it into detection of accidents or,
    #: worse, recovery failure.
    tamper: bool = False
    #: When the mutation lands: ``"at_crash"`` (between power failure
    #: and reboot) or ``"mid_recovery"`` (recovery started, crashed
    #: after some device writes, and the adversary tampers before the
    #: recovery restart).
    window: str = WINDOW_AT_CRASH

    def applies_to(self, config: SystemConfig) -> bool:
        """Whether this fault is meaningful for the given system."""
        return True

    def plan_flush(
        self, rng: random.Random, pending: Sequence[Tuple[int, bytes, Optional[bytes]]]
    ) -> Tuple[int, int]:
        """``(drop_newest, tear_newest)`` for the crash-time ADR flush."""
        return (0, 0)

    def inject(self, rng: random.Random, ctx: InjectionContext) -> InjectedFault:
        """Mutate the trial NVM; return the bookkeeping record."""
        return InjectedFault(self.name, "no NVM mutation")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


def _regions_for(layout: MemoryLayout, region: str):
    """Map a region key to the concrete layout regions it covers."""
    if region == "data":
        return [layout.data]
    if region == "counter":
        return [layout.counter_region]
    if region == "tree":
        return layout.level_regions[1:]
    if region == "sct":
        return [layout.sct]
    if region == "smt":
        return [layout.smt]
    if region == "st":
        return [layout.st]
    raise ValueError(f"unknown fault region {region!r}; expected {REGIONS}")


def _written_blocks(nvm: NvmDevice, regions) -> List[int]:
    """Sorted written block addresses inside any of ``regions``."""
    return sorted(
        address
        for region in regions
        for address in nvm.written_in(region.base, region.num_blocks)
    )


def _shadow_region_ok(region: str, config: SystemConfig) -> bool:
    """Shadow regions only exist (are written) under the Anubis schemes."""
    if region in ("sct", "smt"):
        return config.scheme in (SchemeKind.AGIT_READ, SchemeKind.AGIT_PLUS)
    if region == "st":
        return config.scheme is SchemeKind.ASIT
    return True


class CleanCrashFault(FaultModel):
    """The baseline: a pure power failure with a faithful ADR flush."""

    name = "clean_crash"

    def inject(self, rng: random.Random, ctx: InjectionContext) -> InjectedFault:
        return InjectedFault(self.name, "power failure, no corruption")


class DroppedFlushFault(FaultModel):
    """Weak ADR: residual energy dies before the newest writes drain.

    The newest ``count`` WPQ entries silently never reach NVM — the
    platform *promised* they were persistent and lied.
    """

    def __init__(self, count: int = 1) -> None:
        if count < 1:
            raise ValueError("must drop at least one entry")
        self.count = count
        self.name = f"dropped_flush_x{count}"

    def plan_flush(self, rng, pending):
        return (min(self.count, len(pending)), 0)

    def inject(self, rng: random.Random, ctx: InjectionContext) -> InjectedFault:
        return InjectedFault(
            self.name,
            f"ADR dropped up to {self.count} newest WPQ entries",
            degenerate=False,
        )


class TornWriteFault(FaultModel):
    """Weak ADR: the last pending write is torn mid-block.

    The first 32 bytes of the newest entry reach NVM, the rest keeps its
    old content, and the sideband write is lost entirely.
    """

    name = "torn_write"

    def plan_flush(self, rng, pending):
        return (0, min(1, len(pending)))

    def inject(self, rng: random.Random, ctx: InjectionContext) -> InjectedFault:
        return InjectedFault(self.name, "newest WPQ entry torn at 32 bytes")


class BitFlipFault(FaultModel):
    """Soft error: flip ``bits`` stored bits of one block in ``region``.

    A single flip in the data region is the fault SECDED exists for and
    must be *corrected*; multiple flips land in one 64-bit word (beyond
    SECDED's correction radius) and must be *detected*.  Flips in
    metadata or shadow regions must never produce a silently wrong read.
    """

    def __init__(self, region: str, bits: int = 1) -> None:
        if region not in REGIONS:
            raise ValueError(f"unknown region {region!r}")
        if bits < 1:
            raise ValueError("need at least one bit to flip")
        self.region = region
        self.bits = bits
        prefix = "bit_flip" if bits == 1 else f"bit_flip_x{bits}"
        self.name = f"{prefix}_{region}"

    def applies_to(self, config: SystemConfig) -> bool:
        if self.region == "tree" and config.tree is TreeKind.SGX:
            # SGX version blocks live in level_regions too; still fine.
            return True
        return _shadow_region_ok(self.region, config)

    def inject(self, rng: random.Random, ctx: InjectionContext) -> InjectedFault:
        candidates = _written_blocks(ctx.nvm, _regions_for(ctx.layout, self.region))
        if not candidates:
            return InjectedFault(
                self.name, f"no written {self.region} block to flip", degenerate=True
            )
        address = candidates[rng.randrange(len(candidates))]
        if self.bits == 1:
            bits = [rng.randrange(BLOCK_SIZE * 8)]
        else:
            # Confine a multi-bit upset to one 64-bit word so it is
            # guaranteed to exceed SECDED's single-error correction.
            word = rng.randrange(BLOCK_SIZE // 8)
            bits = sorted(rng.sample(range(64), min(self.bits, 64)))
            bits = [word * 64 + bit for bit in bits]
        ctx.nvm.inject_bit_flips(address, bits)
        affected = (address,) if self.region == "data" else ()
        return InjectedFault(
            self.name,
            f"flipped bits {bits} of {self.region} block {address:#x}",
            affected_lines=affected,
        )


class StuckAtFault(FaultModel):
    """A worn-out cell reads as a constant no matter what was stored."""

    def __init__(self, region: str = "data") -> None:
        if region not in REGIONS:
            raise ValueError(f"unknown region {region!r}")
        self.region = region
        self.name = f"stuck_at_{region}"

    def applies_to(self, config: SystemConfig) -> bool:
        return _shadow_region_ok(self.region, config)

    def inject(self, rng: random.Random, ctx: InjectionContext) -> InjectedFault:
        candidates = _written_blocks(ctx.nvm, _regions_for(ctx.layout, self.region))
        if not candidates:
            return InjectedFault(
                self.name, f"no written {self.region} block", degenerate=True
            )
        address = candidates[rng.randrange(len(candidates))]
        bit = rng.randrange(BLOCK_SIZE * 8)
        value = rng.randrange(2)
        changed = ctx.nvm.inject_stuck_at(address, bit, value)
        affected = (address,) if self.region == "data" and changed else ()
        return InjectedFault(
            self.name,
            f"bit {bit} of {self.region} block {address:#x} stuck at {value}"
            + ("" if changed else " (already there)"),
            affected_lines=affected,
            degenerate=not changed,
        )


class RollbackFault(FaultModel):
    """Replay attack: plant a recorded (data, sideband, counter) triple.

    The attacker snapshotted a consistent image at the record point and,
    at the crash, rewinds one since-rewritten line *and its counter
    block* to the recorded values.  All three pieces are mutually
    consistent — exactly the attack §2.5/Osiris describes.  Schemes
    with an on-chip root (or ASIT's verified Shadow Table) must detect
    the stale counter; the selective/write-back restore path, which
    *adopts* whatever root memory implies, serves the stale data with
    every check passing.
    """

    name = "rollback"
    tamper = True

    def inject(self, rng: random.Random, ctx: InjectionContext) -> InjectedFault:
        if ctx.record_nvm is None or ctx.record_oracle is None:
            return InjectedFault(self.name, "no record image", degenerate=True)
        candidates = sorted(
            address
            for address, plaintext in ctx.oracle.items()
            if ctx.record_oracle.get(address) not in (None, plaintext)
            and ctx.record_nvm.is_written(address)
            and ctx.nvm.is_written(address)
        )
        if not candidates:
            return InjectedFault(
                self.name, "no line rewritten since the record point",
                degenerate=True,
            )
        address = candidates[rng.randrange(len(candidates))]
        ctx.nvm.poke(address, ctx.record_nvm.peek(address))
        ctx.nvm.write_ecc(address, ctx.record_nvm.read_ecc(address))
        counter_address = ctx.layout.counter_block_for(address)
        if ctx.record_nvm.is_written(counter_address):
            ctx.nvm.poke(counter_address, ctx.record_nvm.peek(counter_address))
        return InjectedFault(
            self.name,
            f"rolled line {address:#x} and counter block "
            f"{counter_address:#x} back to the record point",
            affected_lines=(address,),
        )


class ShadowTamperFault(FaultModel):
    """Deliberate corruption of a shadow table (SCT/SMT/ST).

    ``mode='random'`` overwrites one written shadow block with garbage;
    ``mode='redirect'`` (AGIT tables only) rewrites one tracked address
    to a different — valid — block of the same region, the subtler lie.
    Either way the tables no longer describe the lost cache content, and
    recovery must refuse rather than reconstruct a wrong state.
    """

    tamper = True

    def __init__(self, table: str, mode: str = "random") -> None:
        if table not in ("sct", "smt", "st"):
            raise ValueError(f"not a shadow table: {table!r}")
        if mode not in ("random", "redirect"):
            raise ValueError(f"unknown tamper mode {mode!r}")
        if mode == "redirect" and table == "st":
            raise ValueError("redirect mode applies to SCT/SMT only")
        self.table = table
        self.mode = mode
        self.name = f"tamper_{table}" + ("_redirect" if mode == "redirect" else "")

    def applies_to(self, config: SystemConfig) -> bool:
        return _shadow_region_ok(self.table, config)

    def inject(self, rng: random.Random, ctx: InjectionContext) -> InjectedFault:
        candidates = _written_blocks(ctx.nvm, _regions_for(ctx.layout, self.table))
        if not candidates:
            return InjectedFault(
                self.name, f"{self.table} never written", degenerate=True
            )
        address = candidates[rng.randrange(len(candidates))]
        if self.mode == "random":
            garbage = rng.getrandbits(BLOCK_SIZE * 8).to_bytes(BLOCK_SIZE, "little")
            ctx.nvm.poke(address, garbage)
            return InjectedFault(
                self.name, f"overwrote {self.table} block {address:#x} with garbage"
            )
        # redirect: point one tracked entry at a different valid block
        raw = bytearray(ctx.nvm.peek(address))
        slots = [
            slot
            for slot in range(BLOCK_SIZE // 8)
            if int.from_bytes(raw[slot * 8 : slot * 8 + 8], "little")
        ]
        if not slots:
            return InjectedFault(
                self.name, f"{self.table} block {address:#x} tracks nothing",
                degenerate=True,
            )
        slot = slots[rng.randrange(len(slots))]
        target_region = (
            ctx.layout.counter_region
            if self.table == "sct"
            else ctx.layout.level_regions[1]
        )
        current = int.from_bytes(raw[slot * 8 : slot * 8 + 8], "little")
        choices = [
            target_region.block_address(index)
            for index in range(min(target_region.num_blocks, 64))
        ]
        choices = [c for c in choices if c != current] or choices
        redirected = choices[rng.randrange(len(choices))]
        raw[slot * 8 : slot * 8 + 8] = redirected.to_bytes(8, "little")
        ctx.nvm.poke(address, bytes(raw))
        return InjectedFault(
            self.name,
            f"redirected {self.table} entry {current:#x} -> {redirected:#x}",
        )


def default_catalogue(config: SystemConfig) -> List[FaultModel]:
    """The standard campaign catalogue, filtered to ``config``."""
    models: List[FaultModel] = [
        CleanCrashFault(),
        DroppedFlushFault(1),
        DroppedFlushFault(4),
        TornWriteFault(),
        BitFlipFault("data", 1),
        BitFlipFault("data", 3),
        BitFlipFault("counter", 1),
        BitFlipFault("tree", 1),
        BitFlipFault("sct", 1),
        BitFlipFault("smt", 1),
        BitFlipFault("st", 1),
        StuckAtFault("data"),
        StuckAtFault("counter"),
        RollbackFault(),
        ShadowTamperFault("sct"),
        ShadowTamperFault("sct", mode="redirect"),
        ShadowTamperFault("smt"),
        ShadowTamperFault("st"),
    ]
    return [model for model in models if model.applies_to(config)]
