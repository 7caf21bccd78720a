"""The attack catalogue: what an *active* adversary does at a crash.

Where :mod:`repro.faults.models` injects accidents (bit flips, weak
ADR), every model here is a deliberate adversary with full read/write
access to the persistent domain while power is off — the Anubis threat
model (§3): NVM contents can be recorded, replayed, and spliced, but
the on-chip state (root register, keys, WPQ) cannot be touched.

Every attack is a :class:`~repro.faults.models.FaultModel` with
``tamper = True``, so the campaign runner, result store, parallelism and
probe machinery are shared with the accidental-fault campaigns.  Each
carries a stable ``attack_class`` key — the row of the security-claims
oracle (:mod:`repro.attacks.oracle`) — and a ``window``:

* ``at_crash`` — tamper between the power failure and the first boot;
* ``mid_recovery`` — let recovery start, crash it after a few device
  writes, tamper while the machine is dark, then let recovery restart
  (:class:`CrashWindowAttack` wraps any base attack this way).

All randomness comes from the per-trial RNG the runner passes in, so
attack campaigns are byte-identical across ``--jobs`` counts.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.config import BLOCK_SIZE, SchemeKind, SystemConfig
from repro.faults.campaign import has_recovery_engine
from repro.faults.models import (
    WINDOW_AT_CRASH,
    WINDOW_MID_RECOVERY,
    FaultModel,
    InjectedFault,
    InjectionContext,
    _shadow_region_ok,
    _written_blocks,
)
from repro.mem.layout import MemoryLayout
from repro.mem.nvm import NvmDevice


class AttackModel(FaultModel):
    """Base class for deliberate adversaries.

    ``attack_class`` is the stable catalogue key the oracle declares
    claims for; ``summary`` is the one-line description ``repro attack
    --list`` prints.
    """

    tamper = True
    attack_class: str = "attack"
    summary: str = ""

    def describe(self) -> str:
        return self.summary or self.__doc__.strip().splitlines()[0]


def _changed_data_lines(ctx: InjectionContext) -> List[int]:
    """Oracle lines whose *stored ciphertext* changed since the record
    point — the material a replay adversary can roll back."""
    if ctx.record_nvm is None:
        return []
    return sorted(
        address
        for address in ctx.oracle
        if ctx.nvm.is_written(address)
        and ctx.record_nvm.is_written(address)
        and ctx.nvm.peek(address) != ctx.record_nvm.peek(address)
    )


def _covered_lines(
    layout: MemoryLayout,
    counter_first: int,
    counter_count: int,
    oracle,
    cap: int = 8,
) -> Tuple[int, ...]:
    """Up to ``cap`` oracle lines covered by a counter-block index range."""
    lpcb = layout.lines_per_counter_block
    low = counter_first * lpcb * BLOCK_SIZE
    high = (counter_first + counter_count) * lpcb * BLOCK_SIZE
    covered = [a for a in sorted(oracle) if low <= a < high]
    return tuple(covered[:cap])


class CounterReplayAttack(AttackModel):
    """Roll one counter block back to a recorded earlier value.

    The data stays current, so any line whose counter slot actually
    rolled back decrypts to garbage — a freshness violation the ECC/MAC
    or tree walk must catch.  (If no covered slot changed, the replay
    is a no-op and correct recovery is acceptable.)
    """

    name = "counter_replay"
    attack_class = "counter_replay"
    summary = "replay a recorded counter block under current data"

    def inject(self, rng: random.Random, ctx: InjectionContext) -> InjectedFault:
        changed = _changed_data_lines(ctx)
        candidates = sorted(
            {
                ctx.layout.counter_block_for(a)
                for a in changed
                if ctx.record_nvm.is_written(ctx.layout.counter_block_for(a))
                and ctx.nvm.is_written(ctx.layout.counter_block_for(a))
                and ctx.record_nvm.peek(ctx.layout.counter_block_for(a))
                != ctx.nvm.peek(ctx.layout.counter_block_for(a))
            }
        ) if changed else []
        if not candidates:
            return InjectedFault(
                self.name, "no counter block changed since the record point",
                degenerate=True,
            )
        block = candidates[rng.randrange(len(candidates))]
        ctx.nvm.poke(block, ctx.record_nvm.peek(block))
        index = ctx.layout.counter_region.block_index(block)
        affected = tuple(
            a
            for a in changed
            if ctx.layout.counter_block_for(a) == block
        )[:8]
        return InjectedFault(
            self.name,
            f"replayed counter block {block:#x} (index {index}) from the "
            "record point",
            affected_lines=affected,
        )


class LineReplayAttack(AttackModel):
    """Replay a full (ciphertext, sideband, counter block) triple.

    The promoted form of ``tests/test_selective_replay_attack.py``: all
    three pieces are mutually consistent, so only a freshness anchor
    outside NVM (on-chip root, ASIT's verified Shadow Table) can tell
    the planted v1 era from the real v2 era.  This is the attack §2.5
    and Osiris's critique of selective counter persistence describe.
    """

    name = "line_replay"
    attack_class = "line_replay"
    summary = "replay a consistent (data, sideband, counter) triple"

    @staticmethod
    def record_triple(
        nvm: NvmDevice, layout: MemoryLayout, victim: int
    ) -> Tuple[bytes, bytes, bytes]:
        """What the adversary records for ``victim`` (attack step 2)."""
        counter = layout.counter_block_for(victim)
        return (nvm.peek(victim), nvm.read_ecc(victim), nvm.peek(counter))

    @staticmethod
    def plant(
        nvm: NvmDevice,
        layout: MemoryLayout,
        victim: int,
        triple: Tuple[bytes, bytes, bytes],
    ) -> None:
        """Plant a recorded triple into the crashed image (step 3)."""
        cipher, sideband, counter_block = triple
        nvm.poke(victim, cipher)
        nvm.write_ecc(victim, sideband)
        nvm.poke(layout.counter_block_for(victim), counter_block)

    def inject(self, rng: random.Random, ctx: InjectionContext) -> InjectedFault:
        if ctx.record_nvm is None or ctx.record_oracle is None:
            return InjectedFault(self.name, "no record image", degenerate=True)
        candidates = sorted(
            address
            for address, plaintext in ctx.oracle.items()
            if ctx.record_oracle.get(address) not in (None, plaintext)
            and ctx.record_nvm.is_written(address)
            and ctx.nvm.is_written(address)
            and ctx.record_nvm.is_written(ctx.layout.counter_block_for(address))
        )
        if not candidates:
            return InjectedFault(
                self.name, "no line rewritten since the record point",
                degenerate=True,
            )
        victim = candidates[rng.randrange(len(candidates))]
        triple = self.record_triple(ctx.record_nvm, ctx.layout, victim)
        self.plant(ctx.nvm, ctx.layout, victim, triple)
        return InjectedFault(
            self.name,
            f"planted the record-point triple for line {victim:#x}",
            affected_lines=(victim,),
        )


class DataSpliceAttack(AttackModel):
    """Copy one line's (ciphertext, sideband) over another line.

    Both pieces are individually valid but bound to the *source*
    address: encryption IVs and sideband MACs include the line address,
    so the splice must fail decryption at the destination everywhere.
    """

    name = "data_splice"
    attack_class = "data_splice"
    summary = "splice one line's ciphertext+sideband over another line"

    def inject(self, rng: random.Random, ctx: InjectionContext) -> InjectedFault:
        written = [a for a in sorted(ctx.oracle) if ctx.nvm.is_written(a)]
        if len(written) < 2:
            return InjectedFault(
                self.name, "fewer than two written data lines", degenerate=True
            )
        victim = written[rng.randrange(len(written))]
        donors = [
            a
            for a in written
            if a != victim and ctx.nvm.peek(a) != ctx.nvm.peek(victim)
        ]
        if not donors:
            return InjectedFault(
                self.name, "no distinct donor line", degenerate=True
            )
        donor = donors[rng.randrange(len(donors))]
        ctx.nvm.poke(victim, ctx.nvm.peek(donor))
        ctx.nvm.write_ecc(victim, ctx.nvm.read_ecc(donor))
        return InjectedFault(
            self.name,
            f"spliced line {donor:#x} over line {victim:#x}",
            affected_lines=(victim,),
        )


class CounterSpliceAttack(AttackModel):
    """Copy one counter block's stored bytes over another.

    Every slot value is individually plausible, but the placement is
    forged: covered lines decrypt with foreign counters (caught by
    ECC/MAC) or the block fails its parent hash/MAC in the tree walk.
    """

    name = "counter_splice"
    attack_class = "counter_splice"
    summary = "splice one counter block over another counter block"

    def inject(self, rng: random.Random, ctx: InjectionContext) -> InjectedFault:
        region = ctx.layout.counter_region
        blocks = _written_blocks(ctx.nvm, [region])
        if len(blocks) < 2:
            return InjectedFault(
                self.name, "fewer than two written counter blocks",
                degenerate=True,
            )
        victim = blocks[rng.randrange(len(blocks))]
        donors = [
            b
            for b in blocks
            if b != victim and ctx.nvm.peek(b) != ctx.nvm.peek(victim)
        ]
        if not donors:
            return InjectedFault(
                self.name, "all counter blocks identical", degenerate=True
            )
        donor = donors[rng.randrange(len(donors))]
        ctx.nvm.poke(victim, ctx.nvm.peek(donor))
        index = region.block_index(victim)
        affected = _covered_lines(ctx.layout, index, 1, ctx.oracle)
        return InjectedFault(
            self.name,
            f"spliced counter block {donor:#x} over {victim:#x}",
            affected_lines=affected,
        )


class TreeNodeReplayAttack(AttackModel):
    """Replay a recorded integrity-tree node (bonsai hash node or SGX
    MAC/nonce node) under the current counters and data.

    The stale node no longer matches its parent's record of it (bonsai)
    or its current parent nonce (SGX); the walk through any covered
    line must refuse, unless recovery legitimately rebuilds the node
    from the intact counters first.
    """

    name = "tree_replay"
    attack_class = "tree_replay"
    summary = "replay a recorded integrity-tree node (bonsai and sgx)"

    def inject(self, rng: random.Random, ctx: InjectionContext) -> InjectedFault:
        if ctx.record_nvm is None:
            return InjectedFault(self.name, "no record image", degenerate=True)
        regions = ctx.layout.level_regions[1:]
        candidates = [
            address
            for address in _written_blocks(ctx.nvm, regions)
            if ctx.record_nvm.is_written(address)
            and ctx.record_nvm.peek(address) != ctx.nvm.peek(address)
        ]
        if not candidates:
            return InjectedFault(
                self.name, "no tree node changed since the record point",
                degenerate=True,
            )
        address = candidates[rng.randrange(len(candidates))]
        ctx.nvm.poke(address, ctx.record_nvm.peek(address))
        level, index = ctx.layout.locate_node(address)
        arity = ctx.layout.arity
        affected = _covered_lines(
            ctx.layout, index * arity**level, arity**level, ctx.oracle
        )
        return InjectedFault(
            self.name,
            f"replayed tree node level {level} index {index} "
            f"({address:#x}) from the record point",
            affected_lines=affected,
        )


class ShadowForgeAttack(AttackModel):
    """Forge entries of a shadow table (SCT/SMT/ST).

    For the AGIT tables the forged block tracks *valid but wrong*
    region addresses — recovery repairs the wrong blocks and must fail
    the final root comparison (or a later walk must refuse).  For
    ASIT's Shadow Table the adversary rewrites one entry's tracked
    address, which must break the eagerly-maintained shadow-tree root.
    """

    def __init__(self, table: str) -> None:
        if table not in ("sct", "smt", "st"):
            raise ValueError(f"not a shadow table: {table!r}")
        self.table = table
        self.name = f"shadow_forge_{table}"

    attack_class = "shadow_forge"
    summary = "forge shadow-table entries pointing at valid blocks"

    def applies_to(self, config: SystemConfig) -> bool:
        return _shadow_region_ok(self.table, config)

    def _target_region(self, layout: MemoryLayout):
        if self.table == "sct":
            return layout.counter_region
        return layout.level_regions[1]

    def inject(self, rng: random.Random, ctx: InjectionContext) -> InjectedFault:
        region = getattr(ctx.layout, self.table)
        blocks = _written_blocks(ctx.nvm, [region])
        if not blocks:
            return InjectedFault(
                self.name, f"{self.table} never written", degenerate=True
            )
        address = blocks[rng.randrange(len(blocks))]
        raw = bytearray(ctx.nvm.peek(address))
        target = self._target_region(ctx.layout)
        if self.table == "st":
            # Rewrite the entry's tracked-node address, keep the rest:
            # a crafted entry whose MAC/counter no longer describe the
            # node it now claims to cover.
            forged = target.block_address(
                rng.randrange(min(target.num_blocks, 64))
            )
            raw[0:8] = forged.to_bytes(8, "little")
            what = f"pointed ST entry block {address:#x} at {forged:#x}"
        else:
            # Fill every slot with valid region addresses of the
            # adversary's choosing — a wholesale forged tracking block.
            for slot in range(BLOCK_SIZE // 8):
                forged = target.block_address(
                    rng.randrange(min(target.num_blocks, 64))
                )
                raw[slot * 8 : slot * 8 + 8] = forged.to_bytes(8, "little")
            what = (
                f"forged all slots of {self.table} block {address:#x} with "
                "valid addresses"
            )
        ctx.nvm.poke(address, bytes(raw))
        return InjectedFault(self.name, what)


class ShadowSpliceAttack(AttackModel):
    """Swap the stored bytes of two shadow-table blocks.

    Every entry is individually authentic — the forgery is purely
    positional.  ASIT's shadow tree binds entries to their slots and
    must refuse; the AGIT tables make recovery repair the wrong set of
    blocks, which the root comparison or a later walk must catch.
    """

    def __init__(self, table: str) -> None:
        if table not in ("sct", "smt", "st"):
            raise ValueError(f"not a shadow table: {table!r}")
        self.table = table
        self.name = f"shadow_splice_{table}"

    attack_class = "shadow_splice"
    summary = "swap two shadow-table blocks (cross-entry splicing)"

    def applies_to(self, config: SystemConfig) -> bool:
        return _shadow_region_ok(self.table, config)

    def inject(self, rng: random.Random, ctx: InjectionContext) -> InjectedFault:
        region = getattr(ctx.layout, self.table)
        blocks = _written_blocks(ctx.nvm, [region])
        distinct = [
            b
            for b in blocks
            if any(
                ctx.nvm.peek(b) != ctx.nvm.peek(other)
                for other in blocks
                if other != b
            )
        ]
        if len(distinct) < 2:
            return InjectedFault(
                self.name,
                f"fewer than two distinct {self.table} blocks",
                degenerate=True,
            )
        first = distinct[rng.randrange(len(distinct))]
        others = [b for b in distinct if ctx.nvm.peek(b) != ctx.nvm.peek(first)]
        second = others[rng.randrange(len(others))]
        a, b = ctx.nvm.peek(first), ctx.nvm.peek(second)
        ctx.nvm.poke(first, b)
        ctx.nvm.poke(second, a)
        return InjectedFault(
            self.name,
            f"swapped {self.table} blocks {first:#x} and {second:#x}",
        )


class CrashWindowAttack(AttackModel):
    """Wrap a base attack into the recovery crash window.

    Recovery starts on an honest image, a nested power failure stops it
    after a few device writes, the wrapped attack tampers while the
    machine is dark, and the restarted recovery runs against the
    tampered state.  Only meaningful for schemes that run a recovery
    engine at all.
    """

    window = WINDOW_MID_RECOVERY
    summary = "tamper between a recovery crash and the recovery restart"

    def __init__(self, inner: AttackModel) -> None:
        if getattr(inner, "window", WINDOW_AT_CRASH) != WINDOW_AT_CRASH:
            raise ValueError("cannot nest crash-window attacks")
        self.inner = inner
        self.name = f"{inner.name}@recovery"
        self.attack_class = inner.attack_class

    def applies_to(self, config: SystemConfig) -> bool:
        return has_recovery_engine(config) and self.inner.applies_to(config)

    def plan_flush(self, rng, pending):
        return self.inner.plan_flush(rng, pending)

    def inject(self, rng: random.Random, ctx: InjectionContext) -> InjectedFault:
        fault = self.inner.inject(rng, ctx)
        return InjectedFault(
            model=self.name,
            description=f"[mid-recovery] {fault.description}",
            affected_lines=fault.affected_lines,
            degenerate=fault.degenerate,
        )

    def describe(self) -> str:
        return f"{self.inner.describe()} — injected mid-recovery"


#: Attack classes in catalogue order (the rows of every listing).
ATTACK_CLASSES: Tuple[Tuple[str, str], ...] = (
    ("counter_replay", CounterReplayAttack.summary),
    ("line_replay", LineReplayAttack.summary),
    ("data_splice", DataSpliceAttack.summary),
    ("counter_splice", CounterSpliceAttack.summary),
    ("tree_replay", TreeNodeReplayAttack.summary),
    ("shadow_forge", ShadowForgeAttack.summary),
    ("shadow_splice", ShadowSpliceAttack.summary),
)


def _base_models() -> List[AttackModel]:
    return [
        CounterReplayAttack(),
        LineReplayAttack(),
        DataSpliceAttack(),
        CounterSpliceAttack(),
        TreeNodeReplayAttack(),
        ShadowForgeAttack("sct"),
        ShadowForgeAttack("smt"),
        ShadowForgeAttack("st"),
        ShadowSpliceAttack("sct"),
        ShadowSpliceAttack("smt"),
        ShadowSpliceAttack("st"),
    ]


#: Base attacks that also make sense inside the recovery crash window.
_CRASH_WINDOW_PAYLOADS = (
    CounterReplayAttack,
    LineReplayAttack,
    TreeNodeReplayAttack,
    ShadowForgeAttack,
)


def attack_catalogue(
    config: SystemConfig,
    windows: Sequence[str] = (WINDOW_AT_CRASH, WINDOW_MID_RECOVERY),
) -> List[AttackModel]:
    """The full attack catalogue filtered to ``config``.

    ``windows`` selects tamper windows; mid-recovery wrappers are
    generated for every applicable replay/forge payload.
    """
    models: List[AttackModel] = []
    if WINDOW_AT_CRASH in windows:
        models.extend(
            m for m in _base_models() if m.applies_to(config)
        )
    if WINDOW_MID_RECOVERY in windows:
        for base in _base_models():
            if isinstance(base, _CRASH_WINDOW_PAYLOADS):
                wrapped = CrashWindowAttack(base)
                if wrapped.applies_to(config):
                    models.append(wrapped)
    return models


#: Attack classes that get a mid-recovery (crash-window) variant.
_WINDOWED_CLASSES = frozenset(
    {"counter_replay", "line_replay", "tree_replay", "shadow_forge"}
)


def catalogue_listing() -> List[Tuple[str, str, str]]:
    """(attack class, windows, summary) rows for ``repro attack --list``."""
    return [
        (
            attack_class,
            "at_crash, mid_recovery"
            if attack_class in _WINDOWED_CLASSES
            else "at_crash",
            summary,
        )
        for attack_class, summary in ATTACK_CLASSES
    ]
