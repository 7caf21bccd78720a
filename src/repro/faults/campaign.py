"""The campaign runner: sweep crash points × faults through recovery.

One warmed-up controller replays the workload *once*.  At each sampled
crash point the runner forks the persistent domain — an
:meth:`NvmDevice.snapshot` of the pre-flush image, the WPQ's pending
entries, and the on-chip registers via
:func:`~repro.recovery.crash.capture_chip_state` — without disturbing
the live controller.  Every trial then:

1. restores the trial device to its crash point's pre-flush image;
2. performs the crash-time ADR flush through a real
   :class:`~repro.mem.wpq.WritePendingQueue`, optionally weakened
   (dropped/torn newest entries) by the trial's fault model;
3. lets the fault model mutate the flushed image out-of-band;
4. builds the post-reboot controller on the trial device and restores
   the captured chip state — :func:`~repro.recovery.crash.reincarnate`
   for a forked domain;
5. runs the scheme's recovery engine (optionally interrupted after j
   device writes to model a nested crash, then re-run — recovery must
   be restartable);
6. probes reads against the plaintext oracle and classifies.

Outcome taxonomy (:class:`Outcome`):

* ``RECOVERED`` — every probe returned the latest pre-crash plaintext.
* ``DETECTED_UNRECOVERABLE`` — an *accidental* fault made recovery or a
  probe read raise an integrity/recovery/ECC error: the system
  *refused* rather than lied.  Stale-but-consistent data does not count
  as recovered — serving any plaintext other than the newest is
  precisely the freshness violation Anubis exists to stop.
* ``TAMPER_DETECTED`` — the same refusal, but the trial's fault model
  was a *deliberate* adversary (``model.tamper``).  Failing closed
  against tampering is the scheme doing its job, so it gets its own
  column (and exit code) instead of being folded into recovery failure.
  Any ``ReproError`` raised against a tamper model counts: refusing a
  forged shadow table with a :class:`~repro.errors.LayoutError` is
  still a principled refusal.
* ``RECOVERY_FAILED`` — recovery or a probe died on an exception that
  is *not* a principled detection (a harness-visible bug).
* ``SILENT_CORRUPTION`` — a probe returned wrong plaintext with no
  exception.  The unforgivable outcome.

Tamper models also carry a *window* (:data:`~repro.faults.models.
WINDOW_AT_CRASH` or :data:`~repro.faults.models.WINDOW_MID_RECOVERY`).
A mid-recovery model's mutation lands *between* a nested recovery crash
and the recovery restart — the crash-window attack surface — instead of
between the power failure and the first boot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import BLOCK_SIZE, SchemeKind, SystemConfig, TreeKind
from repro.controller.factory import build_controller, build_layout
from repro.core.recovery_agit import AgitRecovery
from repro.core.recovery_asit import AsitRecovery
from repro.crypto.keys import ProcessorKeys
from repro.errors import (
    EccError,
    IntegrityError,
    RecoveryError,
    ReproError,
    SilentCorruptionError,
)
from repro.faults.models import (
    WINDOW_AT_CRASH,
    WINDOW_MID_RECOVERY,
    FaultModel,
    InjectedFault,
    InjectionContext,
    default_catalogue,
)
from repro.mem.nvm import NvmDevice
from repro.mem.timing import MemoryChannel
from repro.mem.wpq import WritePendingQueue
from repro.recovery.crash import capture_chip_state, restore_chip_state, ChipState
from repro.recovery.osiris_full import OsirisFullRecovery
from repro.recovery.selective import SelectiveRestore
from repro.sim.checkpoint import full_fingerprint
from repro.sim.result_cache import active_result_cache
from repro.sim.parallel import ParallelSweepExecutor
from repro.telemetry.runtime import current_tracer
from repro.traces.profiles import KIB, SyntheticProfile, profile
from repro.traces.replay import replay_batched
from repro.traces.synthetic import generate_trace
from repro.traces.trace import Trace

#: Exceptions that count as *principled detection*: the controller or
#: recovery engine noticed the corruption and refused to proceed.
DETECTED_ERRORS = (IntegrityError, RecoveryError, EccError)


def _refusal_outcome(
    model: FaultModel, exc: BaseException
) -> Optional["Outcome"]:
    """How an exception classifies, or None for a harness-visible bug.

    Accidental faults must surface as one of :data:`DETECTED_ERRORS`;
    anything else is a recovery failure.  Deliberate tampering
    (``model.tamper``) widens the net to every :class:`ReproError` —
    refusing a forged shadow table with a ``LayoutError`` is the scheme
    failing closed, not breaking.
    """
    if isinstance(exc, DETECTED_ERRORS):
        if getattr(model, "tamper", False):
            return Outcome.TAMPER_DETECTED
        return Outcome.DETECTED_UNRECOVERABLE
    if getattr(model, "tamper", False) and isinstance(exc, ReproError):
        return Outcome.TAMPER_DETECTED
    return None

#: The default campaign workload.  SPEC-like profiles sweep footprints
#: far larger than a short warmup trace, so lines are almost never
#: rewritten and a rollback attacker has nothing to replay.  "hammer"
#: concentrates writes on a small hot set — every fault model gets
#: material to work with.
_HAMMER = SyntheticProfile(
    name="hammer",
    write_fraction=0.55,
    pattern="hot_cold",
    footprint_bytes=256 * KIB,
    hot_bytes=64 * KIB,
    hot_fraction=0.8,
    rewrite_count=2,
    gap_mean_ns=150.0,
    description="fault-campaign workload: small hot set, heavy rewrites",
)


def campaign_profile(name: str) -> SyntheticProfile:
    """Resolve a workload name: "hammer" or any SPEC-like profile."""
    if name == _HAMMER.name:
        return _HAMMER
    return profile(name)


class Outcome(Enum):
    """Classification of one fault-injection trial."""

    RECOVERED = "RECOVERED"
    DETECTED_UNRECOVERABLE = "DETECTED_UNRECOVERABLE"
    TAMPER_DETECTED = "TAMPER_DETECTED"
    RECOVERY_FAILED = "RECOVERY_FAILED"
    SILENT_CORRUPTION = "SILENT_CORRUPTION"


#: The outcomes that mean "the scheme behaved as designed": correct
#: recovery, or a principled refusal of corrupted/tampered state.
CLASSIFIED_OUTCOMES = (
    Outcome.RECOVERED,
    Outcome.DETECTED_UNRECOVERABLE,
    Outcome.TAMPER_DETECTED,
)


class _RecoveryPowerFailure(Exception):
    """Injected nested crash — deliberately *not* a ReproError, so it is
    never mistaken for a principled detection."""


class _InterruptingNvm:
    """Proxy failing the Nth device write (nested crash mid-recovery)."""

    def __init__(self, nvm: NvmDevice, fail_after: int) -> None:
        self._nvm = nvm
        self._remaining = fail_after

    def write(self, address: int, data: bytes) -> None:
        if self._remaining <= 0:
            raise _RecoveryPowerFailure()
        self._remaining -= 1
        self._nvm.write(address, data)

    def __getattr__(self, name):
        return getattr(self._nvm, name)


@dataclass
class TrialResult:
    """One classified trial."""

    index: int
    fault: str
    description: str
    crash_point: int
    outcome: Outcome
    nested_step: Optional[int] = None
    #: Where the corruption surfaced: "recovery" or "read" for detected
    #: trials, None otherwise.
    detected_at: Optional[str] = None
    detail: str = ""
    probed: int = 0
    degenerate: bool = False

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form (result-store entry / artifact payload)."""
        return {
            "index": self.index,
            "fault": self.fault,
            "description": self.description,
            "crash_point": self.crash_point,
            "outcome": self.outcome.value,
            "nested_step": self.nested_step,
            "detected_at": self.detected_at,
            "detail": self.detail,
            "probed": self.probed,
            "degenerate": self.degenerate,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TrialResult":
        """Inverse of :meth:`to_dict`, exact round-trip."""
        record = dict(payload)
        record["outcome"] = Outcome(record["outcome"])
        return cls(**record)


@dataclass
class CampaignConfig:
    """Everything one campaign needs; fully determined by ``seed``."""

    system: SystemConfig
    seed: int = 0
    #: Number of trials; ``None`` runs the exhaustive grid instead —
    #: every crash point × every catalogue model exactly once.
    trials: Optional[int] = 100
    workload: str = "hammer"
    trace_length: int = 2000
    #: Crash points (requests completed before the power fails); when
    #: None, ``num_crash_points`` are sampled from the trace.
    crash_points: Optional[Sequence[int]] = None
    num_crash_points: int = 8
    #: Extra randomly probed oracle lines per trial (on top of the
    #: fault's own affected lines, which are always probed).
    probe_reads: int = 8
    #: Fraction of trials that also crash *during* recovery.
    nested_crash_fraction: float = 0.25
    catalogue: Optional[List[FaultModel]] = None


def campaign_cache_identity(campaign: CampaignConfig) -> str:
    """Deterministic identity of a campaign's *work*, the result-store
    key prefix of its trials.

    Everything that changes which trials run or what they compute is
    included; execution knobs (``jobs``, timeouts) deliberately are
    not, so trials stored at ``--jobs 4`` resume at ``--jobs 1``.
    Catalogue models are identified by class, name, window, and tamper
    flag — a store shared across many campaigns cannot afford
    name-only aliasing between custom catalogues.
    """
    catalogue = campaign.catalogue
    return full_fingerprint(
        "fault-campaign",
        campaign.system,
        campaign.seed,
        campaign.trials,
        campaign.workload,
        campaign.trace_length,
        list(campaign.crash_points) if campaign.crash_points else None,
        campaign.num_crash_points,
        campaign.probe_reads,
        campaign.nested_crash_fraction,
        None
        if catalogue is None
        else [
            f"{type(model).__name__}:{model.name}:"
            f"{getattr(model, 'window', WINDOW_AT_CRASH)}:"
            f"{int(bool(getattr(model, 'tamper', False)))}"
            for model in catalogue
        ],
    )


@dataclass
class CampaignResult:
    """All trials of one campaign plus the derived summaries."""

    scheme: SchemeKind
    tree: TreeKind
    seed: int
    workload: str
    trace_length: int
    crash_points: List[int]
    trials: List[TrialResult] = field(default_factory=list)

    def outcome_counts(self) -> Dict[str, int]:
        counts = {outcome.value: 0 for outcome in Outcome}
        for trial in self.trials:
            counts[trial.outcome.value] += 1
        return counts

    def matrix(self) -> Dict[str, Dict[str, int]]:
        """fault model -> outcome -> count (the coverage matrix)."""
        table: Dict[str, Dict[str, int]] = {}
        for trial in self.trials:
            row = table.setdefault(
                trial.fault, {outcome.value: 0 for outcome in Outcome}
            )
            row[trial.outcome.value] += 1
        return table

    def silent_trials(self) -> List[TrialResult]:
        return [
            t for t in self.trials if t.outcome is Outcome.SILENT_CORRUPTION
        ]

    @property
    def classified_fraction(self) -> float:
        """Fraction of trials ending in a :data:`CLASSIFIED_OUTCOMES`
        state — recovered, or detection of an accident or a tamper."""
        if not self.trials:
            return 1.0
        good = sum(
            1 for t in self.trials if t.outcome in CLASSIFIED_OUTCOMES
        )
        return good / len(self.trials)

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form with trials in plan order plus summaries.

        Deterministic for a given campaign — serial, parallel, and
        resumed runs all serialize to the same bytes, which is exactly
        what the kill-and-resume smoke ``cmp``s.
        """
        return {
            "scheme": self.scheme.value,
            "tree": self.tree.value,
            "seed": self.seed,
            "workload": self.workload,
            "trace_length": self.trace_length,
            "crash_points": list(self.crash_points),
            "outcome_counts": self.outcome_counts(),
            "matrix": self.matrix(),
            "trials": [
                trial.to_dict()
                for trial in sorted(self.trials, key=lambda t: t.index)
            ],
        }

    def require_no_silent_corruption(self) -> None:
        """Raise :class:`SilentCorruptionError` if any trial lied."""
        silent = self.silent_trials()
        if silent:
            worst = ", ".join(
                f"#{t.index} {t.fault}@{t.crash_point}" for t in silent[:5]
            )
            raise SilentCorruptionError(
                f"{len(silent)} trial(s) returned wrong plaintext without "
                f"raising ({worst}) — scheme {self.scheme.value} silently "
                "corrupts"
            )


@dataclass
class _CrashImage:
    """The forked persistent domain at one crash point."""

    preflush: NvmDevice
    pending: List[Tuple[int, bytes, Optional[bytes]]]
    chip: ChipState
    oracle: Dict[int, bytes]


def _recovery_engine(config: SystemConfig, reborn, nvm):
    """The recovery path a real system of this scheme would run."""
    scheme, tree = config.scheme, config.tree
    if scheme in (SchemeKind.AGIT_READ, SchemeKind.AGIT_PLUS):
        return AgitRecovery(nvm, reborn.layout, reborn)
    if scheme is SchemeKind.ASIT:
        return AsitRecovery(nvm, reborn.layout, reborn)
    if tree is TreeKind.BONSAI and scheme is SchemeKind.OSIRIS:
        return OsirisFullRecovery(nvm, reborn.layout, reborn)
    if tree is TreeKind.BONSAI and scheme in (
        SchemeKind.WRITE_BACK,
        SchemeKind.SELECTIVE,
    ):
        # No root to verify against: rebuild from memory and *adopt* —
        # the restore path whose replay vulnerability the campaign's
        # control runs demonstrate.
        return SelectiveRestore(nvm, reborn.layout, reborn)
    # Strict persistence (memory is always consistent) and write-back /
    # Osiris on SGX trees (nothing to rebuild from): boot and read.
    return None


def scheme_has_recovery(scheme: SchemeKind, tree: TreeKind) -> bool:
    """Whether :func:`_recovery_engine` dispatches anything for this
    scheme — i.e. whether a mid-recovery tamper window exists at all."""
    if scheme in (SchemeKind.AGIT_READ, SchemeKind.AGIT_PLUS, SchemeKind.ASIT):
        return True
    return tree is TreeKind.BONSAI and scheme in (
        SchemeKind.OSIRIS,
        SchemeKind.WRITE_BACK,
        SchemeKind.SELECTIVE,
    )


def has_recovery_engine(config: SystemConfig) -> bool:
    """:func:`scheme_has_recovery` for a full system config."""
    return scheme_has_recovery(config.scheme, config.tree)


def _probe_targets(
    rng: random.Random,
    fault: InjectedFault,
    flush_casualties: Sequence[int],
    oracle: Dict[int, bytes],
    layout,
    probe_reads: int,
) -> List[int]:
    """The data lines to read back after recovery."""
    targets = [a for a in fault.affected_lines if a in oracle]
    for address in flush_casualties:
        if layout.data.contains(address):
            if address in oracle:
                targets.append(address)
        elif layout.counter_region.contains(address):
            # Probe a few lines covered by a lost counter block.
            index = layout.counter_region.block_index(address)
            first = index * layout.lines_per_counter_block
            for offset in range(layout.lines_per_counter_block):
                line = (first + offset) * BLOCK_SIZE
                if line in oracle:
                    targets.append(line)
                if len(targets) >= probe_reads + 8:
                    break
    if oracle and probe_reads:
        population = sorted(oracle)
        targets.extend(
            rng.sample(population, min(probe_reads, len(population)))
        )
    seen = set()
    ordered = []
    for address in targets:
        if address not in seen:
            seen.add(address)
            ordered.append(address)
    return ordered


def _trial_rng(seed: int, index: int) -> random.Random:
    """The RNG of one trial, derived from (campaign seed, trial index).

    Trials used to share the campaign RNG sequentially, which made any
    trial's draws depend on every earlier trial — impossible to fan out.
    A per-trial derivation makes trials order-independent, so serial and
    parallel executions of the same plan are bit-identical.
    """
    return random.Random(f"repro-fault-trial:{seed}:{index}")


@dataclass
class _CampaignPlan:
    """Everything derivable from the config alone (no warmup needed)."""

    requests: List
    points: List[int]
    record_at: int
    catalogue: List[FaultModel]
    #: (crash point, fault model, nested-crash step) per trial.
    plan: List[Tuple[int, FaultModel, Optional[int]]]


def _build_plan(campaign: CampaignConfig) -> _CampaignPlan:
    """Deterministically derive the trial plan from the campaign config.

    All campaign-level randomness (crash-point sampling, per-trial model
    and nested-crash schedule) is consumed here, in one fixed order, so
    every process that re-derives the plan gets the same one.
    """
    config = campaign.system
    rng = random.Random(campaign.seed)

    trace = generate_trace(
        campaign_profile(campaign.workload),
        campaign.trace_length,
        seed=campaign.seed,
        capacity_bytes=config.memory.capacity_bytes,
    )
    requests = list(trace)

    if campaign.crash_points is not None:
        points = sorted(
            {k for k in campaign.crash_points if 1 <= k <= len(requests)}
        )
    else:
        count = min(campaign.num_crash_points, len(requests))
        points = sorted(rng.sample(range(1, len(requests) + 1), count))
    if not points:
        raise ValueError("campaign needs at least one crash point")

    # The rollback fault replays material recorded at an earlier
    # consistent point — an orderly writeback a quarter into the trace
    # (never after the first crash point).
    record_at = min(len(requests) // 4, points[0])

    catalogue = campaign.catalogue
    if catalogue is None:
        catalogue = default_catalogue(config)
    if not catalogue:
        raise ValueError("campaign needs at least one fault model")

    # Trial plan: exhaustive grid when trials is None, otherwise
    # round-robin over the catalogue (every model exercised) with
    # rng-sampled crash points and nested-crash schedule.
    plan: List[Tuple[int, FaultModel, Optional[int]]] = []
    if campaign.trials is None:
        for point in points:
            for model in catalogue:
                plan.append((point, model, None))
    else:
        for _ in range(campaign.trials):
            model = catalogue[len(plan) % len(catalogue)]
            point = points[rng.randrange(len(points))]
            nested: Optional[int] = None
            if rng.random() < campaign.nested_crash_fraction:
                nested = rng.randrange(1, 8)
            plan.append((point, model, nested))
    return _CampaignPlan(
        requests=requests,
        points=points,
        record_at=record_at,
        catalogue=catalogue,
        plan=plan,
    )


def _warmup_images(
    campaign: CampaignConfig,
    plan: _CampaignPlan,
    keys: ProcessorKeys,
    layout,
) -> Tuple[Dict[int, _CrashImage], Optional[NvmDevice], Optional[Dict[int, bytes]]]:
    """Replay the workload once; fork the domain at every crash point."""
    config = campaign.system
    requests = plan.requests
    points = plan.points
    record_at = plan.record_at

    controller = build_controller(config, keys=keys, layout=layout)
    oracle: Dict[int, bytes] = {}
    images: Dict[int, _CrashImage] = {}
    record_nvm: Optional[NvmDevice] = None
    record_oracle: Optional[Dict[int, bytes]] = None
    mark = set(points)

    def take_record() -> None:
        nonlocal record_nvm, record_oracle
        controller.writeback_all()
        controller.wpq.drain_all()
        record_nvm = controller.nvm.snapshot()
        record_oracle = dict(oracle)

    def take_image(done: int) -> None:
        images[done] = _CrashImage(
            preflush=controller.nvm.snapshot(),
            pending=controller.wpq.pending_entries(),
            chip=capture_chip_state(controller),
            oracle=dict(oracle),
        )

    # Replay segment-by-segment between snapshot boundaries; each
    # segment runs through the batched engine (identical results, see
    # traces/replay.py), pausing only where the campaign forks the
    # persistent domain.  Deferred eager tree updates stay in the
    # controller's stale set across pauses, and nothing a snapshot
    # takes observes them unsettled: stale blocks are resident, so the
    # NVM image and WPQ never hold their bytes (strict placeholders are
    # written before every range's final, scalar write), and
    # capture_chip_state reads the root through engine.root_node,
    # which settles first.
    warm_trace = Trace("campaign-warmup", requests)
    total = len(requests)
    position = 0
    for boundary in sorted({record_at, *points}):
        replay_batched(
            controller, warm_trace, oracle=oracle,
            start=position, stop=boundary,
        )
        position = boundary
        if boundary == record_at and record_nvm is None:
            take_record()
        if boundary in mark:
            take_image(boundary)
    replay_batched(
        controller, warm_trace, oracle=oracle, start=position, stop=total
    )
    return images, record_nvm, record_oracle


def _execute_trials(
    campaign: CampaignConfig,
    plan: _CampaignPlan,
    indices: Sequence[int],
    on_trial: Optional[Callable[[TrialResult], None]] = None,
) -> List[TrialResult]:
    """Warm up once, then run the given subset of the trial plan.

    Each worker process (and the serial path) calls this; trials draw
    from per-index RNGs, so any partition of the indices produces the
    same per-trial results.  ``on_trial`` fires after each trial — the
    serial path stores through it, so an interrupt loses at most the
    trial in flight.
    """
    config = campaign.system
    keys = ProcessorKeys(campaign.seed)
    layout = build_layout(config)
    images, record_nvm, record_oracle = _warmup_images(
        campaign, plan, keys, layout
    )
    trial_nvm = NvmDevice(layout.total_size)
    trials: List[TrialResult] = []
    for index in indices:
        point, model, nested = plan.plan[index]
        trial = _run_trial(
            index=index,
            config=config,
            layout=layout,
            keys=keys,
            image=images[point],
            model=model,
            nested=nested,
            rng=_trial_rng(campaign.seed, index),
            trial_nvm=trial_nvm,
            record_nvm=record_nvm,
            record_oracle=record_oracle,
            probe_reads=campaign.probe_reads,
            crash_point=point,
        )
        if on_trial is not None:
            on_trial(trial)
        trials.append(trial)
    return trials


def _campaign_worker(payload: Tuple) -> List[TrialResult]:
    """Pool worker: rebuild the plan locally, run one index slice.

    The payload is ``(campaign, indices)``.
    """
    campaign, indices = payload
    plan = _build_plan(campaign)
    return _execute_trials(campaign, plan, indices)


#: With a result store active, parallel slices are capped at this many
#: trials so finished trials reach the store while the campaign runs,
#: and an interrupted run loses little more than the slices in flight
#: (each slice re-warms, so smaller caps trade warmup time for
#: durability).
_STORE_SLICE_CAP = 8


def run_campaign(
    campaign: CampaignConfig,
    jobs: Union[int, str, None] = 1,
    on_trial: Optional[Callable[[TrialResult], None]] = None,
) -> CampaignResult:
    """Run one deterministic fault-injection campaign.

    ``jobs`` fans the trials over worker processes (``"auto"`` uses
    every core).  Each worker re-derives the deterministic plan and
    replays the warmup itself — configs are tiny and picklable, NVM
    snapshots are not — then runs a contiguous slice of trials; slices
    are merged in plan order, so the result matrix is identical for any
    job count.  A failing trial or a dead worker stops the campaign.

    When a result store is configured (see
    :func:`repro.sim.result_cache.configure_result_cache`;
    ``--resume DIR`` installs one in ``DIR``), the campaign is
    *preemption-safe*: every completed trial is stored there, keyed by
    :func:`campaign_cache_identity` and trial index, and a re-run skips
    stored trials and returns a result identical to an uninterrupted
    run.  Restored trials are merged in plan order and do not re-fire
    ``on_trial``, the per-completed-trial progress hook.
    """
    plan = _build_plan(campaign)
    result = CampaignResult(
        scheme=campaign.system.scheme,
        tree=campaign.system.tree,
        seed=campaign.seed,
        workload=campaign.workload,
        trace_length=campaign.trace_length,
        crash_points=plan.points,
    )

    completed: Dict[int, TrialResult] = {}
    cache = active_result_cache()
    cache_keys: Dict[int, str] = {}
    if cache is not None:
        identity = campaign_cache_identity(campaign)
        for index in range(len(plan.plan)):
            cache_keys[index] = cache.key("fault-trial", identity, index)
            payload = cache.get(cache_keys[index], kind="fault-trial")
            if payload is not None:
                completed[index] = TrialResult.from_dict(payload)

    def finish(trial: TrialResult) -> None:
        completed[trial.index] = trial
        if cache is not None:
            cache.put(
                cache_keys[trial.index], trial.to_dict(), kind="fault-trial"
            )
        if on_trial is not None:
            on_trial(trial)

    pending = [
        index for index in range(len(plan.plan)) if index not in completed
    ]
    executor = ParallelSweepExecutor(jobs)
    workers = min(executor.jobs, len(pending))
    if pending and workers <= 1:
        _execute_trials(campaign, plan, pending, on_trial=finish)
    elif pending:
        # Contiguous slices keep per-worker warmups rare; with a store
        # the slices shrink so completed work is durable long before
        # the campaign ends.
        step = (len(pending) + workers - 1) // workers
        if cache is not None:
            step = max(1, min(step, _STORE_SLICE_CAP))
        slices = [
            pending[start : start + step]
            for start in range(0, len(pending), step)
        ]
        executor.map(
            _campaign_worker,
            [(campaign, chunk) for chunk in slices],
            on_result=lambda _slice, trials: [
                finish(trial) for trial in trials
            ],
        )

    result.trials = [completed[index] for index in range(len(plan.plan))]
    return result


def _run_trial(
    index: int,
    config: SystemConfig,
    layout,
    keys: ProcessorKeys,
    image: _CrashImage,
    model: FaultModel,
    nested: Optional[int],
    rng: random.Random,
    trial_nvm: NvmDevice,
    record_nvm: Optional[NvmDevice],
    record_oracle: Optional[Dict[int, bytes]],
    probe_reads: int,
    crash_point: int,
) -> TrialResult:
    """Execute and classify one trial (steps 1-6 of the module doc)."""
    trial = _classify_trial(
        index=index,
        config=config,
        layout=layout,
        keys=keys,
        image=image,
        model=model,
        nested=nested,
        rng=rng,
        trial_nvm=trial_nvm,
        record_nvm=record_nvm,
        record_oracle=record_oracle,
        probe_reads=probe_reads,
        crash_point=crash_point,
    )
    tracer = current_tracer()
    if tracer.enabled:
        # Trials have no simulated clock of their own; seq keeps order.
        tracer.emit(
            "trial.outcome",
            ns=0.0,
            trial=index,
            model=model.name,
            outcome=trial.outcome.value,
        )
    return trial


def _classify_trial(
    index: int,
    config: SystemConfig,
    layout,
    keys: ProcessorKeys,
    image: _CrashImage,
    model: FaultModel,
    nested: Optional[int],
    rng: random.Random,
    trial_nvm: NvmDevice,
    record_nvm: Optional[NvmDevice],
    record_oracle: Optional[Dict[int, bytes]],
    probe_reads: int,
    crash_point: int,
) -> TrialResult:
    trial_nvm.restore(image.preflush)
    drop, tear = model.plan_flush(rng, image.pending)
    wpq = WritePendingQueue(
        trial_nvm,
        MemoryChannel(config.timing),
        entries=len(image.pending) + 1,
    )
    for address, data, ecc in image.pending:
        wpq.insert(address, data, ecc)
    flush = wpq.adr_flush(drop_newest=drop, tear_newest=tear)

    ctx = InjectionContext(
        config=config,
        layout=layout,
        nvm=trial_nvm,
        oracle=image.oracle,
        record_nvm=record_nvm,
        record_oracle=record_oracle,
    )
    tracer = current_tracer()
    window = getattr(model, "window", WINDOW_AT_CRASH)
    fault: Optional[InjectedFault] = None

    def inject_now() -> None:
        nonlocal fault
        fault = model.inject(rng, ctx)
        if tracer.enabled:
            tracer.emit(
                "fault.inject", ns=0.0, model=model.name, trial=index
            )

    if window == WINDOW_AT_CRASH:
        inject_now()

    reborn = build_controller(config, keys=keys, nvm=trial_nvm, layout=layout)
    restore_chip_state(reborn, image.chip)

    trial = TrialResult(
        index=index,
        fault=model.name,
        description="",
        crash_point=crash_point,
        outcome=Outcome.RECOVERED,
        nested_step=nested,
    )

    def finish() -> TrialResult:
        if fault is not None:
            trial.description = fault.description
            trial.degenerate = fault.degenerate
        else:
            # Recovery refused (or died) on the clean image before the
            # mid-recovery tamper window even opened.
            trial.description = "refused before the tamper window opened"
            trial.degenerate = True
        return trial

    engine = _recovery_engine(config, reborn, trial_nvm)
    try:
        if engine is not None:
            if window == WINDOW_MID_RECOVERY:
                # Crash-window attack: recovery starts, power fails
                # again after ``steps`` device writes, the adversary
                # tampers while the machine is dark, and the restarted
                # recovery must still refuse or repair.
                steps = nested if nested is not None else 1 + rng.randrange(7)
                trial.nested_step = steps
                interrupted = _recovery_engine(
                    config, reborn, _InterruptingNvm(trial_nvm, steps)
                )
                try:
                    interrupted.run()
                except _RecoveryPowerFailure:
                    pass
                inject_now()
                _recovery_engine(config, reborn, trial_nvm).run()
            elif nested is not None:
                interrupted = _recovery_engine(
                    config, reborn, _InterruptingNvm(trial_nvm, nested)
                )
                try:
                    interrupted.run()
                except _RecoveryPowerFailure:
                    # Second boot: the chip registers persist, recovery
                    # restarts from scratch on the intact device.
                    _recovery_engine(config, reborn, trial_nvm).run()
            else:
                engine.run()
        if fault is None:
            # Mid-recovery window on a scheme with no recovery engine
            # degenerates to tampering at the crash.
            inject_now()
    except Exception as exc:  # noqa: BLE001 — classification, not flow
        refused = _refusal_outcome(model, exc)
        if refused is not None:
            trial.outcome = refused
            trial.detected_at = "recovery"
        else:
            trial.outcome = Outcome.RECOVERY_FAILED
        trial.detail = f"{type(exc).__name__}: {exc}"
        return finish()

    probes = _probe_targets(
        rng,
        fault,
        list(flush.dropped) + list(flush.torn),
        image.oracle,
        layout,
        probe_reads,
    )
    trial.probed = len(probes)
    mismatched: List[int] = []
    detection: Optional[Outcome] = None
    for address in probes:
        try:
            value = reborn.read(address)
        except Exception as exc:  # noqa: BLE001
            refused = _refusal_outcome(model, exc)
            if refused is None:
                trial.outcome = Outcome.RECOVERY_FAILED
                trial.detail = (
                    f"probe {address:#x} -> {type(exc).__name__}: {exc}"
                )
                return finish()
            detection = refused
            trial.detail = f"{type(exc).__name__}: {exc}"
            continue
        if value != image.oracle[address]:
            mismatched.append(address)
    if mismatched:
        trial.outcome = Outcome.SILENT_CORRUPTION
        trial.detail = (
            f"{len(mismatched)} probe(s) returned wrong plaintext, e.g. "
            f"{mismatched[0]:#x}"
        )
    elif detection is not None:
        trial.outcome = detection
        trial.detected_at = "read"
    else:
        trial.outcome = Outcome.RECOVERED
    return finish()
