"""Attack campaigns: the adversary catalogue judged by the oracle.

A thin, fully deterministic layer over the fault-campaign runner
(:func:`repro.faults.campaign.run_campaign`): the attack catalogue
rides in ``CampaignConfig.catalogue``, so the result store,
``--jobs`` fan-out and kill-and-resume semantics are inherited
unchanged — an attack campaign resumes byte-identically
at any job count, exactly like a fault campaign.

What this layer adds:

* every trial is joined with its :class:`~repro.attacks.oracle.
  SecurityClaim` and classified into a :class:`~repro.attacks.oracle.
  Verdict` — the oracle is consulted *before* the first trial runs, so
  a missing claim aborts the campaign instead of surfacing after hours
  of work;
* ``attack.inject`` / ``attack.detected`` / ``attack.missed``
  telemetry events, emitted in deterministic plan order as trials
  finish;
* :meth:`AttackCampaignResult.require_as_claimed` — the hard gate: any
  ``VIOLATION`` verdict (above all, silent acceptance of tampered
  state by a scheme not declared ``KNOWN_VULNERABLE``) raises
  :class:`~repro.errors.SecurityClaimViolationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import SchemeKind, SystemConfig, TreeKind
from repro.errors import SecurityClaimViolationError
from repro.faults.campaign import (
    CampaignConfig,
    Outcome,
    TrialResult,
    _build_plan,
    run_campaign,
)
from repro.faults.models import (
    WINDOW_AT_CRASH,
    WINDOW_MID_RECOVERY,
    FaultModel,
)
from repro.attacks.catalogue import AttackModel, attack_catalogue
from repro.attacks.oracle import (
    Expectation,
    SecurityClaim,
    SecurityOracle,
    Verdict,
    default_oracle,
)
from repro.telemetry.runtime import current_tracer


@dataclass
class AttackCampaignConfig:
    """One adversary campaign; fully determined by ``seed``."""

    system: SystemConfig
    seed: int = 0
    #: Number of trials; ``None`` runs the exhaustive grid — every
    #: crash point × every catalogue attack exactly once.
    trials: Optional[int] = None
    workload: str = "hammer"
    trace_length: int = 1500
    crash_points: Optional[Sequence[int]] = None
    num_crash_points: int = 6
    probe_reads: int = 8
    #: Tamper windows to include when building the default catalogue.
    windows: Tuple[str, ...] = (WINDOW_AT_CRASH, WINDOW_MID_RECOVERY)
    catalogue: Optional[List[AttackModel]] = None
    oracle: Optional[SecurityOracle] = None


def _fault_campaign(attack: AttackCampaignConfig) -> CampaignConfig:
    """The underlying fault campaign an attack campaign runs as."""
    catalogue: List[FaultModel] = (
        list(attack.catalogue)
        if attack.catalogue is not None
        else list(attack_catalogue(attack.system, attack.windows))
    )
    return CampaignConfig(
        system=attack.system,
        seed=attack.seed,
        trials=attack.trials,
        workload=attack.workload,
        trace_length=attack.trace_length,
        crash_points=attack.crash_points,
        num_crash_points=attack.num_crash_points,
        probe_reads=attack.probe_reads,
        # Nested crashes are modeled explicitly by the mid-recovery
        # window attacks; random nesting would only blur the claims.
        nested_crash_fraction=0.0,
        catalogue=catalogue,
    )


@dataclass
class AttackTrial:
    """One fault-campaign trial joined with its security claim."""

    index: int
    attack: str
    attack_class: str
    window: str
    crash_point: int
    outcome: Outcome
    expected: Expectation
    verdict: Verdict
    citation: str = ""
    detected_at: Optional[str] = None
    detail: str = ""
    description: str = ""
    nested_step: Optional[int] = None
    probed: int = 0
    degenerate: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "attack": self.attack,
            "attack_class": self.attack_class,
            "window": self.window,
            "crash_point": self.crash_point,
            "outcome": self.outcome.value,
            "expected": self.expected.value,
            "verdict": self.verdict.value,
            "citation": self.citation,
            "detected_at": self.detected_at,
            "detail": self.detail,
            "description": self.description,
            "nested_step": self.nested_step,
            "probed": self.probed,
            "degenerate": self.degenerate,
        }


@dataclass
class AttackCampaignResult:
    """All judged trials of one attack campaign."""

    scheme: SchemeKind
    tree: TreeKind
    seed: int
    workload: str
    trace_length: int
    crash_points: List[int]
    trials: List[AttackTrial] = field(default_factory=list)

    def outcome_counts(self) -> Dict[str, int]:
        counts = {outcome.value: 0 for outcome in Outcome}
        for trial in self.trials:
            counts[trial.outcome.value] += 1
        return counts

    def verdict_counts(self) -> Dict[str, int]:
        counts = {verdict.value: 0 for verdict in Verdict}
        for trial in self.trials:
            counts[trial.verdict.value] += 1
        return counts

    def matrix(self) -> Dict[str, Dict[str, int]]:
        """attack class -> outcome -> count (sorted rows)."""
        table: Dict[str, Dict[str, int]] = {}
        for trial in self.trials:
            row = table.setdefault(
                trial.attack_class,
                {outcome.value: 0 for outcome in Outcome},
            )
            row[trial.outcome.value] += 1
        return {key: table[key] for key in sorted(table)}

    def claim_rows(self) -> List[Dict[str, object]]:
        """One row per (attack class, window): claim vs observations."""
        grouped: Dict[Tuple[str, str], List[AttackTrial]] = {}
        for trial in self.trials:
            grouped.setdefault(
                (trial.attack_class, trial.window), []
            ).append(trial)
        rows = []
        for (attack_class, window) in sorted(grouped):
            trials = grouped[(attack_class, window)]
            outcomes = {outcome.value: 0 for outcome in Outcome}
            verdicts = {verdict.value: 0 for verdict in Verdict}
            for trial in trials:
                outcomes[trial.outcome.value] += 1
                verdicts[trial.verdict.value] += 1
            rows.append(
                {
                    "attack": attack_class,
                    "window": window,
                    "expected": trials[0].expected.value,
                    "trials": len(trials),
                    "outcomes": outcomes,
                    "verdicts": verdicts,
                }
            )
        return rows

    def violations(self) -> List[AttackTrial]:
        return [t for t in self.trials if t.verdict is Verdict.VIOLATION]

    def require_as_claimed(self) -> None:
        """Raise unless every trial matched its declared claim."""
        violations = self.violations()
        if violations:
            worst = "; ".join(
                f"#{t.index} {t.attack}@{t.crash_point} -> "
                f"{t.outcome.value} (claimed {t.expected.value})"
                for t in violations[:5]
            )
            raise SecurityClaimViolationError(
                f"{len(violations)} trial(s) contradict the declared "
                f"security claims for {self.scheme.value}/"
                f"{self.tree.value}: {worst}"
            )

    def to_dict(self) -> Dict[str, object]:
        """Deterministic plain-JSON form (artifact payload)."""
        return {
            "scheme": self.scheme.value,
            "tree": self.tree.value,
            "seed": self.seed,
            "workload": self.workload,
            "trace_length": self.trace_length,
            "crash_points": list(self.crash_points),
            "outcome_counts": self.outcome_counts(),
            "verdict_counts": self.verdict_counts(),
            "matrix": self.matrix(),
            "claims": self.claim_rows(),
            "trials": [
                trial.to_dict()
                for trial in sorted(self.trials, key=lambda t: t.index)
            ],
        }


def run_attack_campaign(
    attack: AttackCampaignConfig,
    jobs: Union[int, str, None] = 1,
    on_trial: Optional[Callable[[AttackTrial], None]] = None,
) -> AttackCampaignResult:
    """Run one adversary campaign and judge it against the oracle.

    Identical execution semantics to :func:`~repro.faults.campaign.
    run_campaign` (jobs, and the result store that makes resume work —
    verdicts are re-derived from the merged trials, so stored trials
    judge identically); the oracle is
    consulted for every (attack, window) pair *up front* so an
    undeclared claim fails before any warmup work happens.
    """
    campaign = _fault_campaign(attack)
    oracle = attack.oracle if attack.oracle is not None else default_oracle()
    scheme, tree = attack.system.scheme, attack.system.tree

    plan = _build_plan(campaign)
    models: List[FaultModel] = [model for _point, model, _nested in plan.plan]
    claims: Dict[int, SecurityClaim] = {}
    for index, model in enumerate(models):
        window = getattr(model, "window", WINDOW_AT_CRASH)
        claims[index] = oracle.claim_for(
            getattr(model, "attack_class", model.name), scheme, tree, window
        )

    def judge(trial: TrialResult) -> AttackTrial:
        model = models[trial.index]
        claim = claims[trial.index]
        verdict = SecurityOracle.classify(
            claim, trial.outcome, trial.degenerate
        )
        return AttackTrial(
            index=trial.index,
            attack=model.name,
            attack_class=claim.attack,
            window=claim.window,
            crash_point=trial.crash_point,
            outcome=trial.outcome,
            expected=claim.expected,
            verdict=verdict,
            citation=claim.citation,
            detected_at=trial.detected_at,
            detail=trial.detail,
            description=trial.description,
            nested_step=trial.nested_step,
            probed=trial.probed,
            degenerate=trial.degenerate,
        )

    def watch(trial: TrialResult) -> None:
        judged = judge(trial)
        # Resolved per trial, not snapshotted before the run — a
        # session armed while the campaign executes still sees events.
        tracer = current_tracer()
        if tracer.enabled:
            tracer.emit(
                "attack.inject",
                ns=0.0,
                attack=judged.attack,
                trial=judged.index,
                window=judged.window,
            )
            if judged.outcome is Outcome.TAMPER_DETECTED:
                tracer.emit(
                    "attack.detected",
                    ns=0.0,
                    attack=judged.attack,
                    trial=judged.index,
                )
            elif judged.outcome is Outcome.SILENT_CORRUPTION:
                tracer.emit(
                    "attack.missed",
                    ns=0.0,
                    attack=judged.attack,
                    trial=judged.index,
                )
        if on_trial is not None:
            on_trial(judged)

    result = run_campaign(campaign, jobs=jobs, on_trial=watch)
    # Judge from the merged result, not the live hook: trials restored
    # from the result store never re-fire ``on_trial`` but still need
    # verdicts, and judging is pure.
    return AttackCampaignResult(
        scheme=scheme,
        tree=tree,
        seed=attack.seed,
        workload=attack.workload,
        trace_length=attack.trace_length,
        crash_points=list(result.crash_points),
        trials=[judge(trial) for trial in result.trials],
    )


def format_attack_matrix(result: AttackCampaignResult) -> str:
    """The scheme's attack × outcome table with claims, as markdown."""
    short = {
        "RECOVERED": "recovered",
        "DETECTED_UNRECOVERABLE": "detected",
        "TAMPER_DETECTED": "tamper-det",
        "RECOVERY_FAILED": "rec-failed",
        "SILENT_CORRUPTION": "SILENT!",
    }
    columns = [outcome.value for outcome in Outcome]
    header = (
        ["attack", "window", "claimed"]
        + [short[c] for c in columns]
        + ["vacuous", "verdict"]
    )
    rows: List[List[str]] = []
    for row in result.claim_rows():
        violations = row["verdicts"][Verdict.VIOLATION.value]
        rows.append(
            [
                str(row["attack"]),
                str(row["window"]),
                str(row["expected"]),
            ]
            + [str(row["outcomes"][c]) for c in columns]
            + [
                str(row["verdicts"][Verdict.VACUOUS.value]),
                "VIOLATION" if violations else "as claimed",
            ]
        )
    widths = [
        max(len(line[i]) for line in [header] + rows)
        for i in range(len(header))
    ]
    lines = [
        "| "
        + " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(header))
        + " |",
        "|" + "|".join("-" * (width + 2) for width in widths) + "|",
    ]
    for row in rows:
        lines.append(
            "| "
            + " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            + " |"
        )
    return "\n".join(lines)


def format_attack_summary(result: AttackCampaignResult) -> str:
    """Headline lines for ``repro attack``."""
    verdicts = result.verdict_counts()
    outcomes = result.outcome_counts()
    return "\n".join(
        [
            f"scheme={result.scheme.value} tree={result.tree.value} "
            f"workload={result.workload} seed={result.seed}",
            f"trials={len(result.trials)} over "
            f"{len(result.crash_points)} crash points "
            f"(trace of {result.trace_length} requests)",
            f"tamper detected (refused): "
            f"{outcomes[Outcome.TAMPER_DETECTED.value]}",
            f"silently accepted: "
            f"{outcomes[Outcome.SILENT_CORRUPTION.value]}",
            f"verdicts: {verdicts[Verdict.AS_CLAIMED.value]} as claimed, "
            f"{verdicts[Verdict.VACUOUS.value]} vacuous, "
            f"{verdicts[Verdict.VIOLATION.value]} VIOLATION(s)",
        ]
    )
