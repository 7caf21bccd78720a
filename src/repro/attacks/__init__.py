"""Active-adversary machinery: attack catalogue, oracle, campaigns.

Three layers, mirroring :mod:`repro.faults`:

* :mod:`repro.attacks.catalogue` — deliberate-tamper
  :class:`~repro.faults.models.FaultModel` subclasses (replay,
  rollback, splicing, shadow-table forgery, crash-window variants);
* :mod:`repro.attacks.oracle` — the executable security-claims table:
  what every scheme promises against every attack in every tamper
  window, with citations for known vulnerabilities;
* :mod:`repro.attacks.campaign` — the parallel, resumable
  campaign runner that judges observed outcomes against the claims.
"""

from repro.attacks.catalogue import (
    ATTACK_CLASSES,
    AttackModel,
    CounterReplayAttack,
    CounterSpliceAttack,
    CrashWindowAttack,
    DataSpliceAttack,
    LineReplayAttack,
    ShadowForgeAttack,
    ShadowSpliceAttack,
    TreeNodeReplayAttack,
    attack_catalogue,
    catalogue_listing,
)
from repro.attacks.oracle import (
    ACCEPTED_OUTCOMES,
    Expectation,
    SUPPORTED_SYSTEMS,
    SecurityClaim,
    SecurityOracle,
    Verdict,
    default_oracle,
)
from repro.attacks.campaign import (
    AttackCampaignConfig,
    AttackCampaignResult,
    AttackTrial,
    format_attack_matrix,
    format_attack_summary,
    run_attack_campaign,
)

__all__ = [
    "ATTACK_CLASSES",
    "ACCEPTED_OUTCOMES",
    "AttackCampaignConfig",
    "AttackCampaignResult",
    "AttackModel",
    "AttackTrial",
    "CounterReplayAttack",
    "CounterSpliceAttack",
    "CrashWindowAttack",
    "DataSpliceAttack",
    "Expectation",
    "LineReplayAttack",
    "SecurityClaim",
    "SecurityOracle",
    "ShadowForgeAttack",
    "ShadowSpliceAttack",
    "SUPPORTED_SYSTEMS",
    "TreeNodeReplayAttack",
    "Verdict",
    "attack_catalogue",
    "catalogue_listing",
    "default_oracle",
    "format_attack_matrix",
    "format_attack_summary",
    "run_attack_campaign",
]
