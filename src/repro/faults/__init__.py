"""Deterministic fault-injection campaigns (the robustness harness).

Anubis's headline claim is not just *fast* recovery but *correct*
recovery: after any power failure the system must either restore a
verified state or refuse to serve data (§5).  This package turns that
claim into an executable artifact:

* :mod:`repro.faults.models` — a catalogue of fault models layered on
  the :class:`~repro.mem.nvm.NvmDevice` and
  :class:`~repro.mem.wpq.WritePendingQueue` injection hooks: weak-ADR
  dropped/torn flushes, targeted bit flips, stuck-at cells, rollback
  (replay) of recorded triples, and shadow-table tampering;
* :mod:`repro.faults.campaign` — the runner: warm a controller on a
  trace, fork the persistent domain at sampled crash points, inject one
  fault per trial, run the scheme's recovery engine, and classify every
  trial against the plaintext oracle;
* :mod:`repro.faults.report` — per-scheme × per-fault coverage
  matrices.

The one outcome a secure memory controller must never produce is
``SILENT_CORRUPTION`` — a wrong plaintext served without any exception.
AGIT/ASIT campaigns must report zero; the write-back control run
demonstrates the classifier *can* flag it.
"""

from repro.faults.campaign import (
    CLASSIFIED_OUTCOMES,
    CampaignConfig,
    CampaignResult,
    Outcome,
    TrialResult,
    campaign_cache_identity,
    run_campaign,
)
from repro.faults.models import (
    WINDOW_AT_CRASH,
    WINDOW_MID_RECOVERY,
    BitFlipFault,
    CleanCrashFault,
    DroppedFlushFault,
    FaultModel,
    InjectedFault,
    InjectionContext,
    RollbackFault,
    ShadowTamperFault,
    StuckAtFault,
    TornWriteFault,
    default_catalogue,
)
from repro.faults.report import coverage_matrix, format_matrix

__all__ = [
    "Outcome",
    "CLASSIFIED_OUTCOMES",
    "WINDOW_AT_CRASH",
    "WINDOW_MID_RECOVERY",
    "CampaignConfig",
    "CampaignResult",
    "TrialResult",
    "campaign_cache_identity",
    "run_campaign",
    "FaultModel",
    "InjectedFault",
    "InjectionContext",
    "CleanCrashFault",
    "DroppedFlushFault",
    "TornWriteFault",
    "BitFlipFault",
    "StuckAtFault",
    "RollbackFault",
    "ShadowTamperFault",
    "default_catalogue",
    "coverage_matrix",
    "format_matrix",
]
