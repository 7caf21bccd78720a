"""repro — a reproduction of *Anubis: Ultra-Low Overhead and Recovery
Time for Secure Non-Volatile Memories* (Zubair & Awad, ISCA 2019).

The package is a trace-driven functional + timing simulator of secure
NVM memory controllers:

* counter-mode encryption with split counters and SGX-style 56-bit
  counters (:mod:`repro.crypto`, :mod:`repro.counters`);
* Bonsai and SGX-style integrity trees (:mod:`repro.integrity`);
* write-back / strict-persistence / Osiris controllers
  (:mod:`repro.controller`);
* the Anubis contribution — AGIT and ASIT shadow tracking plus their
  recovery engines (:mod:`repro.core`);
* crash injection and whole-memory Osiris recovery
  (:mod:`repro.recovery`);
* SPEC-like synthetic traces and the simulation engine
  (:mod:`repro.traces`, :mod:`repro.sim`);
* a deterministic fault-injection campaign framework
  (:mod:`repro.faults`);
* one experiment module per paper figure (:mod:`repro.experiments`).

Quickstart::

    from repro import (
        SchemeKind, TreeKind, default_table1_config,
        generate_trace, profile, run_simulation,
    )

    config = default_table1_config(SchemeKind.AGIT_PLUS)
    trace = generate_trace(profile("libquantum"), length=20_000)
    result = run_simulation(config, trace)
    print(result.ns_per_access)
"""

from repro.config import (
    AnubisConfig,
    CacheConfig,
    CounterRecoveryKind,
    EncryptionConfig,
    MemoryConfig,
    SchemeKind,
    SystemConfig,
    TimingConfig,
    TreeKind,
    default_table1_config,
)
from repro.controller import (
    BonsaiController,
    MemoryRequest,
    Op,
    SgxController,
    build_controller,
)
from repro.controller.factory import build_layout
from repro.core import (
    AgitPlusController,
    AgitReadController,
    AgitRecovery,
    AsitController,
    AsitRecovery,
    anubis_recovery_time_s,
    osiris_recovery_time_s,
)
from repro.crypto import ProcessorKeys
from repro.errors import (
    IntegrityError,
    RecoveryError,
    ReproError,
    RootMismatchError,
    SilentCorruptionError,
    UnrecoverableError,
)
from repro.faults import (
    CampaignConfig,
    CampaignResult,
    Outcome,
    default_catalogue,
    run_campaign,
)
from repro.recovery import OsirisFullRecovery, crash, reincarnate
from repro.recovery.selective import SelectiveRestore
from repro.sim import (
    ParallelSweepExecutor,
    SchemeComparison,
    SimulationEngine,
    SimulationResult,
    resolve_jobs,
    run_simulation,
)
from repro.traces import (
    SPEC_PROFILES,
    SyntheticProfile,
    Trace,
    generate_trace,
    profile,
    replay,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "AnubisConfig",
    "CacheConfig",
    "EncryptionConfig",
    "MemoryConfig",
    "SchemeKind",
    "SystemConfig",
    "TimingConfig",
    "TreeKind",
    "default_table1_config",
    # controllers
    "BonsaiController",
    "SgxController",
    "AgitReadController",
    "AgitPlusController",
    "AsitController",
    "build_controller",
    "build_layout",
    "MemoryRequest",
    "Op",
    # crypto
    "ProcessorKeys",
    # errors
    "ReproError",
    "IntegrityError",
    "RootMismatchError",
    "RecoveryError",
    "UnrecoverableError",
    "SilentCorruptionError",
    # recovery
    "crash",
    "reincarnate",
    "SelectiveRestore",
    "AgitRecovery",
    "AsitRecovery",
    "OsirisFullRecovery",
    "anubis_recovery_time_s",
    "osiris_recovery_time_s",
    # fault injection
    "CampaignConfig",
    "CampaignResult",
    "Outcome",
    "default_catalogue",
    "run_campaign",
    # simulation
    "SimulationEngine",
    "SimulationResult",
    "SchemeComparison",
    "ParallelSweepExecutor",
    "resolve_jobs",
    "run_simulation",
    # traces
    "Trace",
    "SyntheticProfile",
    "SPEC_PROFILES",
    "profile",
    "generate_trace",
    "replay",
    "CounterRecoveryKind",
]
