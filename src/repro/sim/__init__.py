"""Simulation engine: build a system, replay a trace, collect results."""

from repro.sim.checkpoint import atomic_write_json, fingerprint
from repro.sim.engine import SimulationEngine, run_simulation
from repro.sim.parallel import ParallelSweepExecutor, resolve_jobs
from repro.sim.results import SchemeComparison, SimulationResult

__all__ = [
    "SimulationEngine",
    "run_simulation",
    "SimulationResult",
    "SchemeComparison",
    "ParallelSweepExecutor",
    "resolve_jobs",
    "atomic_write_json",
    "fingerprint",
]
