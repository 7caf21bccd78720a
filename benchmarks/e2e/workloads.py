"""Figure-cell workloads of the end-to-end benchmark, and their runner.

Every cell is what ``run_simulation`` does for one (trace, scheme) pair
under ``fig10.run``/``fig11.run`` at ``--jobs 1``: ``build_controller``,
``replay_batched`` and ``finalize``, with the defaults a user gets (batch
mode ``auto``, telemetry off, no result cache).  A recovery cell is the
functional cycle of ``fig12``: build, replay, ``crash``, ``reincarnate``
and the scheme's recovery engine.

Inputs come only from the seed: seeded ``generate_trace`` traces and
``ProcessorKeys(seed)``.  Each cell yields a digest of its simulated
outputs and passes a read-back check, so a run that times the wrong
thing, or computes a different answer, is visible.

Timing: a run replays every cell in passes while they fit in
``seconds`` (at least :data:`MIN_PASSES`), under a :class:`HostClock`
that probes the host's speed throughout; every time is reported net of
the probes and scaled to the reference host, and each cell's time is
its median over the passes.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import repro
from repro.config import (
    KIB,
    MIB,
    CounterRecoveryKind,
    SchemeKind,
    SystemConfig,
    TreeKind,
    default_table1_config,
)
from repro.core.recovery_agit import AgitRecovery
from repro.core.recovery_asit import AsitRecovery
from repro.crypto.keys import ProcessorKeys
from repro.traces.profiles import profile

from hostclock import HostClock, Span
from layers import LAYERS, LayerTracer

# Called through their modules, so that the layer tracer's wrappers are
# what runs.  Packages re-export functions named like these modules
# (``repro.traces.replay``), hence import_module.
factory = importlib.import_module("repro.controller.factory")
crash = importlib.import_module("repro.recovery.crash")
replay = importlib.import_module("repro.traces.replay")
synthetic = importlib.import_module("repro.traces.synthetic")

#: Every simulator module a run imports, including those the simulator
#: itself imports lazily; ``setup_s`` counts the time to import them.
SIMULATOR_MODULES = (
    "repro.config",
    "repro.controller.batch",
    "repro.controller.factory",
    "repro.core.agit",
    "repro.core.asit",
    "repro.core.recovery_agit",
    "repro.core.recovery_asit",
    "repro.crypto.keys",
    "repro.recovery.crash",
    "repro.traces.profiles",
    "repro.traces.replay",
    "repro.traces.synthetic",
)

#: Passes every untraced run makes; two, so that digests can be compared.
MIN_PASSES = 2
#: Fresh-interpreter imports timed per run; the median counts.
IMPORT_SAMPLES = 5
#: Data lines read back and compared after each cell.
READBACK_SAMPLES = 64

FIG10_SCHEMES = (
    SchemeKind.WRITE_BACK,
    SchemeKind.STRICT_PERSISTENCE,
    SchemeKind.OSIRIS,
    SchemeKind.AGIT_READ,
    SchemeKind.AGIT_PLUS,
)
FIG11_SCHEMES = (
    SchemeKind.WRITE_BACK,
    SchemeKind.STRICT_PERSISTENCE,
    SchemeKind.OSIRIS,
    SchemeKind.ASIT,
)

#: Name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END_UNITS = {
    "us_per_access": "us",
    "slowest_cell_us_per_access": "us",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

#: Name -> unit of every per-layer metric (``--trace 1``).
PER_LAYER_UNITS: Dict[str, str] = {}
for _layer in LAYERS:
    PER_LAYER_UNITS[f"{_layer}.calls"] = "count"
    PER_LAYER_UNITS[f"{_layer}.self_share"] = "fraction"
PER_LAYER_UNITS.update({
    "unattributed.self_share": "fraction",
    "controller.batch.batched_share": "fraction",
    "counter_cache.hit_ratio": "fraction",
    "merkle_cache.hit_ratio": "fraction",
    "metadata_cache.hit_ratio": "fraction",
    "trace_overhead": "fraction",
    "recovery_s": "s",
})

_ACCESS = ("controller", "SecureMemoryController.access")


@dataclass(frozen=True)
class Cell:
    """One figure cell: a trace profile under one system configuration."""

    name: str
    profile: str
    config: SystemConfig
    #: Recovery engine class for a crash-recovery cycle, else None.
    recovery: Optional[type] = None


@dataclass(frozen=True)
class Workload:
    """A fixed list of cells and the length of each profile's trace."""

    name: str
    why: str
    #: Trace profile -> accesses in its trace.
    lengths: Dict[str, int]
    cells: Tuple[Cell, ...]


def _figure_cells(tree: TreeKind, schemes, profiles) -> Tuple[Cell, ...]:
    base = default_table1_config(tree=tree)
    return tuple(
        Cell(f"{name}/{scheme.value}", name, base.with_scheme(scheme))
        for name in profiles
        for scheme in schemes
    )


def _recovery_cells() -> Tuple[Cell, ...]:
    # AGIT recovers counters with phase bits (§2.4), not Osiris trials.
    # A trial accepts a candidate whose decrypt is one SECDED correction
    # away, and a wrong candidate passes that test about once in 30,000
    # trials, so with Osiris trials recovery fails for about one seed in
    # twenty on this trace.  ASIT recovery time grows with the cache, and
    # at 4 MiB a pass no longer fits a run twice on a slow host, so the
    # sizes stop at 2 MiB.
    cells = []
    for size in (512 * KIB, 1 * MIB, 2 * MIB):
        for scheme, tree, engine in (
            (SchemeKind.AGIT_PLUS, TreeKind.BONSAI, AgitRecovery),
            (SchemeKind.ASIT, TreeKind.SGX, AsitRecovery),
        ):
            config = default_table1_config(scheme, tree).with_cache_size(size)
            if engine is AgitRecovery:
                config = replace(config, encryption=replace(
                    config.encryption,
                    counter_recovery=CounterRecoveryKind.PHASE,
                ))
            cells.append(Cell(
                f"{scheme.value}@{size // KIB}KiB", "libquantum", config, engine
            ))
    return tuple(cells)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "bonsai_miss",
            "Bonsai Table-1 cells on mcf and omnetpp: random footprints "
            "that miss the metadata caches, so the scalar read path "
            "dominates and batching barely helps",
            {"mcf": 4_000, "omnetpp": 4_000},
            _figure_cells(TreeKind.BONSAI, FIG10_SCHEMES, ("mcf", "omnetpp")),
        ),
        # Not lbm: in batch mode auto, the batch engine's per-chunk
        # choice of plan on lbm's and leslie3d's rewritten streams flips
        # with the seed, so their host work varies by up to 58% between
        # seeds.  zeusmp and libquantum vary by under 3%.
        Workload(
            "bonsai_write",
            "Bonsai Table-1 cells on zeusmp and libquantum: write-leaning "
            "and hot-rewrite traces, the batch engine's home regime and "
            "the write path (counters, seal, WPQ, persists)",
            {"zeusmp": 6_000, "libquantum": 6_000},
            _figure_cells(
                TreeKind.BONSAI, FIG10_SCHEMES, ("zeusmp", "libquantum")
            ),
        ),
        Workload(
            "sgx_asit",
            "SGX Table-1 cells on mcf, lbm and gcc: SGX counters, MACs, "
            "the combined cache and the ASIT Shadow Table; batching never "
            "runs, so Bonsai-only changes must leave it unchanged",
            {"mcf": 4_000, "lbm": 4_000, "gcc": 4_000},
            _figure_cells(TreeKind.SGX, FIG11_SCHEMES, ("mcf", "lbm", "gcc")),
        ),
        Workload(
            "recovery",
            "Fig. 12 crash-recovery cycles of AGIT-Plus and ASIT at 512 "
            "KiB, 1 and 2 MiB per cache: crash, reincarnate, recovery and "
            "large controller builds dominate",
            {"libquantum": 6_000},
            _recovery_cells(),
        ),
    )
}


@dataclass
class CellResult:
    """What one cell did, how long it took, and whether it was right."""

    name: str
    accesses: int = 0
    #: Replay and finalize (CPU time counts).
    replay: Span = Span(0, 0)
    #: The controller build (wall time counts).
    build: Span = Span(0, 0)
    #: The whole cell, build to read-back check (wall time counts).
    whole: Span = Span(0, 0)
    #: Crash, reincarnation and recovery (CPU time counts).
    recovery: Span = Span(0, 0)
    digest: str = ""
    stats: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None

    def record(self) -> dict:
        """JSON-ready summary (the simulated stats stay out: the digest
        stands for them)."""
        return {
            "name": self.name,
            "accesses": self.accesses,
            "cpu_s": self.replay.scaled_cpu_ns / 1e9,
            "recovery_cpu_s": self.recovery.scaled_cpu_ns / 1e9,
            "digest": self.digest,
            "error": self.error,
        }


@dataclass
class PassResult:
    """One replay of every cell of a workload."""

    cells: List[CellResult]
    #: Trace generation and key derivation (wall time counts).
    generate: Span


def cache_stats(controller) -> Dict[str, float]:
    """Flat stats of whichever metadata caches the controller has."""
    flat: Dict[str, float] = {}
    for name in ("counter_cache", "merkle_cache", "metadata_cache"):
        cache = getattr(controller, name, None)
        if cache is not None:
            cache.stats.merge_into(flat)
    return flat


def digest(elapsed_ns: float, stats: Dict[str, float], extra=None) -> str:
    """sha256 over a cell's simulated time, statistics and extras."""
    payload = json.dumps([elapsed_ns, sorted(stats.items()), extra])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the simulator, scaled
    by probes the interpreter runs while it imports."""
    code = (
        "import importlib, sys\n"
        "from hostclock import HostClock\n"
        "with HostClock() as clock:\n"
        "    start = clock.mark()\n"
        "    for name in sys.argv[1:]:\n"
        "        importlib.import_module(name)\n"
        "    print(clock.span(start).scaled_wall_ns / 1e9)\n"
    )
    source = os.path.dirname(os.path.dirname(repro.__file__))
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((source, here)))
    completed = subprocess.run(
        [sys.executable, "-c", code, *SIMULATOR_MODULES],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(completed.stdout)


def _read_back(controller, shadow: Dict[int, bytes], rng: random.Random) -> int:
    """Read seeded sample lines; count those differing from the last
    value the trace wrote."""
    addresses = sorted(shadow)
    sample = rng.sample(addresses, min(READBACK_SAMPLES, len(addresses)))
    return sum(controller.read(address) != shadow[address] for address in sample)


def _run_cell(
    cell: Cell, trace, keys: ProcessorKeys, rng: random.Random,
    clock: HostClock,
) -> CellResult:
    """Run one cell (its ``whole`` span is left for the caller to set)."""
    result = CellResult(cell.name, accesses=len(trace))
    start = clock.mark()
    controller = factory.build_controller(cell.config, keys=keys)
    result.build = clock.span(start)
    start = clock.mark()
    shadow = replay.replay_batched(controller, trace)
    # A crash cycle loses what is still in the WPQ, so it does not drain.
    elapsed = (
        controller.elapsed_ns if cell.recovery else controller.finalize()
    )
    result.replay = clock.span(start)
    result.stats = controller.collect_stats()
    result.stats.update(cache_stats(controller))
    extra = None
    if cell.recovery is not None:
        start = clock.mark()
        crash.crash(controller)
        controller = crash.reincarnate(controller)
        report = cell.recovery(
            controller.nvm, controller.layout, controller
        ).run()
        result.recovery = clock.span(start)
        extra = [report.estimated_ns(), report.breakdown_seconds()]
    result.digest = digest(elapsed, result.stats, extra)
    mismatches = _read_back(controller, shadow, rng)
    if mismatches:
        result.error = f"read-back: {mismatches} lines differ"
    return result


def run_pass(
    workload: Workload,
    seed: int,
    lengths: Dict[str, int],
    clock: HostClock,
    tracer: Optional[LayerTracer] = None,
) -> PassResult:
    """Generate the inputs, then run every cell once, in order."""
    gc.collect()
    if tracer is not None:
        tracer.start(lanes=len(workload.cells) + 1)
        tracer.begin_lane("setup")
    start = clock.mark()
    traces = {
        name: synthetic.generate_trace(profile(name), length, seed=seed)
        for name, length in lengths.items()
    }
    keys = ProcessorKeys(seed)
    generate = clock.span(start)
    cells = []
    for cell in workload.cells:
        # Garbage from the previous cell is collected here, untimed,
        # rather than inside the next cell's replay.
        gc.collect()
        if tracer is not None:
            tracer.begin_lane(cell.name)
        rng = random.Random(f"{seed}:{cell.name}")
        start = clock.mark()
        try:
            result = _run_cell(cell, traces[cell.profile], keys, rng, clock)
        except Exception:  # noqa: BLE001 -- a failed cell is counted
            result = CellResult(
                cell.name, error=traceback.format_exc(limit=-1).strip()
            )
        result.whole = clock.span(start)
        cells.append(result)
    if tracer is not None:
        tracer.stop()
    return PassResult(cells, generate)


def _us_per_access(cells: List[CellResult]) -> float:
    """Unscaled CPU microseconds per access."""
    cpu = sum(cell.replay.cpu_ns for cell in cells)
    return cpu / sum(cell.accesses for cell in cells) / 1000.0


def _hit_ratio(cells: List[CellResult], cache: str) -> float:
    hits = sum(cell.stats.get(f"{cache}.hits", 0) for cell in cells)
    misses = sum(cell.stats.get(f"{cache}.misses", 0) for cell in cells)
    return hits / (hits + misses) if hits + misses else 0.0


def run_workload(
    name: str,
    seed: int,
    seconds: float = 0.0,
    trace: bool = False,
    length: Optional[int] = None,
) -> Tuple[dict, Optional[LayerTracer]]:
    """Run one workload; returns the run record and, when traced, the
    tracer holding the per-layer spans.

    Untraced, passes run while another fits in ``seconds`` (at least
    :data:`MIN_PASSES` run).  Traced, one untraced pass is followed by
    one traced pass over the same inputs, without probes; the per-layer
    numbers come from the traced pass, and both passes' digests must
    agree.  ``length`` overrides every trace's length (tests use it).
    """
    workload = WORKLOADS[name]
    started_ns = time.time_ns()
    lengths = (
        dict.fromkeys(workload.lengths, length) if length
        else workload.lengths
    )
    tracer = None
    clock = HostClock()
    began = time.perf_counter()
    with clock:
        passes = [run_pass(workload, seed, lengths, clock)]
        while not trace and (len(passes) < MIN_PASSES or (
            (time.perf_counter() - began) * (len(passes) + 1) / len(passes)
            <= seconds
        )):
            passes.append(run_pass(workload, seed, lengths, clock))
    imports = [] if trace else [
        import_seconds() for _ in range(IMPORT_SAMPLES)
    ]
    if trace:
        tracer = LayerTracer()
        tracer.install()
        try:
            passes.append(
                run_pass(workload, seed, lengths, HostClock(), tracer)
            )
        finally:
            tracer.uninstall()
    attempted = sum(len(p.cells) for p in passes)
    failed = sum(cell.error is not None for p in passes for cell in p.cells)
    consistent = all(
        len({cell.digest for cell in runs}) == 1
        for runs in zip(*(p.cells for p in passes))
    )
    record = {
        "workload": name,
        "seed": seed,
        "started_ns": started_ns,
        "trace": int(trace),
        "lengths": lengths,
        "passes": len(passes),
        "correct": failed == 0 and consistent,
        "digests_agree": consistent,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "cells": [cell.record() for cell in passes[0].cells],
        "cpu_s_by_pass": [
            [cell.replay.cpu_ns / 1e9 for cell in p.cells] for p in passes
        ],
        "scale_by_pass": [
            [cell.replay.scale for cell in p.cells] for p in passes
        ],
        "probes": len(clock.stamps),
        "metrics": {},
    }
    # A cell that failed in any pass is left out of the timings.
    timed = [
        index for index, runs in enumerate(zip(*(p.cells for p in passes)))
        if not any(run.error for run in runs)
    ]
    if not timed:
        return record, tracer
    if trace:
        untraced, traced = (
            [p.cells[index] for index in timed] for p in passes
        )
        values = _layer_metrics(tracer, untraced, traced)
        record["layers"] = tracer.report()
        units = PER_LAYER_UNITS
    else:
        values = _end_to_end_metrics(passes, timed, imports, record)
        units = END_TO_END_UNITS
    record["metrics"] = {
        metric: {"value": values[metric], "unit": unit}
        for metric, unit in units.items()
    }
    return record, tracer


def _end_to_end_metrics(
    passes: List[PassResult],
    timed: List[int],
    imports: List[float],
    record: dict,
) -> Dict[str, float]:
    """The end-to-end metrics, every time scaled to the reference host;
    a cell's time is its median over the passes."""
    record["import_s"] = imports
    record["recovery_s"] = statistics.median(
        sum(p.cells[index].recovery.scaled_cpu_ns for index in timed) / 1e9
        for p in passes
    )

    def per_cell(index: int, time_of) -> float:
        return statistics.median(time_of(p.cells[index]) for p in passes)

    cpu_ns = {
        index: per_cell(index, lambda c: c.replay.scaled_cpu_ns)
        for index in timed
    }
    accesses = {index: passes[0].cells[index].accesses for index in timed}
    startup_s = statistics.median(imports) + statistics.median(
        p.generate.scaled_wall_ns for p in passes
    ) / 1e9
    return {
        "us_per_access": (
            sum(cpu_ns.values()) / sum(accesses.values()) / 1000.0
        ),
        "slowest_cell_us_per_access": max(
            cpu_ns[index] / accesses[index] for index in timed
        ) / 1000.0,
        "wall_s": startup_s + sum(
            per_cell(index, lambda c: c.whole.scaled_wall_ns)
            for index in timed
        ) / 1e9,
        "setup_s": startup_s + sum(
            per_cell(index, lambda c: c.build.scaled_wall_ns)
            for index in timed
        ) / 1e9,
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0,
    }


def _layer_metrics(
    tracer: LayerTracer,
    untraced: List[CellResult],
    traced: List[CellResult],
) -> Dict[str, float]:
    total = tracer.total_ns
    values: Dict[str, float] = {}
    calls = tracer.layer_calls()
    for index, layer in enumerate(tracer.layers):
        values[f"{layer}.calls"] = calls[layer]
        values[f"{layer}.self_share"] = tracer.self_ns[index] / total
    values["unattributed.self_share"] = tracer.unattributed_ns / total
    accesses = sum(cell.accesses for cell in traced)
    values["controller.batch.batched_share"] = (
        1.0 - tracer.function_calls(*_ACCESS) / accesses
    )
    for cache in ("counter_cache", "merkle_cache", "metadata_cache"):
        values[f"{cache}.hit_ratio"] = _hit_ratio(traced, cache)
    values["trace_overhead"] = (
        _us_per_access(traced) / _us_per_access(untraced) - 1.0
    )
    values["recovery_s"] = sum(
        c.recovery.scaled_cpu_ns for c in untraced
    ) / 1e9
    return values
