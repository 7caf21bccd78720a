"""Run every experiment and print every table.

Usage::

    python -m repro.experiments                  # quick pass (small traces)
    python -m repro.experiments --full           # paper-scale traces (slower)
    python -m repro.experiments fig10            # one experiment only
    python -m repro.experiments --json out.json  # machine-readable results
    python -m repro.experiments --jobs 4         # fan grids over 4 processes
    python -m repro.experiments --jobs auto      # one worker per core
    python -m repro.experiments --resume out/    # store results, skip done

``--jobs`` only changes wall-clock time: grid cells and campaign trials
are reduced in deterministic submission order, so the printed tables and
``--json`` output are byte-identical to a serial run.

``--resume DIR`` keeps the run's result store in ``DIR``: every
finished grid cell and campaign trial is stored there, so re-running
after an interrupt (SIGTERM, OOM, preemption) skips completed work and
produces the same ``results.json`` and ``--trace-out`` stream an
uninterrupted run would have.  ``DIR/results.json`` is the same plain
sorted JSON that ``--json`` writes, and ``DIR/manifest.json`` records
the run's store traffic.  Experiments without a grid or campaign
are simply recomputed; they are deterministic.  A failed cell or a
dead worker stops the run; the same ``--resume DIR`` re-run finishes it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, Optional

from repro.sim.checkpoint import atomic_write_json, fingerprint
from repro.sim.options import ExecutionOptions, execution_parser
from repro.telemetry.runtime import (
    TelemetrySpec,
    build_manifest,
    configure_telemetry,
    write_manifest,
)

from repro.experiments import (
    extra_dirty_footprint,
    extra_fault_coverage,
    fig05_recovery_osiris,
    fig07_clean_evictions,
    fig10_agit_perf,
    fig11_asit_perf,
    fig12_recovery_time,
    fig13_cache_sensitivity,
    headline,
    security_matrix,
)


def _run_fig05(full: bool, jobs: int = 1) -> dict:
    result = fig05_recovery_osiris.run()
    print("Figure 5 — Osiris recovery time vs memory size")
    print(fig05_recovery_osiris.format_table(result))
    print()
    print(fig05_recovery_osiris.format_chart(result))
    return {
        "recovery_seconds": {
            str(capacity): result.recovery_seconds[capacity]
            for capacity in result.capacities
        },
        "recovery_breakdown": {
            str(capacity): dict(result.breakdowns[capacity])
            for capacity in result.capacities
        },
        "hours_at_8tb": result.hours_at_8tb,
    }


def _run_fig07(full: bool, jobs: int = 1) -> dict:
    result = fig07_clean_evictions.run(
        trace_length=40_000 if full else 12_000, jobs=jobs
    )
    print("Figure 7 — counter-cache eviction split (write-back baseline)")
    print(fig07_clean_evictions.format_table(result))
    return {
        "clean_fraction": {
            name: result.clean_fraction(name) for name in result.benchmarks
        }
    }


def _run_fig10(full: bool, jobs: int = 1) -> dict:
    result = fig10_agit_perf.run(
        trace_length=30_000 if full else 10_000, jobs=jobs
    )
    print("Figure 10 — AGIT performance (normalized to write-back)")
    print(fig10_agit_perf.format_table(result))
    return {
        "gmean_overhead_percent": {
            scheme.value: value for scheme, value in result.averages.items()
        },
        "normalized": {
            comparison.benchmark: {
                scheme.value: comparison.normalized_time(scheme)
                for scheme in comparison.schemes()
            }
            for comparison in result.comparisons
        },
    }


def _run_fig11(full: bool, jobs: int = 1) -> dict:
    result = fig11_asit_perf.run(
        trace_length=30_000 if full else 10_000, jobs=jobs
    )
    print("Figure 11 — ASIT performance (normalized to write-back)")
    print(fig11_asit_perf.format_table(result))
    return {
        "gmean_overhead_percent": {
            scheme.value: value for scheme, value in result.averages.items()
        },
        "extra_writes_per_data_write": {
            scheme.value: value
            for scheme, value in result.extra_writes.items()
        },
    }


def _run_fig12(full: bool, jobs: int = 1) -> dict:
    result = fig12_recovery_time.run(functional=full)
    print("Figure 12 — Anubis recovery time vs metadata cache size")
    print(fig12_recovery_time.format_table(result))
    return {
        "agit_analytic": {
            str(size): result.agit_analytic[size]
            for size in result.cache_sizes
        },
        "asit_analytic": {
            str(size): result.asit_analytic[size]
            for size in result.cache_sizes
        },
        "agit_breakdown": {
            str(size): dict(result.agit_breakdown[size])
            for size in result.cache_sizes
        },
        "asit_breakdown": {
            str(size): dict(result.asit_breakdown[size])
            for size in result.cache_sizes
        },
        "agit_functional": {
            str(size): value
            for size, value in result.agit_functional.items()
        },
        "asit_functional": {
            str(size): value
            for size, value in result.asit_functional.items()
        },
        "agit_functional_phases": {
            str(size): dict(phases)
            for size, phases in result.agit_functional_phases.items()
        },
        "asit_functional_phases": {
            str(size): dict(phases)
            for size, phases in result.asit_functional_phases.items()
        },
    }


def _run_fig13(full: bool, jobs: int = 1) -> dict:
    result = fig13_cache_sensitivity.run(
        trace_length=20_000 if full else 8_000, jobs=jobs
    )
    print(f"Figure 13 — cache-size sensitivity ({result.benchmark})")
    print(fig13_cache_sensitivity.format_table(result))
    return {
        "normalized": {
            scheme.value: {str(size): value for size, value in series.items()}
            for scheme, series in result.normalized.items()
        }
    }


def _run_headline(full: bool, jobs: int = 1) -> dict:
    result = headline.run()
    print("Headline — recovery-time comparison")
    print(headline.format_table(result))
    return {
        "osiris_seconds": result.osiris_seconds,
        "agit_seconds": result.agit_seconds,
        "speedup": result.speedup,
    }


def _run_dirty_footprint(full: bool, jobs: int = 1) -> dict:
    footprints = None if full else [64, 256, 1024, 2048]
    result = extra_dirty_footprint.run(footprints=footprints)
    print("Extra — AGIT recovery work vs dirty footprint")
    print(extra_dirty_footprint.format_table(result))
    return {
        "tracked_blocks": {
            str(pages): result.tracked_blocks[pages]
            for pages in result.footprints
        },
        "recovery_seconds": {
            str(pages): result.recovery_seconds[pages]
            for pages in result.footprints
        },
    }


def _run_fault_coverage(full: bool, jobs: int = 1) -> dict:
    result = extra_fault_coverage.run(
        trials=240 if full else 60, jobs=jobs
    )
    print("Extra — fault-injection coverage by scheme")
    print(extra_fault_coverage.format_table(result))
    return {
        f"{campaign.scheme.value}/{campaign.tree.value}": campaign.matrix()
        for campaign in result.results
    }


def _run_security_matrix(full: bool, jobs: int = 1) -> dict:
    result = security_matrix.run(
        trace_length=2_000 if full else 1_200,
        num_crash_points=4 if full else 3,
        jobs=jobs,
    )
    print("Extra — scheme x attack security matrix")
    print(security_matrix.format_table(result))
    # A violated claim is an experiment failure, not a table footnote.
    result.require_as_claimed()
    return result.to_dict()


EXPERIMENTS: Dict[str, Callable[..., dict]] = {
    "fig05": _run_fig05,
    "fig07": _run_fig07,
    "fig10": _run_fig10,
    "fig11": _run_fig11,
    "fig12": _run_fig12,
    "fig13": _run_fig13,
    "headline": _run_headline,
    "dirty_footprint": _run_dirty_footprint,
    "fault_coverage": _run_fault_coverage,
    "security_matrix": _run_security_matrix,
}


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.experiments`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the Anubis paper's figures.",
        parents=[execution_parser()],
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        choices=[*EXPERIMENTS, []],
        help="subset to run (default: all)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale trace lengths and functional recovery sweeps",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write structured results to a JSON file",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="record structured telemetry events and write the merged "
        "JSONL stream here (byte-identical for any --jobs count)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the per-cell metrics snapshot (stable JSON schema) "
        "here; implies event recording",
    )
    parser.add_argument(
        "--trace-detail",
        action="store_true",
        help="also record high-frequency events (cache hits, per-check "
        "integrity events) — larger traces, higher overhead",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render a live progress line on stderr as grid cells finish",
    )
    return parser


def main(argv=None) -> int:
    """Entry point for ``python -m repro.experiments``."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # ``python -m repro experiments run fig10`` reads naturally; accept
    # (and drop) the optional "run" verb before the experiment names.
    if argv and argv[0] == "run":
        argv = argv[1:]
    args = build_parser().parse_args(argv)
    options = ExecutionOptions.from_args(args)
    selected = args.experiments or list(EXPERIMENTS)

    spec: Optional[TelemetrySpec] = None
    if args.trace_out or args.metrics_out:
        spec = TelemetrySpec(detail=args.trace_detail)
    collector = configure_telemetry(spec, progress=args.progress)
    started = time.perf_counter()

    collected: Dict[str, dict] = {}
    try:
        with options.applied() as cache:
            for name in selected:
                start = time.time()
                print("=" * 72)
                collected[name] = EXPERIMENTS[name](args.full, options.jobs)
                print(f"[{name} finished in {time.time() - start:.1f}s]\n")
    finally:
        if collector is not None:
            collector.close_progress()
        configure_telemetry(None)

    outputs: Dict[str, str] = {}
    if options.resume:
        artifact = os.path.join(options.resume, "results.json")
        atomic_write_json(artifact, collected)
        outputs["results"] = artifact
        print(f"experiment artifact written to {artifact}")
    if args.json:
        atomic_write_json(args.json, collected)
        outputs["json"] = args.json
        print(f"structured results written to {args.json}")
    if collector is not None:
        if args.trace_out:
            lines = collector.write_trace(args.trace_out)
            outputs["trace"] = args.trace_out
            print(f"{lines:,} telemetry events written to {args.trace_out}")
        if args.metrics_out:
            atomic_write_json(
                args.metrics_out,
                collector.metrics_snapshot(collector.results),
            )
            outputs["metrics"] = args.metrics_out
            print(f"metrics snapshot written to {args.metrics_out}")
    if cache is not None:
        stats = cache.stats()
        print(
            f"result cache: {stats['hits']} hits, {stats['misses']} "
            f"misses, {stats['bytes_saved']:,} bytes saved "
            f"({cache.directory})"
        )
    # The manifest documents telemetry *and* cache traffic — written
    # whenever either was configured and an output anchors its path.
    manifest_path = _manifest_path(args)
    if manifest_path is not None and (
        collector is not None or cache is not None
    ):
        outputs["manifest"] = manifest_path
        write_manifest(
            manifest_path,
            build_manifest(
                command="experiments",
                config_fingerprint=fingerprint("experiments", args.full),
                arguments={
                    "experiments": selected,
                    "full": args.full,
                    "jobs": options.jobs,
                    "trace_detail": args.trace_detail,
                },
                collector=collector,
                outputs=outputs,
                started=started,
                result_cache=cache.stats() if cache is not None else None,
            ),
        )
        print(f"run manifest written to {manifest_path}")
    return 0


def _manifest_path(args: argparse.Namespace) -> Optional[str]:
    """Where this run's manifest belongs.

    Next to ``results.json`` under ``--resume``; otherwise derived from
    the first requested output file so nothing in the working directory
    is clobbered implicitly.
    """
    if args.resume:
        return os.path.join(args.resume, "manifest.json")
    for base in (args.metrics_out, args.trace_out, args.json):
        if base:
            return base + ".manifest.json"
    return None


if __name__ == "__main__":
    sys.exit(main())
