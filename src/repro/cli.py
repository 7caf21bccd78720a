"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``describe`` — print the system configuration and physical layout
  implied by a scheme/tree/capacity choice;
* ``simulate`` — replay a SPEC-like workload under a scheme and print
  the run summary (time, traffic, cache behaviour);
* ``stats`` — replay a workload with telemetry enabled and print the
  full metric table (counts, means, p50/p95/max) plus per-kind event
  counts; ``--metrics-out``/``--trace-out`` write machine-readable
  snapshots, ``--format json`` emits the report as JSON, and
  ``--from-metrics`` re-reads a previously written snapshot (exiting
  nonzero with a clear message when the file is not a valid snapshot);
* ``recover-report`` — print the per-phase analytic recovery-time
  breakdown for Osiris and both Anubis engines (the flight recorder's
  phase taxonomy; phases sum to the headline recovery totals exactly);
* ``crash-demo`` — write a workload, inject a power failure, run the
  matching recovery engine, and report the outcome;
* ``faults`` — run a deterministic fault-injection campaign (crash
  points × fault catalogue through recovery) and print the coverage
  matrix; exits nonzero on silent corruption;
* ``attack`` — run an active-adversary campaign (replay, rollback,
  splicing, shadow-table forgery) and judge every trial against the
  per-scheme security-claims oracle; ``--list`` enumerates the
  catalogue; exits 5 when a claim is violated;
* ``experiments`` — shorthand for ``python -m repro.experiments``.

``faults``, ``attack`` and ``python -m repro.experiments`` take their
execution flags (``--jobs`` and ``--resume``) from one shared
declaration, :func:`repro.sim.options.execution_parser`.  Under
``--resume DIR`` the finished campaign is written to ``DIR`` as plain
sorted JSON (``campaign.json`` / ``attack_campaign.json``) next to the
run's result store.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.config import (
    GIB,
    KIB,
    SchemeKind,
    TreeKind,
    default_table1_config,
)
from repro.controller.factory import build_controller, build_layout
from repro.crypto.keys import ProcessorKeys
from repro.errors import ReproError
from repro.sim.engine import run_simulation
from repro.sim.checkpoint import atomic_write_json
from repro.sim.options import ExecutionOptions, execution_parser
from repro.traces.profiles import profile, profile_names
from repro.traces.synthetic import generate_trace


def _add_system_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scheme",
        choices=[kind.value for kind in SchemeKind],
        default=SchemeKind.WRITE_BACK.value,
        help="persistence scheme (default: write_back)",
    )
    parser.add_argument(
        "--tree",
        choices=[kind.value for kind in TreeKind],
        default=None,
        help="integrity-tree family (default: inferred from scheme)",
    )
    parser.add_argument(
        "--capacity-gib",
        type=int,
        default=16,
        help="memory capacity in GiB (default: 16, Table 1)",
    )
    parser.add_argument("--seed", type=int, default=0)


def _resolve_system(args: argparse.Namespace):
    scheme = SchemeKind(args.scheme)
    if args.tree is not None:
        tree = TreeKind(args.tree)
    elif scheme == SchemeKind.ASIT:
        tree = TreeKind.SGX
    else:
        tree = TreeKind.BONSAI
    config = default_table1_config(
        scheme, tree, capacity_bytes=args.capacity_gib * GIB
    )
    return config, ProcessorKeys(args.seed)


def _command_describe(args: argparse.Namespace) -> int:
    config, _keys = _resolve_system(args)
    layout = build_layout(config)
    print(f"scheme         : {config.scheme.value}")
    print(f"tree           : {config.tree.value}")
    print(f"capacity       : {config.memory.capacity_bytes // GIB} GiB "
          f"({config.memory.num_pages:,} pages)")
    print(f"counter cache  : {config.counter_cache.size_bytes // KIB} KiB, "
          f"{config.counter_cache.ways}-way")
    print(f"merkle cache   : {config.merkle_cache.size_bytes // KIB} KiB, "
          f"{config.merkle_cache.ways}-way")
    print(f"stop-loss      : {config.encryption.stop_loss_limit} "
          f"({config.encryption.counter_recovery.value} recovery)")
    print(f"tree levels    : {layout.root_level} stored + on-chip root")
    print(f"level counts   : {layout.level_counts}")
    print("\naddress map:")
    print(layout.describe())
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    config, keys = _resolve_system(args)
    trace = generate_trace(
        profile(args.workload), args.length, seed=args.seed
    )
    result = run_simulation(config, trace, keys)
    print(f"workload       : {trace}")
    print(f"scheme         : {config.scheme.value} ({config.tree.value})")
    print(f"elapsed        : {result.elapsed_ns / 1e6:.3f} ms "
          f"({result.ns_per_access:.1f} ns/access)")
    print(f"NVM reads      : {int(result.stat('nvm.reads')):,}")
    print(f"NVM writes     : {result.nvm_writes:,} "
          f"({result.extra_writes_per_data_write:.2f} extra per data write)")
    for cache in ("counter_cache", "merkle_cache", "metadata_cache"):
        hit_rate = result.stats.get(f"{cache}.hit_rate")
        if hit_rate is not None:
            print(f"{cache:<15}: {hit_rate:.1%} hit rate")
    return 0


def _print_metric_table(stats: dict, indent: str = "  ") -> None:
    """Aligned key/value rendering shared by the stats views."""
    width = max(len(key) for key in stats) if stats else 0
    for key in sorted(stats):
        value = stats[key]
        rendered = f"{value:,.4f}" if value % 1 else f"{int(value):,}"
        print(f"{indent}{key:<{width}} {rendered}")


def _stats_from_metrics(args: argparse.Namespace) -> int:
    """Validate and re-render a snapshot written by ``--metrics-out``."""
    import json

    from repro.telemetry.runtime import METRICS_SCHEMA

    path = args.from_metrics
    try:
        with open(path) as stream:
            snapshot = json.load(stream)
    except OSError as exc:
        raise ReproError(f"cannot read metrics file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ReproError(
            f"metrics file {path!r} is not valid JSON: {exc}"
        )
    if (
        not isinstance(snapshot, dict)
        or snapshot.get("schema") != METRICS_SCHEMA
    ):
        found = (
            snapshot.get("schema") if isinstance(snapshot, dict) else None
        )
        raise ReproError(
            f"metrics file {path!r} does not carry schema "
            f"{METRICS_SCHEMA!r} (found {found!r}) — point "
            "--from-metrics at a file written by --metrics-out"
        )
    cells = snapshot.get("cells")
    if not cells:
        raise ReproError(
            f"metrics file {path!r} is schema-valid but holds no cells "
            "— nothing to report"
        )
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return 0
    print(f"{len(cells)} cell(s) from {path}")
    for cell in cells:
        label = cell.get("benchmark", "?")
        scheme = cell.get("scheme", "?")
        print(f"\ncell {cell.get('cell', '?')} — {label}/{scheme}:")
        _print_metric_table(cell.get("stats") or {})
    print("\ntotals:")
    _print_metric_table(snapshot.get("totals") or {})
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    import json

    from repro.sim.checkpoint import atomic_write_json, fingerprint
    from repro.telemetry.events import write_jsonl
    from repro.telemetry.runtime import (
        RunCollector,
        TelemetrySpec,
        build_manifest,
        write_manifest,
    )

    if args.from_metrics:
        return _stats_from_metrics(args)

    config, keys = _resolve_system(args)
    trace = generate_trace(
        profile(args.workload), args.length, seed=args.seed
    )
    spec = TelemetrySpec(events=True, detail=args.detail)
    result = run_simulation(config, trace, keys, telemetry=spec)

    # Persist outputs before printing: a reader truncating stdout
    # (``| head``) must not cost the caller their files.
    collector = RunCollector()
    collector.absorb(result)
    if args.trace_out:
        with open(args.trace_out, "w") as stream:
            trace_lines = write_jsonl(collector.events, stream)
    if args.metrics_out:
        atomic_write_json(
            args.metrics_out, collector.metrics_snapshot([result])
        )
        write_manifest(
            args.metrics_out + ".manifest.json",
            build_manifest(
                command="stats",
                config_fingerprint=fingerprint(
                    "stats", config, args.workload, args.length, args.seed
                ),
                seed=args.seed,
                arguments={
                    "workload": args.workload,
                    "length": args.length,
                    "detail": args.detail,
                },
                collector=collector,
                outputs={"metrics": args.metrics_out},
            ),
        )

    kinds: dict = {}
    for event in result.events or []:
        kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1

    if args.format == "json":
        print(json.dumps(
            {
                "workload": args.workload,
                "length": args.length,
                "scheme": config.scheme.value,
                "tree": config.tree.value,
                "elapsed_ns": result.elapsed_ns,
                "ns_per_access": result.ns_per_access,
                "metrics": dict(sorted(result.stats.items())),
                "events": kinds,
                "telemetry": result.telemetry or {},
            },
            indent=2,
            sort_keys=True,
        ))
        return 0

    print(f"workload       : {trace}")
    print(f"scheme         : {config.scheme.value} ({config.tree.value})")
    print(f"elapsed        : {result.elapsed_ns / 1e6:.3f} ms "
          f"({result.ns_per_access:.1f} ns/access)")
    print("\nmetrics:")
    _print_metric_table(result.stats)
    print(f"\nevents ({len(result.events or [])} total"
          + (", detail on" if args.detail else "") + "):")
    for kind in sorted(kinds):
        print(f"  {kind:<24} {kinds[kind]:,}")
    if result.telemetry and result.telemetry.get("dropped_events"):
        print(f"  [buffer overflowed: "
              f"{result.telemetry['dropped_events']:,} events dropped]")

    if args.trace_out:
        print(f"\n{trace_lines:,} events written to {args.trace_out}")
    if args.metrics_out:
        print(f"metrics snapshot written to {args.metrics_out}")
    return 0


def _command_crash_demo(args: argparse.Namespace) -> int:
    from repro.telemetry.events import write_jsonl
    from repro.telemetry.runtime import TelemetrySpec, session

    if args.trace_out:
        # Record the whole demo — replay, power failure, recovery — as
        # one event stream; recovery steps ride the 100ns step model.
        with session(TelemetrySpec(events=True)) as active:
            status = _crash_demo_body(args)
        with open(args.trace_out, "w") as stream:
            lines = write_jsonl(active.tracer.events(), stream)
        print(f"{lines:,} telemetry events written to {args.trace_out}")
        return status
    return _crash_demo_body(args)


def _crash_demo_body(args: argparse.Namespace) -> int:
    from repro.core.recovery_agit import AgitRecovery
    from repro.core.recovery_asit import AsitRecovery
    from repro.recovery.crash import crash, reincarnate

    config, keys = _resolve_system(args)
    if not (config.scheme.is_recoverable_general and config.tree == TreeKind.BONSAI) and not (
        config.scheme.is_recoverable_sgx and config.tree == TreeKind.SGX
    ):
        print(
            f"scheme {config.scheme.value} on a {config.tree.value} tree is "
            "not recoverable — try --scheme agit_plus or --scheme asit"
        )
        return 1
    controller = build_controller(config, keys=keys)
    trace = generate_trace(profile(args.workload), args.length, seed=args.seed)
    from repro.traces.replay import replay

    oracle = replay(controller, trace)
    print(f"ran {len(trace)} requests; injecting power failure ...")
    crash(controller)
    reborn = reincarnate(controller)
    if config.scheme == SchemeKind.ASIT:
        report = AsitRecovery(reborn.nvm, reborn.layout, reborn).run()
        print(f"ASIT recovery: {report.nodes_recovered} nodes from the "
              f"Shadow Table in ~{report.estimated_seconds()*1e3:.2f} ms "
              f"(root ok: {report.shadow_root_matched})")
    elif config.scheme == SchemeKind.STRICT_PERSISTENCE:
        print("strict persistence: nothing to recover")
        report = None
    else:
        report = AgitRecovery(reborn.nvm, reborn.layout, reborn).run()
        print(f"AGIT recovery: {report.counters_repaired} counter blocks + "
              f"{report.nodes_rebuilt} tree nodes in "
              f"~{report.estimated_seconds()*1e3:.2f} ms "
              f"(root ok: {report.root_matched})")
    checked = list(oracle.items())[: args.verify]
    bad = sum(1 for address, data in checked if reborn.read(address) != data)
    print(f"data check: {len(checked) - bad}/{len(checked)} lines intact")
    return 0 if bad == 0 else 1


#: ``repro recover-report`` JSON schema identifier.
RECOVER_REPORT_SCHEMA = "repro.telemetry.recover-report/1"


def _command_recover_report(args: argparse.Namespace) -> int:
    import json

    from repro.core.recovery_time import (
        agit_recovery_breakdown,
        asit_recovery_breakdown,
        osiris_recovery_breakdown,
    )
    from repro.experiments.reporting import format_seconds
    from repro.sim.checkpoint import atomic_write_json

    capacity = args.capacity_gib * GIB
    cache = args.cache_kib * KIB
    # Same parameterization as the figures: AGIT sizes both metadata
    # caches, ASIT's unified metadata cache gets their sum.
    schemes = {
        "osiris": osiris_recovery_breakdown(capacity, args.stop_loss),
        "anubis_agit": agit_recovery_breakdown(cache, cache),
        "anubis_asit": asit_recovery_breakdown(2 * cache),
    }
    report = {
        "schema": RECOVER_REPORT_SCHEMA,
        "arguments": {
            "capacity_gib": args.capacity_gib,
            "cache_kib": args.cache_kib,
            "stop_loss": args.stop_loss,
        },
        "schemes": {
            name: {
                "phases": phases,
                "total_seconds": sum(phases.values()),
            }
            for name, phases in schemes.items()
        },
    }
    if args.json:
        atomic_write_json(args.json, report)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(
        "per-phase recovery breakdown "
        f"(osiris over {args.capacity_gib} GiB memory; anubis over "
        f"{args.cache_kib} KiB caches)"
    )
    for name, phases in schemes.items():
        total = sum(phases.values())
        print(f"\n{name}  — total {format_seconds(total)}")
        width = max(len(phase) for phase in phases)
        for phase, seconds in phases.items():
            share = seconds / total * 100.0 if total else 0.0
            print(
                f"  {phase:<{width}}  {seconds:>16.6f} s  {share:5.1f}%"
            )
    if args.json:
        print(f"\nreport written to {args.json}")
    return 0


def _resolve_faults_system(args: argparse.Namespace):
    """Scheme/tree resolution with the campaign-friendly aliases.

    ``--scheme anubis`` picks the paper's scheme for the chosen tree
    (AGIT+ on a Bonsai tree, ASIT on an SGX tree); ``--tree bmt`` is
    the paper's name for the Bonsai Merkle Tree.
    """
    tree_name = args.tree
    if tree_name == "bmt":
        tree_name = TreeKind.BONSAI.value
    scheme_name = args.scheme
    if scheme_name == "anubis":
        tree = TreeKind(tree_name) if tree_name else TreeKind.BONSAI
        scheme = (
            SchemeKind.ASIT if tree == TreeKind.SGX else SchemeKind.AGIT_PLUS
        )
    else:
        scheme = SchemeKind(scheme_name)
        if tree_name is not None:
            tree = TreeKind(tree_name)
        elif scheme == SchemeKind.ASIT:
            tree = TreeKind.SGX
        else:
            tree = TreeKind.BONSAI
    config = default_table1_config(
        scheme, tree, capacity_bytes=args.capacity_gib * GIB
    ).with_cache_size(args.cache_kib * KIB)
    return config


def _add_campaign_arguments(
    parser: argparse.ArgumentParser, crash_points: int
) -> None:
    """The system and warmup arguments ``faults`` and ``attack`` share;
    :func:`_resolve_faults_system` reads the system half."""
    parser.add_argument(
        "--scheme",
        choices=[kind.value for kind in SchemeKind] + ["anubis"],
        default="anubis",
        help="persistence scheme; 'anubis' = AGIT+ (bonsai) / ASIT (sgx)",
    )
    parser.add_argument(
        "--tree",
        choices=[kind.value for kind in TreeKind] + ["bmt"],
        default=None,
        help="integrity-tree family; 'bmt' is an alias for bonsai",
    )
    parser.add_argument(
        "--capacity-gib",
        type=int,
        default=1,
        help="memory capacity in GiB (default: 1 — campaigns fork the "
        "image per trial, smaller is faster)",
    )
    parser.add_argument(
        "--cache-kib",
        type=int,
        default=32,
        help="metadata cache size in KiB (default: 32)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workload",
        choices=["hammer"] + profile_names(),
        default="hammer",
        help="warmup workload (default: hammer, a rewrite-heavy hot set)",
    )
    parser.add_argument("--length", type=int, default=2_000)
    parser.add_argument(
        "--crash-points",
        type=int,
        default=crash_points,
        help=f"crash points sampled from the trace (default: "
        f"{crash_points})",
    )
    parser.add_argument("--probe-reads", type=int, default=8)


def _print_cache_traffic(cache) -> None:
    stats = cache.stats()
    print(
        f"\nresult cache: {stats['hits']} hits, {stats['misses']} misses, "
        f"{stats['bytes_saved']:,} bytes saved ({cache.directory})"
    )


#: ``repro faults`` / ``repro attack`` exit codes, distinct so CI can
#: tell regressions apart: 3 = at least one SILENT_CORRUPTION trial,
#: 4 = at least one RECOVERY_FAILED trial (and no silent corruption),
#: 5 = an attack campaign contradicted a declared security claim.
#: 2 stays reserved for :class:`~repro.errors.ReproError` (see
#: :func:`main`).
EXIT_SILENT_CORRUPTION = 3
EXIT_RECOVERY_FAILED = 4
EXIT_CLAIM_VIOLATION = 5


def _command_faults(args: argparse.Namespace) -> int:
    from repro.faults import CampaignConfig, Outcome, run_campaign
    from repro.faults.report import format_matrix, format_summary

    config = _resolve_faults_system(args)
    campaign = CampaignConfig(
        system=config,
        seed=args.seed,
        trials=None if args.exhaustive else args.trials,
        workload=args.workload,
        trace_length=args.length,
        num_crash_points=args.crash_points,
        probe_reads=args.probe_reads,
        nested_crash_fraction=args.nested_fraction,
    )
    options = ExecutionOptions.from_args(args)
    with options.applied() as cache:
        result = run_campaign(campaign, jobs=options.jobs)
    print(format_summary(result))
    print()
    print(format_matrix(result))
    silent = result.silent_trials()
    failed = [
        t for t in result.trials if t.outcome is Outcome.RECOVERY_FAILED
    ]
    for trial in (silent + failed)[:10]:
        print(
            f"\n{trial.outcome.value}: trial #{trial.index} "
            f"{trial.fault} at crash point {trial.crash_point}"
            + (f" (nested crash at write {trial.nested_step})"
               if trial.nested_step is not None else "")
        )
        print(f"  {trial.description}")
        if trial.detail:
            print(f"  {trial.detail}")
    if args.resume:
        artifact = os.path.join(args.resume, "campaign.json")
        atomic_write_json(artifact, result.to_dict())
        print(f"\ncampaign artifact written to {artifact}")
    if cache is not None:
        _print_cache_traffic(cache)
    if silent and not args.allow_silent:
        print(
            f"\nFAIL: {len(silent)} silent-corruption trial(s) — this "
            "scheme serves wrong data without raising",
            file=sys.stderr,
        )
        return EXIT_SILENT_CORRUPTION
    if failed and not args.allow_failed:
        print(
            f"\nFAIL: {len(failed)} recovery-failed trial(s) — recovery "
            "died on an unprincipled exception",
            file=sys.stderr,
        )
        return EXIT_RECOVERY_FAILED
    return 0


def _command_attack(args: argparse.Namespace) -> int:
    from repro.attacks import (
        AttackCampaignConfig,
        catalogue_listing,
        format_attack_matrix,
        format_attack_summary,
        run_attack_campaign,
    )
    from repro.faults.models import WINDOW_AT_CRASH, WINDOW_MID_RECOVERY

    if args.list:
        rows = [("attack class", "windows", "description")] + [
            tuple(row) for row in catalogue_listing()
        ]
        widths = [
            max(len(row[i]) for row in rows) for i in range(3)
        ]
        for index, row in enumerate(rows):
            print("  ".join(
                cell.ljust(widths[i]) for i, cell in enumerate(row)
            ).rstrip())
            if index == 0:
                print("  ".join("-" * width for width in widths))
        return 0

    config = _resolve_faults_system(args)
    if args.window == "both":
        windows = (WINDOW_AT_CRASH, WINDOW_MID_RECOVERY)
    else:
        windows = (args.window,)
    campaign = AttackCampaignConfig(
        system=config,
        seed=args.seed,
        trials=args.trials,
        workload=args.workload,
        trace_length=args.length,
        num_crash_points=args.crash_points,
        probe_reads=args.probe_reads,
        windows=windows,
    )
    options = ExecutionOptions.from_args(args)
    with options.applied() as cache:
        result = run_attack_campaign(campaign, jobs=options.jobs)
    print(format_attack_summary(result))
    print()
    print(format_attack_matrix(result))
    violations = result.violations()
    for trial in violations[:10]:
        print(
            f"\nVIOLATION: trial #{trial.index} {trial.attack} "
            f"({trial.window}) at crash point {trial.crash_point} -> "
            f"{trial.outcome.value}, but the claim is "
            f"{trial.expected.value}"
        )
        print(f"  {trial.description}")
        if trial.detail:
            print(f"  {trial.detail}")
    if args.resume:
        artifact = os.path.join(args.resume, "attack_campaign.json")
        atomic_write_json(artifact, result.to_dict())
        print(f"\nattack-campaign artifact written to {artifact}")
    if cache is not None:
        _print_cache_traffic(cache)
    if violations and not args.allow_violations:
        print(
            f"\nFAIL: {len(violations)} trial(s) contradict the declared "
            "security claims (silent acceptance of tampered state, or an "
            "unprincipled recovery crash)",
            file=sys.stderr,
        )
        return EXIT_CLAIM_VIOLATION
    return 0


def _command_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runner import main as experiments_main

    forwarded = list(args.experiment_args)
    return experiments_main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Anubis (ISCA 2019) reproduction toolkit.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    describe = commands.add_parser(
        "describe", help="print system configuration and layout"
    )
    _add_system_arguments(describe)
    describe.set_defaults(handler=_command_describe)

    simulate = commands.add_parser(
        "simulate", help="replay a workload under a scheme"
    )
    _add_system_arguments(simulate)
    simulate.add_argument(
        "--workload", choices=profile_names(), default="gcc"
    )
    simulate.add_argument("--length", type=int, default=10_000)
    simulate.set_defaults(handler=_command_simulate)

    stats = commands.add_parser(
        "stats",
        help="replay a workload with telemetry on; print the metric table",
    )
    _add_system_arguments(stats)
    stats.add_argument("--workload", choices=profile_names(), default="gcc")
    stats.add_argument("--length", type=int, default=10_000)
    stats.add_argument(
        "--detail",
        action="store_true",
        help="also record high-frequency events (cache hits, integrity "
        "checks)",
    )
    stats.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the structured event stream as JSONL",
    )
    stats.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the metrics snapshot (and PATH.manifest.json)",
    )
    stats.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="report rendering (default: table)",
    )
    stats.add_argument(
        "--from-metrics",
        metavar="PATH",
        default=None,
        help="skip the simulation and re-render a metrics snapshot "
        "written by --metrics-out; exits 2 with a clear message when "
        "the file is missing, schema-mismatched, or empty",
    )
    stats.set_defaults(handler=_command_stats)

    recover = commands.add_parser(
        "recover-report",
        help="per-phase analytic recovery-time breakdown "
        "(osiris, anubis AGIT/ASIT)",
    )
    recover.add_argument(
        "--capacity-gib",
        type=int,
        default=16,
        help="memory capacity for the Osiris model in GiB (default: 16)",
    )
    recover.add_argument(
        "--cache-kib",
        type=int,
        default=256,
        help="per-cache size for the Anubis models in KiB "
        "(default: 256)",
    )
    recover.add_argument(
        "--stop-loss",
        type=int,
        default=4,
        help="Osiris stop-loss limit (default: 4)",
    )
    recover.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="report rendering (default: table)",
    )
    recover.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the report as JSON to PATH",
    )
    recover.set_defaults(handler=_command_recover_report)

    demo = commands.add_parser(
        "crash-demo", help="workload -> power failure -> recovery"
    )
    _add_system_arguments(demo)
    demo.add_argument("--workload", choices=profile_names(), default="gcc")
    demo.add_argument("--length", type=int, default=5_000)
    demo.add_argument(
        "--verify", type=int, default=500, help="lines to read back"
    )
    demo.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="record the demo (replay, crash, recovery) as JSONL events",
    )
    demo.set_defaults(handler=_command_crash_demo)

    execution = execution_parser()
    faults = commands.add_parser(
        "faults",
        parents=[execution],
        help="deterministic fault-injection campaign with coverage matrix",
    )
    _add_campaign_arguments(faults, crash_points=8)
    faults.add_argument(
        "--trials", type=int, default=100, help="number of fault trials"
    )
    faults.add_argument(
        "--exhaustive",
        action="store_true",
        help="ignore --trials and run every crash point x every fault once",
    )
    faults.add_argument(
        "--nested-fraction",
        type=float,
        default=0.25,
        help="fraction of trials that also crash during recovery",
    )
    faults.add_argument(
        "--allow-silent",
        action="store_true",
        help="exit 0 even when silent corruption is found (control runs)",
    )
    faults.add_argument(
        "--allow-failed",
        action="store_true",
        help="exit 0 even when trials classify RECOVERY_FAILED",
    )
    faults.set_defaults(handler=_command_faults)

    attack = commands.add_parser(
        "attack",
        parents=[execution],
        help="active-adversary campaign judged against per-scheme "
        "security claims",
    )
    attack.add_argument(
        "--list",
        action="store_true",
        help="enumerate the attack catalogue and exit",
    )
    _add_campaign_arguments(attack, crash_points=6)
    attack.add_argument(
        "--trials",
        type=int,
        default=None,
        help="cap the trial count (default: exhaustive — every crash "
        "point x every applicable attack once)",
    )
    attack.add_argument(
        "--window",
        choices=["at_crash", "mid_recovery", "both"],
        default="both",
        help="tamper window(s) to exercise (default: both)",
    )
    attack.add_argument(
        "--allow-violations",
        action="store_true",
        help="exit 0 even when trials contradict the declared claims "
        "(debugging only)",
    )
    attack.set_defaults(handler=_command_attack)

    experiments = commands.add_parser(
        "experiments", help="run the paper-figure harness"
    )
    # REMAINDER so flags like --json pass through to the harness.
    experiments.add_argument("experiment_args", nargs=argparse.REMAINDER)
    experiments.set_defaults(handler=_command_experiments)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # The reader (``| head``) closed stdout early; output files are
        # written before any printing, so nothing was lost.
        sys.stderr.close()
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
