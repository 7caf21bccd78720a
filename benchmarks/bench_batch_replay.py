"""Steady-state throughput of batched vs scalar trace replay.

The batch engine (``repro.controller.batch``) inlines the
steady-state hot path — warmed metadata caches, cache-fitting working
set — which is where sweep and campaign wall-clock actually goes.
This benchmark measures exactly that regime: each workload's footprint
fits the configured metadata caches, the caches are warmed with a
scalar prefix, and only the steady-state portion is timed, scalar
(``replay``) against batched (``replay_batched``).
Results land in ``BENCH_batch_replay.json``.

Usage::

    python benchmarks/bench_batch_replay.py                  # measure + JSON
    python benchmarks/bench_batch_replay.py --check          # fail below gate
    python benchmarks/bench_batch_replay.py --json out.json  # custom path

Check mode re-measures and exits nonzero unless the headline schemes
(write_back, osiris) beat scalar replay by ``--min-speedup`` on both
the uniform and the SPEC-like workload, so a batch-engine performance
regression fails CI loudly.  Cold or fallback-heavy runs are *not*
gated — the engine's contract there is identical results, not speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.config import (  # noqa: E402
    CacheConfig,
    KIB,
    MIB,
    MemoryConfig,
    SchemeKind,
    SystemConfig,
    TreeKind,
    UpdatePolicy,
)
from repro.controller.factory import build_controller  # noqa: E402
from repro.crypto.keys import ProcessorKeys  # noqa: E402
from repro.traces.profiles import SyntheticProfile  # noqa: E402
from repro.traces.replay import replay, replay_batched  # noqa: E402
from repro.traces.synthetic import generate_trace  # noqa: E402

DEFAULT_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_batch_replay.json",
)

#: Steady-state geometry: 64KiB metadata caches over a 16MiB memory —
#: big enough that both workloads' counter working sets are resident
#: after warmup, so the timed region measures the hot path, not cold
#: misses (which run scalar by design).
CACHE_BYTES = 64 * KIB
MEMORY_BYTES = 16 * MIB

#: Workloads: a uniform random sweep and a SPEC-like hot/cold mix
#: (bursty, write-heavy hot set with a cold tail).
WORKLOADS = {
    "uniform": SyntheticProfile(
        name="uniform",
        write_fraction=0.3,
        pattern="random",
        footprint_bytes=256 * KIB,
    ),
    "spec_like": SyntheticProfile(
        name="spec_like",
        write_fraction=0.35,
        pattern="hot_cold",
        footprint_bytes=1024 * KIB,
        hot_bytes=192 * KIB,
        hot_fraction=0.92,
        burst_length=4,
    ),
}

SCHEMES = {
    "write_back": SchemeKind.WRITE_BACK,
    "osiris": SchemeKind.OSIRIS,
    "selective": SchemeKind.SELECTIVE,
    "agit_plus": SchemeKind.AGIT_PLUS,
}

#: Schemes the --check gate holds to --min-speedup (the acceptance
#: headliners); the rest are reported but not gated.
GATED_SCHEMES = ("write_back", "osiris")


def _config(scheme: SchemeKind) -> SystemConfig:
    return SystemConfig(
        scheme=scheme,
        tree=TreeKind.BONSAI,
        update_policy=UpdatePolicy.EAGER,
        memory=MemoryConfig(capacity_bytes=MEMORY_BYTES),
        counter_cache=CacheConfig(size_bytes=CACHE_BYTES, ways=4),
        merkle_cache=CacheConfig(size_bytes=CACHE_BYTES, ways=4),
    )


def _measure(
    scheme: SchemeKind,
    profile: SyntheticProfile,
    length: int,
    warmup: int,
    repeats: int = 2,
) -> Dict[str, float]:
    warm_trace = generate_trace(profile, warmup, seed=3)
    trace = generate_trace(profile, length, seed=4)
    row: Dict[str, float] = {}
    for mode in ("scalar", "batched"):
        # Best of ``repeats`` fresh runs — each from its own warmed
        # controller so both variants start from identical cache
        # contents and a slow outlier (scheduler hiccup) can't skew
        # the ratio the check gate judges.
        best = float("inf")
        for _ in range(repeats):
            controller = build_controller(
                _config(scheme), keys=ProcessorKeys(7)
            )
            replay(controller, warm_trace)
            start = time.perf_counter()
            if mode == "scalar":
                replay(controller, trace)
            else:
                replay_batched(controller, trace)
            best = min(best, time.perf_counter() - start)
        row[f"{mode}_ns_per_access"] = best / length * 1e9
    row["speedup"] = (
        row["scalar_ns_per_access"] / row["batched_ns_per_access"]
    )
    return row


def run_benchmarks(
    length: int = 60_000, warmup: int = 8_000, repeats: int = 2
) -> Dict:
    """Measure every (workload, scheme) cell; JSON-ready result dict."""
    cells: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload_name, profile in WORKLOADS.items():
        cells[workload_name] = {}
        for scheme_name, scheme in SCHEMES.items():
            cells[workload_name][scheme_name] = _measure(
                scheme, profile, length, warmup, repeats
            )
    return {
        "benchmark": "batch_replay",
        "trace_length": length,
        "warmup_length": warmup,
        "repeats": repeats,
        "cache_bytes": CACHE_BYTES,
        "memory_bytes": MEMORY_BYTES,
        "python": platform.python_version(),
        "workloads": cells,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", metavar="PATH", default=DEFAULT_JSON,
        help=f"output path (default: {DEFAULT_JSON})",
    )
    parser.add_argument(
        "--length", type=int, default=60_000,
        help="timed accesses per cell (default: 60000)",
    )
    parser.add_argument(
        "--warmup", type=int, default=8_000,
        help="untimed warmup accesses per cell (default: 8000)",
    )
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="timed runs per cell; best is kept (default: 2)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit nonzero unless the gated schemes beat scalar replay "
        "by --min-speedup on every workload",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=8.0,
        help="required steady-state speedup for write_back/osiris in "
        "check mode (default: 8.0 — conservative headroom under the "
        "~10-14x typically measured, so CI noise doesn't flake)",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(args.length, args.warmup, args.repeats)
    with open(args.json, "w") as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")
    print(f"batch-replay benchmark written to {args.json}")
    for workload_name, schemes in report["workloads"].items():
        for scheme_name, row in schemes.items():
            print(
                f"  {workload_name:<10} {scheme_name:<12} "
                f"scalar={row['scalar_ns_per_access']:8.0f} "
                f"batched={row['batched_ns_per_access']:7.0f} ns/access  "
                f"speedup={row['speedup']:5.2f}x"
            )

    if args.check:
        failures = []
        for workload_name, schemes in report["workloads"].items():
            for scheme_name in GATED_SCHEMES:
                speedup = schemes[scheme_name]["speedup"]
                if speedup < args.min_speedup:
                    failures.append(
                        f"{workload_name}/{scheme_name}={speedup:.1f}x"
                    )
        if failures:
            print(
                f"FAIL: steady-state speedup below "
                f"{args.min_speedup:.1f}x: " + ", ".join(failures),
                file=sys.stderr,
            )
            return 1
        print(
            f"check OK: gated schemes >= {args.min_speedup:.1f}x "
            "steady-state speedup on every workload"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
