"""Microbenchmarks for the counter-mode hot paths, with a check mode.

Every simulated memory access pays one encrypt or decrypt, so the
engine's per-line cost bounds the whole reproduction's throughput.
This script measures the *before* implementations (the per-byte
generator XOR and the uncached pad derivation the engine shipped with)
against the *after* ones (whole-line integer XOR, plain IV packing,
LRU pad memo) and records both into ``BENCH_hot_paths.json`` so later
PRs have a trajectory baseline.

Usage::

    python benchmarks/bench_hot_paths.py                  # measure + write JSON
    python benchmarks/bench_hot_paths.py --check          # fail on regression
    python benchmarks/bench_hot_paths.py --json out.json  # custom output path

Check mode re-measures and exits nonzero unless the hot (memo-hit)
encrypt path is at least ``--min-speedup`` times faster than the legacy
generator-XOR path, so a hot-path regression fails CI loudly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from typing import Callable, Dict

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
)

from repro.config import BLOCK_SIZE  # noqa: E402
from repro.crypto.ctr import (  # noqa: E402
    CounterModeEngine,
    make_iv,
    xor_bytes,
)
from repro.crypto.keys import ProcessorKeys  # noqa: E402

DEFAULT_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_hot_paths.json",
)

#: Distinct (address, major, minor) tuples cycled by the workloads —
#: small enough to fit the default pad memo, like a real trace's hot set.
HOT_SET = 256


def _legacy_xor(data: bytes, pad: bytes) -> bytes:
    """The seed implementation: a per-byte Python generator."""
    return bytes(a ^ b for a, b in zip(data, pad))


def _legacy_pack_iv(address: int, major: int, minor: int) -> bytes:
    """The seed's IV packing (``make_iv`` packs the same bytes)."""
    return (
        address.to_bytes(8, "little")
        + major.to_bytes(8, "little")
        + minor.to_bytes(8, "little")
    )


class _LegacyEngine:
    """The seed engine's encrypt path: fresh pad + generator XOR."""

    def __init__(self, keys: ProcessorKeys) -> None:
        self._key = keys.encryption_key

    def encrypt(self, plaintext, address, major, minor):
        iv = _legacy_pack_iv(address, major, minor)
        pad = hashlib.blake2b(iv, key=self._key, digest_size=64).digest()[
            :BLOCK_SIZE
        ]
        return _legacy_xor(plaintext, pad)


def _time_per_op(func: Callable[[int], None], iterations: int) -> float:
    """Nanoseconds per operation over ``iterations`` calls (best of 3)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for i in range(iterations):
            func(i)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / iterations)
    return best * 1e9


def bench_telemetry(trace_length: int = 4_000, repeats: int = 5) -> Dict:
    """Instrumented-vs-bare A/B for the telemetry layer.

    The simulator is permanently instrumented; "bare" means no session
    installed, so every emit site costs one ``NULL_TRACER.enabled``
    attribute test.  Measures a full simulation (build, scalar replay,
    finalize) with telemetry off and on (best of ``repeats``), plus the
    per-site guard cost in isolation.
    """
    from contextlib import nullcontext

    from repro.config import SchemeKind, default_table1_config
    from repro.controller.factory import build_controller
    from repro.telemetry import NULL_TRACER, TelemetrySpec
    from repro.telemetry.runtime import session
    from repro.traces.profiles import profile
    from repro.traces.replay import replay
    from repro.traces.synthetic import generate_trace

    config = default_table1_config(SchemeKind.AGIT_PLUS)
    trace = generate_trace(profile("gcc"), trace_length, seed=0)
    keys = ProcessorKeys(0)

    def one_run_ns(telemetry) -> float:
        # Scalar replay on both sides: a live tracer forces scalar
        # replay anyway, so letting the bare run batch would compare
        # different engines and report the difference as "telemetry
        # overhead".
        start = time.perf_counter()
        with session(telemetry) if telemetry is not None else nullcontext():
            controller = build_controller(config, keys=keys)
            replay(controller, trace)
            controller.finalize()
        return (time.perf_counter() - start) * 1e9 / trace_length

    # Interleave the A/B (bare, enabled, bare, enabled, ...) and keep
    # each side's best: back-to-back blocks let load/thermal drift bias
    # whichever side runs later, which the gate then misreads as
    # telemetry overhead.  The enabled arm records events at the
    # default (non-detail) level.
    disabled = enabled = float("inf")
    for _ in range(repeats):
        disabled = min(disabled, one_run_ns(None))
        enabled = min(enabled, one_run_ns(TelemetrySpec()))

    tracer = NULL_TRACER

    def guarded(i: int) -> None:
        if tracer.enabled:
            tracer.emit("mem.access", op="read", address=i)

    def bare(i: int) -> None:
        pass

    guard_ns = _time_per_op(guarded, 100_000) - _time_per_op(bare, 100_000)

    return {
        "trace_length": trace_length,
        "disabled_ns_per_access": disabled,
        "enabled_ns_per_access": enabled,
        "enabled_overhead_fraction": enabled / disabled - 1.0,
        "null_guard_ns": max(guard_ns, 0.0),
    }


def run_benchmarks(iterations: int = 20_000) -> Dict:
    """Measure every hot path; returns the JSON-ready result dict."""
    keys = ProcessorKeys(0)
    legacy = _LegacyEngine(keys)
    engine = CounterModeEngine(keys)
    cold = CounterModeEngine(keys, pad_memo_entries=0)
    line = bytes(range(256))[:BLOCK_SIZE] * (BLOCK_SIZE // 64 or 1)
    line = line[:BLOCK_SIZE]
    pad = hashlib.blake2b(b"pad", key=keys.encryption_key, digest_size=64
                          ).digest()[:BLOCK_SIZE]

    results: Dict[str, float] = {}

    results["xor_generator_ns"] = _time_per_op(
        lambda i: _legacy_xor(line, pad), iterations
    )
    results["xor_int_ns"] = _time_per_op(
        lambda i: xor_bytes(line, pad), iterations
    )
    results["make_iv_legacy_ns"] = _time_per_op(
        lambda i: _legacy_pack_iv((i % HOT_SET) * 64, 7, 3), iterations
    )
    results["make_iv_ns"] = _time_per_op(
        lambda i: make_iv((i % HOT_SET) * 64, 7, 3), iterations
    )
    results["encrypt_legacy_ns"] = _time_per_op(
        lambda i: legacy.encrypt(line, (i % HOT_SET) * 64, 7, 0), iterations
    )
    # Memo-miss path: every address distinct, memo disabled.
    results["encrypt_cold_ns"] = _time_per_op(
        lambda i: cold.encrypt(line, i * 64, 7, 0), iterations
    )
    # Memo-hit path: a trace-like hot set that fits the LRU.
    results["encrypt_hot_ns"] = _time_per_op(
        lambda i: engine.encrypt(line, (i % HOT_SET) * 64, 7, 0), iterations
    )
    results["decrypt_hot_ns"] = _time_per_op(
        lambda i: engine.decrypt(line, (i % HOT_SET) * 64, 7, 0), iterations
    )

    speedups = {
        "xor": results["xor_generator_ns"] / results["xor_int_ns"],
        "encrypt_cold": results["encrypt_legacy_ns"] / results["encrypt_cold_ns"],
        "encrypt_hot": results["encrypt_legacy_ns"] / results["encrypt_hot_ns"],
        "decrypt_hot": results["encrypt_legacy_ns"] / results["decrypt_hot_ns"],
    }
    return {
        "benchmark": "hot_paths",
        "block_size": BLOCK_SIZE,
        "iterations": iterations,
        "hot_set": HOT_SET,
        "python": platform.python_version(),
        "before_ns_per_op": {
            "xor": results["xor_generator_ns"],
            "make_iv": results["make_iv_legacy_ns"],
            "encrypt": results["encrypt_legacy_ns"],
        },
        "after_ns_per_op": {
            "xor": results["xor_int_ns"],
            "make_iv": results["make_iv_ns"],
            "encrypt_cold": results["encrypt_cold_ns"],
            "encrypt_hot": results["encrypt_hot_ns"],
            "decrypt_hot": results["decrypt_hot_ns"],
        },
        "speedups": speedups,
        "telemetry": bench_telemetry(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", metavar="PATH", default=DEFAULT_JSON,
        help=f"output path (default: {DEFAULT_JSON})",
    )
    parser.add_argument(
        "--iterations", type=int, default=20_000,
        help="calls per measured loop (default: 20000)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit nonzero unless the hot paths beat the legacy "
        "implementations by --min-speedup",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=5.0,
        help="required encrypt/decrypt (hot) and XOR speedup in "
        "check mode (default: 5.0)",
    )
    parser.add_argument(
        "--max-telemetry-overhead", type=float, default=0.03,
        help="check mode: fail when a telemetry-enabled simulation is "
        "more than this fraction slower than a bare one (default: 0.03)",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(args.iterations)
    with open(args.json, "w") as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")
    print(f"hot-path benchmark written to {args.json}")
    for name, value in sorted(report["speedups"].items()):
        print(f"  speedup {name:<12}: {value:6.1f}x")
    telemetry = report["telemetry"]
    print(
        "  telemetry overhead : "
        f"{telemetry['enabled_overhead_fraction'] * 100.0:+.1f}% enabled, "
        f"{telemetry['null_guard_ns']:.0f}ns/site disabled guard"
    )

    if args.check:
        failures = [
            name
            for name in ("xor", "encrypt_hot", "decrypt_hot")
            if report["speedups"][name] < args.min_speedup
        ]
        if failures:
            print(
                f"FAIL: hot paths below {args.min_speedup:.1f}x speedup: "
                + ", ".join(
                    f"{n}={report['speedups'][n]:.1f}x" for n in failures
                ),
                file=sys.stderr,
            )
            return 1
        if telemetry["enabled_overhead_fraction"] >= args.max_telemetry_overhead:
            print(
                "FAIL: telemetry-enabled simulation overhead "
                f"{telemetry['enabled_overhead_fraction'] * 100.0:.1f}% "
                f">= {args.max_telemetry_overhead * 100.0:.1f}% budget",
                file=sys.stderr,
            )
            return 1
        print(
            f"check OK: all hot paths >= {args.min_speedup:.1f}x, "
            "telemetry within budget"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
