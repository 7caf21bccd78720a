"""End-to-end benchmark of the simulator: figure cells and recovery.

Run one workload (the last line of output is the JSON result)::

    python3 benchmarks/e2e/bench.py --workload bonsai_miss --seed 0 \\
        --seconds 25 --trace 0

``--trace 1`` reports the per-layer metrics instead, from a traced pass
that follows an untraced one over the same inputs; add ``--trace-out
PATH`` to write its spans as a Chrome trace.  Without ``--workload``,
every workload runs, one after another, each in a fresh process.
Each run also writes its full record (metrics, per-cell digests, layer
table) as JSON under ``--out`` (default ``benchmarks/e2e/runs``).

Compare two directories of run records::

    python3 benchmarks/e2e/bench.py compare runs_a/ runs_b/

The simulator is imported from ``src/`` of the checkout holding this
file, never from elsewhere: without it the benchmark exits with an
error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of figure cells and recovery.",
        epilog="Compare run sets with: bench.py compare A_DIR B_DIR",
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=25.0,
        help="measure about this long (at least two passes run)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "runs")
    parser.add_argument(
        "--trace-out", type=Path,
        help="with --trace 1: write the spans as Chrome trace JSON",
    )
    return parser


def _run_one(workloads, args: argparse.Namespace) -> int:
    record, tracer = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    record["seconds"] = args.seconds
    args.out.mkdir(parents=True, exist_ok=True)
    out = args.out / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
        f"-{record['started_ns']}.json"
    )
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace_out is not None and tracer is not None:
        args.trace_out.write_text(json.dumps(tracer.chrome_trace()))
    for cell in record["cells"]:
        if cell["error"]:
            print(f"FAILED {cell['name']}: {cell['error']}")
    for name, metric in record["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"record: {out}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] and record["metrics"] else 1


def _run_all(workloads, args: argparse.Namespace) -> int:
    status = 0
    for name in workloads.WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(args.out),
        ]
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: bench.py compare A_DIR B_DIR", file=sys.stderr)
            return 2
        from compare import compare

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return compare(Path(argv[1]), Path(argv[2]), spec)
    parser = _parser()
    args = parser.parse_args(argv)
    if args.trace_out is not None and not args.trace:
        parser.error("--trace-out needs --trace 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload is None:
        if args.trace_out is not None:
            parser.error("--trace-out needs --workload")
        return _run_all(workloads, args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    return _run_one(workloads, args)


if __name__ == "__main__":
    sys.exit(main())
