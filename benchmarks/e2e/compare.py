"""Compare two sets of benchmark run records (``bench.py compare A B``).

For each workload and end-to-end metric, prints both sides' median and
quartiles, the share of run pairs the second side wins, and a verdict:

* ``improved``: B wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than A's interquartile range;
* ``worse``: B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``unresolved``: either side's interquartile range, as a share of its
  median, is wider than the bound, unless every B run beats every A run;
* ``unchanged``: otherwise.

Runs pair up by seed, then in the order they ran.  Cells whose
simulated-output digests differ between the sets, for the same
workload, seed and lengths, are listed: they mean the two sets did not
compute the same results.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

WIN_SHARE = 0.9


def load_runs(directory: Path) -> Dict[str, List[dict]]:
    """Run records of a directory, by workload, ordered by seed and then
    by start time."""
    runs: Dict[str, List[dict]] = {}
    for path in directory.glob("*.json"):
        record = json.loads(path.read_text())
        if isinstance(record, dict) and "workload" in record:
            runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: (r["seed"], r["started_ns"]))
    return runs


def quartiles(values: List[float]) -> Tuple[float, float]:
    """First and third quartile (both the value itself for one run)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(
    a: List[float], b: List[float], bound: float, lower_is_better: bool
) -> dict:
    """Median, quartiles, win share and verdict of B against A."""
    sign = 1.0 if lower_is_better else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    (q1_a, q3_a), (q1_b, q3_b) = quartiles(a), quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    win_share = wins / len(pairs)
    worse_by = sign * (med_b - med_a) / med_a
    spread = max((q3_a - q1_a) / med_a, (q3_b - q1_b) / med_b)
    separated = max(sign * y for y in b) < min(sign * x for x in a)
    if win_share >= WIN_SHARE and sign * (med_a - med_b) > q3_a - q1_a:
        outcome = "improved"
    elif worse_by > bound:
        outcome = "worse"
    elif spread > bound and not separated:
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return {
        "a": (med_a, q1_a, q3_a),
        "b": (med_b, q1_b, q3_b),
        "change": (med_b - med_a) / med_a,
        "win_share": win_share,
        "verdict": outcome,
    }


def digest_differences(
    runs_a: Dict[str, List[dict]], runs_b: Dict[str, List[dict]]
) -> List[str]:
    """Cells whose digest differs between the sets for the same inputs."""
    def digests(runs):
        table = {}
        for workload, records in runs.items():
            for record in records:
                lengths = json.dumps(record["lengths"], sort_keys=True)
                for cell in record["cells"]:
                    key = (workload, record["seed"], lengths, cell["name"])
                    table.setdefault(key, set()).add(cell["digest"])
        return table

    left, right = digests(runs_a), digests(runs_b)
    return [
        "{}/seed {}/lengths {}/{}".format(*key)
        for key in sorted(set(left) & set(right), key=str)
        if left[key] != right[key]
    ]


def compare(dir_a: Path, dir_b: Path, spec: dict) -> int:
    """Print the comparison; returns 1 if anything got worse or any
    digest differs, else 0."""
    runs_a, runs_b = load_runs(dir_a), load_runs(dir_b)
    metrics = spec["end_to_end"]
    bad = False
    print(
        f"{'workload':<14}{'metric':<28}{'A median [q1, q3]':<30}"
        f"{'B median [q1, q3]':<30}{'change':>9}{'wins':>7}  verdict"
    )
    for workload in sorted(set(runs_a) & set(runs_b)):
        a_runs = [r for r in runs_a[workload] if not r["trace"]]
        b_runs = [r for r in runs_b[workload] if not r["trace"]]
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs
                 if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs
                 if name in r["metrics"]]
            if not a or not b:
                continue
            row = verdict(a, b, metric["bound"], metric["better"] == "lower")
            bad |= row["verdict"] == "worse"
            print(
                f"{workload:<14}{name:<28}"
                + "".join(
                    f"{'{:.4g} [{:.4g}, {:.4g}]'.format(*row[side]):<30}"
                    for side in ("a", "b")
                )
                + f"{row['change']:>+9.1%}{row['win_share']:>7.0%}  "
                f"{row['verdict']}"
            )
    differences = digest_differences(runs_a, runs_b)
    for difference in differences:
        print(f"digest differs: {difference}")
    if not differences:
        print("digests: no differences")
    return 1 if bad or differences else 0
