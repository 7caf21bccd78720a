"""Tests of the end-to-end benchmark harness.

Not collected by the tier-1 suite (``testpaths`` is ``tests``); run with
``python -m pytest benchmarks/e2e/test_e2e.py``.  Every workload runs at
a few hundred accesses through :func:`workloads.run_workload`.
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import hostclock  # noqa: E402
import workloads  # noqa: E402
from repro.core.agit import AgitPlusController  # noqa: E402
from repro.errors import IntegrityError  # noqa: E402

LENGTH = 200
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(workloads.WORKLOADS)


@functools.lru_cache(maxsize=None)
def run(name: str, trace: bool, seed: int = 0) -> dict:
    record, _tracer = workloads.run_workload(name, seed, 0, trace, LENGTH)
    return record


def test_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_present_with_its_unit(name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        record = run(name, trace)
        assert record["correct"], record["cells"]
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {
            metric: value["unit"]
            for metric, value in record["metrics"].items()
        } == expected
        for value in record["metrics"].values():
            assert math.isfinite(value["value"])
            assert value["value"] > 0 or trace


@pytest.mark.parametrize("name", NAMES)
def test_layer_self_times_partition_the_traced_total(name):
    layers = run(name, True)["layers"]
    self_times = [entry["self_ns"] for entry in layers["layers"].values()]
    assert all(value >= 0 for value in self_times)
    assert layers["unattributed_ns"] >= 0
    assert sum(self_times) + layers["unattributed_ns"] == layers["total_ns"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_digests_equal_untraced(name):
    traced = run(name, True)
    assert traced["passes"] == 2 and traced["digests_agree"]
    assert [c["digest"] for c in traced["cells"]] == [
        c["digest"] for c in run(name, False)["cells"]
    ]


@pytest.mark.parametrize("name", NAMES)
def test_another_seed_gives_other_digests(name):
    first = [c["digest"] for c in run(name, False)["cells"]]
    other = [c["digest"] for c in run(name, False, seed=1)["cells"]]
    assert all(a != b for a, b in zip(first, other))


def test_integrity_error_counts_as_failed(monkeypatch):
    def corrupt(self, address):
        raise IntegrityError(f"injected at {address:#x}")

    monkeypatch.setattr(AgitPlusController, "read", corrupt)
    record, _ = workloads.run_workload("bonsai_miss", 0, 0, False, LENGTH)
    # Two of the ten cells run AGIT-Plus, in each of the run's passes.
    assert record["attempted"] == 10 * workloads.MIN_PASSES
    assert record["failed_share"] == 0.2
    assert not record["correct"]
    assert record["metrics"]
    assert "IntegrityError" in record["cells"][4]["error"]


def test_chrome_trace_has_one_lane_per_cell():
    _record, tracer = workloads.run_workload("sgx_asit", 0, 0, True, LENGTH)
    events = tracer.chrome_trace()["traceEvents"]
    lanes = [e["args"]["name"] for e in events if e["ph"] == "M"]
    assert lanes == ["setup"] + [
        cell.name for cell in workloads.WORKLOADS["sgx_asit"].cells
    ]
    spans = [e for e in events if e["ph"] == "X"]
    assert spans and {e["tid"] for e in spans} == set(range(len(lanes)))


def test_host_clock_nets_out_its_probes():
    clock = hostclock.HostClock()
    assert clock.span(clock.mark()).scale == 1.0
    with clock:
        before = len(clock.stamps)
        start = clock.mark()
        end = time.thread_time() + 0.2
        while time.thread_time() < end:
            pass
        span = clock.span(start)
        # The last probe is the one the span ran after the region.
        inside = clock.probe_cpu_ns[before:-1]
    assert len(inside) >= 3
    assert abs(span.cpu_ns + sum(inside) - 0.2e9) < 0.02e9
    assert 0 < span.scale < 10


def test_compare_verdicts():
    same = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(same, same, 0.1, True)["verdict"] == "unchanged"
    slower = [value * 1.3 for value in same]
    assert compare.verdict(same, slower, 0.1, True)["verdict"] == "worse"
    faster = [value * 0.7 for value in same]
    assert compare.verdict(same, faster, 0.1, True)["verdict"] == "improved"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0]
    assert compare.verdict(same, noisy, 0.1, True)["verdict"] == "unresolved"


def test_compare_flags_digest_differences(tmp_path, capsys):
    record = dict(run("bonsai_write", False))
    for side, digest in (("a", None), ("b", "0" * 64)):
        (tmp_path / side).mkdir()
        if digest is not None:
            record["cells"] = [
                dict(cell, digest=digest) for cell in record["cells"]
            ]
        (tmp_path / side / "run.json").write_text(json.dumps(record))
    assert compare.compare(tmp_path / "a", tmp_path / "b", SPEC) == 1
    out = capsys.readouterr().out
    assert out.count("digest differs") == 10
    assert "unchanged" in out


def test_without_simulator_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("runs", "__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench.py", "--workload", "recovery",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
