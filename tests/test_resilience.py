"""The execution layer's failure paths.

A worker that raises or dies stops the run with an error, never with a
wrong or partial result, and never costs stored work: a resumed
campaign is byte-identical to an uninterrupted one at any ``--jobs``
count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.config import SchemeKind, TreeKind
from repro.faults.campaign import (
    CampaignConfig,
    campaign_cache_identity,
    run_campaign,
)
from repro.sim.options import ExecutionOptions
from repro.sim.parallel import (
    ParallelSweepExecutor,
    max_reasonable_jobs,
    resolve_jobs,
)
from repro.sim.result_cache import ResultCache

from tests.helpers import small_config


# ----------------------------------------------------------------------
# Module-level workers (spawn pools import this module by name)
# ----------------------------------------------------------------------

def _double(value):
    return value * 2


def _explode_on(value):
    if value == 3:
        raise ValueError("cell 3 is cursed")
    return value


#: Each worker SIGKILLs itself on its first cell.  Run in a child
#: interpreter so a driver that waits forever fails the test instead of
#: hanging the suite.
_KILL_WORKERS = """
import signal
from concurrent.futures.process import BrokenProcessPool
from repro.sim.parallel import ParallelSweepExecutor
try:
    ParallelSweepExecutor(2).map(signal.raise_signal, [signal.SIGKILL] * 2)
except BrokenProcessPool:
    print("broken pool")
"""


# ----------------------------------------------------------------------
# resolve_jobs hardening
# ----------------------------------------------------------------------

class TestResolveJobsHardening:
    def test_integral_floats_accepted(self):
        assert resolve_jobs(2.0) == 2

    def test_fractional_floats_rejected(self):
        with pytest.raises(ValueError, match="whole number"):
            resolve_jobs(2.5)

    def test_fractional_strings_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            resolve_jobs("2.5")

    def test_absurd_counts_clamped_with_warning(self, capsys):
        resolved = resolve_jobs(10**6)
        assert resolved == max_reasonable_jobs()
        assert "clamped" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Worker failures
# ----------------------------------------------------------------------

class TestSupervision:
    def test_worker_exception_propagates_with_original_type(self):
        with pytest.raises(ValueError, match="cursed"):
            ParallelSweepExecutor(2).map(_explode_on, [1, 2, 3, 4])

    def test_healthy_cells_unaffected_by_a_failing_sibling(self):
        seen = {}
        with pytest.raises(ValueError):
            ParallelSweepExecutor(2).map(
                _explode_on,
                [1, 2, 3, 4],
                on_result=lambda i, r: seen.setdefault(i, r),
            )
        # Cells before the failing one were harvested, and only those.
        assert seen == {0: 1, 1: 2}

    def test_sigkilled_worker_breaks_the_pool(self):
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        child = subprocess.run(
            [sys.executable, "-c", _KILL_WORKERS],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "broken pool"

    def test_results_keep_submission_order_across_retries(self):
        executor = ParallelSweepExecutor(3)
        assert executor.map(_double, list(range(8))) == [
            2 * n for n in range(8)
        ]

    def test_on_result_fires_once_per_cell(self):
        seen = {}
        ParallelSweepExecutor(2).map(
            _double, [5, 6, 7], on_result=lambda i, r: seen.setdefault(i, r)
        )
        assert seen == {0: 10, 1: 12, 2: 14}


# ----------------------------------------------------------------------
# Checkpoint / resume determinism
# ----------------------------------------------------------------------

def _campaign(seed=0):
    return CampaignConfig(
        system=small_config(SchemeKind.AGIT_PLUS, TreeKind.BONSAI),
        seed=seed,
        trials=10,
        trace_length=250,
        num_crash_points=2,
        probe_reads=2,
    )


def _run(campaign, directory, **kwargs):
    """One ``--resume directory`` run: the directory is the store."""
    with ExecutionOptions(resume=directory).applied():
        return run_campaign(campaign, **kwargs)


def _interrupt(directory, campaign, keep_trials):
    """Leave the store as a kill after ``keep_trials`` trials would.

    Store writes are atomic, so a kill loses whole entries and never
    tears one; damaged entries are covered by the result-cache tests.
    """
    cache = ResultCache(directory)
    identity = campaign_cache_identity(campaign)
    for index in range(keep_trials, campaign.trials):
        os.unlink(cache._path(cache.key("fault-trial", identity, index)))


class TestResumeDeterminism:
    def test_resume_identical_at_every_jobs_count(self, tmp_path):
        golden = run_campaign(_campaign()).to_dict()
        golden_bytes = json.dumps(golden, indent=2, sort_keys=True)
        for jobs in (1, 2, 4):
            directory = str(tmp_path / f"jobs{jobs}")
            # First attempt gets interrupted after 4 stored trials...
            _run(_campaign(), directory)
            _interrupt(directory, _campaign(), 4)
            # ...the re-run with --resume finishes the remaining work.
            replayed = []
            resumed = _run(
                _campaign(), directory, jobs=jobs, on_trial=replayed.append
            )
            assert sorted(trial.index for trial in replayed) == list(
                range(4, 10)
            )
            assert resumed.to_dict() == golden
            assert (
                json.dumps(resumed.to_dict(), indent=2, sort_keys=True)
                == golden_bytes
            )

    def test_completed_journal_resumes_without_rerunning(self, tmp_path):
        directory = str(tmp_path / "done")
        first = _run(_campaign(), directory)
        replayed = []
        again = _run(_campaign(), directory, on_trial=replayed.append)
        assert replayed == []
        assert again.to_dict() == first.to_dict()

    def test_second_campaign_in_same_dir_matches_clean_run(self, tmp_path):
        directory = str(tmp_path / "shared")
        first = _run(_campaign(seed=0), directory)
        # A different campaign misses every stored trial and computes
        # its own; neither run's trials leak into the other.
        second = _run(_campaign(seed=1), directory)
        assert second.to_dict() == run_campaign(_campaign(seed=1)).to_dict()
        assert _run(_campaign(seed=0), directory).to_dict() == first.to_dict()
