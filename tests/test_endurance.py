"""Tests for the NVM endurance analysis."""

import pytest

from repro.analysis.endurance import (
    EnduranceReport,
    analyze_endurance,
    lifetime_years,
)
from repro.config import SchemeKind, TreeKind
from repro.errors import ConfigError

from tests.helpers import line, make_controller, payload


def run_writes(controller, count=60):
    # one line per page so per-write metadata persists cannot coalesce
    # into a handful of hot blocks inside the WPQ window
    for index in range(count):
        controller.write(line(index * 64), payload(index % 250))
        controller.wpq.drain_all()
    controller.finalize()


class TestReportBasics:
    def test_counts_total_writes(self):
        controller = make_controller()
        run_writes(controller)
        report = analyze_endurance(controller)
        assert report.total_writes == controller.nvm.writes
        assert report.total_writes > 0

    def test_region_split_sums_to_total(self):
        controller = make_controller(SchemeKind.STRICT_PERSISTENCE)
        run_writes(controller)
        report = analyze_endurance(controller)
        assert sum(report.region_writes.values()) == report.total_writes

    def test_hottest_blocks_sorted(self):
        controller = make_controller()
        for _ in range(10):
            controller.write(line(0), payload(1))
        controller.write(line(64), payload(2))
        controller.finalize()
        report = analyze_endurance(controller)
        counts = [count for _address, count in report.hottest_blocks]
        assert counts == sorted(counts, reverse=True)
        assert report.hottest_blocks[0][0] == 0  # the hammered line

    def test_top_blocks_validation(self):
        controller = make_controller()
        with pytest.raises(ConfigError):
            analyze_endurance(controller, top_blocks=0)


class TestMetadataFraction:
    def test_write_back_mostly_data(self):
        controller = make_controller(SchemeKind.WRITE_BACK)
        run_writes(controller)
        report = analyze_endurance(controller)
        assert report.metadata_write_fraction < 0.5

    def test_strict_mostly_metadata(self):
        # ~9 metadata persists per data write: the paper's endurance
        # complaint, visible directly in the region split.
        controller = make_controller(SchemeKind.STRICT_PERSISTENCE)
        run_writes(controller)
        report = analyze_endurance(controller)
        assert report.metadata_write_fraction > 0.6

    def test_asit_between(self):
        controller = make_controller(SchemeKind.ASIT, TreeKind.SGX)
        run_writes(controller)
        report = analyze_endurance(controller)
        strict = make_controller(SchemeKind.STRICT_PERSISTENCE)
        run_writes(strict)
        strict_report = analyze_endurance(strict)
        assert report.metadata_write_fraction < (
            strict_report.metadata_write_fraction
        )


class TestLifetimeModel:
    def test_leveled_bound_above_unleveled(self):
        controller = make_controller()
        for _ in range(20):
            controller.write(line(0), payload(3))
        controller.finalize()
        report = analyze_endurance(controller)
        assert report.lifetime_with_leveling_years() >= (
            report.lifetime_without_leveling_years()
        )

    def test_zero_rate_is_infinite(self):
        report = EnduranceReport(total_writes=0, elapsed_seconds=1.0)
        assert report.lifetime_with_leveling_years() == float("inf")
        assert report.lifetime_without_leveling_years() == float("inf")

    def test_standalone_helper(self):
        # 10^8 endurance, 10^6 blocks, 10^6 writes/s -> 10^8 seconds.
        years = lifetime_years(1e6, 10**6)
        assert years == pytest.approx(10**8 / (365.25 * 24 * 3600))

    def test_more_writes_shorter_life(self):
        baseline = make_controller(SchemeKind.WRITE_BACK, seed=2)
        strict = make_controller(SchemeKind.STRICT_PERSISTENCE, seed=2)
        for controller in (baseline, strict):
            run_writes(controller, count=100)
        base_report = analyze_endurance(baseline)
        strict_report = analyze_endurance(strict)
        assert strict_report.lifetime_with_leveling_years() < (
            base_report.lifetime_with_leveling_years()
        )
