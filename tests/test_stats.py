"""Unit tests for the histogram and the read-only stats view."""

import pytest

from repro.util.stats import (
    Histogram,
    StatGroup,
    flatten_histogram,
    geometric_mean,
)


class TestHistogram:
    def test_empty_mean_is_zero(self):
        assert Histogram().mean == 0.0

    def test_mean(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.mean == pytest.approx(2.0)

    def test_max(self):
        histogram = Histogram()
        assert flatten_histogram("h", histogram)["h.max"] == 0.0
        for value in (5.0, -1.0, 3.0):
            histogram.observe(value)
        assert histogram.maximum == 5.0

    def test_mean_is_welford_running_mean(self):
        """The reported mean's float bits come from the running update
        ``mean += (x - mean) / n``, not from ``sum / n``."""
        samples = [0.1, 0.7, 1e9 + 3.0, 2.5, 60.0, 0.3]
        histogram = Histogram()
        expected = 0.0
        for count, value in enumerate(samples, start=1):
            histogram.observe(value)
            expected += (value - expected) / count
        assert repr(histogram.mean) == repr(expected)

    def test_percentiles_and_repr(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.maximum == 100.0
        assert 45.0 <= histogram.p50 <= 55.0
        assert 90.0 <= histogram.p95 <= 100.0
        rendered = repr(histogram)
        for marker in ("p50", "p95", "max"):
            assert marker in rendered

    def test_reservoir_decimation_is_deterministic(self):
        def build():
            histogram = Histogram()
            for value in range(10_000):
                histogram.observe(float(value))
            return histogram

        first, second = build(), build()
        assert first.p50 == second.p50
        assert first.p95 == second.p95
        # Decimation keeps percentiles honest, not exact: stride sampling
        # of a uniform ramp stays within a few percent of the true value.
        assert abs(first.p50 - 5_000.0) < 500.0
        assert first.maximum == 9_999.0

    def test_flatten_schema(self):
        histogram = Histogram()
        histogram.observe(2.0)
        flat = flatten_histogram("wpq.batch", histogram)
        assert sorted(flat) == [
            "wpq.batch.count",
            "wpq.batch.max",
            "wpq.batch.mean",
            "wpq.batch.p50",
            "wpq.batch.p95",
        ]


class TestStatGroup:
    def test_get_without_create(self):
        group = StatGroup("g", {"present": 3})
        assert group.get("present") == 3
        assert group.get("missing") == 0
        assert group.get("missing", 7) == 7

    def test_counters_sorted(self):
        group = StatGroup("g", {"b": 2, "a": 1})
        assert list(group.as_dict().items()) == [("g.a", 1), ("g.b", 2)]

    def test_as_dict_qualified_names(self):
        latency = Histogram()
        latency.observe(10.0)
        group = StatGroup("nvm", {"reads": 3}, {"latency": latency})
        flat = group.as_dict()
        assert flat["nvm.reads"] == 3
        assert flat["nvm.latency.count"] == 1
        assert flat["nvm.latency.mean"] == 10.0
        # Counters first, then histograms, each sorted by name.
        assert list(flat)[0] == "nvm.reads"

    def test_merge_into(self):
        group = StatGroup("g", {"x": 1})
        target = {"existing": 9.0}
        group.merge_into(target)
        assert target == {"existing": 9.0, "g.x": 1}


class TestGeometricMean:
    def test_empty(self):
        assert geometric_mean([]) == 0.0

    def test_single(self):
        assert geometric_mean([4.0]) == pytest.approx(4.0)

    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])
