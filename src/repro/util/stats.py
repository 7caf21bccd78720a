"""Statistics for the simulator: histograms and a read-only stats view.

Every simulated component (caches, the NVM device, the WPQ, the timing
channel, each controller) counts its events in plain ``int`` attributes
and increments them in place.  Its ``stats`` property builds a
:class:`StatGroup` on demand: a read-only, named view of those counts
and of any :class:`Histogram` the component keeps, which flattens to
the ``{group.name: value}`` records the simulation engine merges into
one result per run.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional

#: Reservoir capacity for histogram percentiles.  When full, every
#: other retained sample is discarded and the keep-stride doubles —
#: deterministic for a given observation order, unlike random-eviction
#: reservoirs.
RESERVOIR_LIMIT = 1024


class Histogram:
    """A streaming histogram: count, mean, max and percentiles.

    The mean is Welford's running mean (``mean += (x - mean) / n``),
    whose float bits the reported ``.mean`` depends on.

    Percentiles come from a bounded reservoir.  Every ``stride``-th
    sample is retained; when the reservoir reaches
    :data:`RESERVOIR_LIMIT` entries, every other retained sample is
    dropped and the stride doubles.  The decimation is purely a
    function of the observation sequence — no randomness — so a
    histogram fed the same samples in the same order always reports
    the same percentiles.
    """

    __slots__ = ("count", "maximum", "_mean", "_reservoir", "_stride", "_skip")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self.maximum: Optional[float] = None
        self._reservoir: List[float] = []
        self._stride = 1
        self._skip = 0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self._mean += (value - self._mean) / self.count
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if self._skip:
            self._skip -= 1
            return
        self._skip = self._stride - 1
        self._reservoir.append(value)
        if len(self._reservoir) >= RESERVOIR_LIMIT:
            self._reservoir = self._reservoir[::2]
            self._stride *= 2

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observed samples (0.0 when empty)."""
        return self._mean if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """The ``fraction``-quantile (0.5 = median) from the reservoir.

        Exact while fewer than :data:`RESERVOIR_LIMIT` samples have
        been observed; a deterministic approximation afterwards.
        Returns 0.0 for an empty histogram.
        """
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        rank = min(int(fraction * len(ordered)), len(ordered) - 1)
        return ordered[max(rank, 0)]

    @property
    def p50(self) -> float:
        """Median of the observed samples."""
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        """95th percentile of the observed samples."""
        return self.percentile(0.95)

    def __repr__(self) -> str:
        return (
            f"Histogram(n={self.count}, mean={self.mean:.3g}, "
            f"p50={self.p50:.3g}, p95={self.p95:.3g}, "
            f"max={self.maximum if self.maximum is not None else 0.0:.3g})"
        )


def flatten_histogram(prefix: str, histogram: Histogram) -> Dict[str, float]:
    """The stable flattened schema of one histogram."""
    return {
        f"{prefix}.count": histogram.count,
        f"{prefix}.mean": histogram.mean,
        f"{prefix}.p50": histogram.p50,
        f"{prefix}.p95": histogram.p95,
        f"{prefix}.max": (
            histogram.maximum if histogram.maximum is not None else 0.0
        ),
    }


class StatGroup:
    """A read-only, named view of a component's counts and histograms.

    Components build one on demand from their plain ``int`` attributes
    (``counters``) and :class:`Histogram` objects (``histograms``);
    nothing is registered and nothing is written through the view.
    """

    def __init__(
        self,
        name: str,
        counters: Mapping[str, int],
        histograms: Optional[Mapping[str, Histogram]] = None,
    ) -> None:
        self.name = name
        self._counters = counters
        self._histograms = histograms or {}

    def get(self, name: str, default: int = 0) -> int:
        """A counter's value, or ``default`` for an unknown name."""
        return self._counters.get(name, default)

    def as_dict(self) -> Dict[str, float]:
        """Flatten the group to ``{qualified_name: value}``.

        Counters come first, sorted by name, then histograms, sorted by
        name, each expanded to ``.count``, ``.mean``, ``.p50``, ``.p95``
        and ``.max`` entries (the schema of :func:`flatten_histogram`).
        """
        flat: Dict[str, float] = {}
        for name in sorted(self._counters):
            flat[f"{self.name}.{name}"] = self._counters[name]
        for name in sorted(self._histograms):
            flat.update(
                flatten_histogram(f"{self.name}.{name}", self._histograms[name])
            )
        return flat

    def merge_into(self, target: Dict[str, float]) -> None:
        """Add this group's flattened stats into ``target`` (in place)."""
        target.update(self.as_dict())

    def __repr__(self) -> str:
        return (
            f"StatGroup({self.name}: {len(self._counters)} counters, "
            f"{len(self._histograms)} histograms)"
        )


def geometric_mean(values: List[float]) -> float:
    """Geometric mean of positive values; 0.0 for an empty list.

    Used to aggregate per-benchmark normalized slowdowns the same way the
    paper's figures do.
    """
    if not values:
        return 0.0
    log_sum = 0.0
    for value in values:
        if value <= 0.0:
            raise ValueError(
                f"geometric mean requires positive values, got {value}"
            )
        log_sum += math.log(value)
    return math.exp(log_sum / len(values))
