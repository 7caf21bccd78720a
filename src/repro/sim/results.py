"""Result records and cross-scheme comparison helpers.

The paper's performance figures plot, per benchmark, each scheme's
execution time normalized to the write-back baseline.
:class:`SchemeComparison` holds one benchmark's results across schemes
and computes exactly that, plus the overhead percentages quoted in the
text (e.g. "AGIT Plus only adds 3.4% extra overhead").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import SchemeKind
from repro.util.stats import geometric_mean


@dataclass
class SimulationResult:
    """Outcome of replaying one trace on one scheme."""

    benchmark: str
    scheme: SchemeKind
    elapsed_ns: float
    requests: int
    stats: Dict[str, float] = field(default_factory=dict)
    #: Structured events recorded while this cell ran; None unless the
    #: run asked for telemetry (see :mod:`repro.telemetry`).
    events: Optional[List[dict]] = None
    #: Telemetry summary (event/drop counts) when events were recorded.
    telemetry: Optional[Dict[str, int]] = None

    @property
    def ns_per_access(self) -> float:
        """Average nanoseconds per request."""
        return self.elapsed_ns / self.requests if self.requests else 0.0

    def stat(self, name: str, default: float = 0.0) -> float:
        """Read one flattened statistic."""
        return self.stats.get(name, default)

    @property
    def nvm_writes(self) -> int:
        """Total device writes — the endurance currency."""
        return int(self.stat("nvm.writes"))

    @property
    def extra_writes_per_data_write(self) -> float:
        """Device writes beyond one per data write (endurance overhead)."""
        data_writes = self.stat("ctrl.data_writes")
        if not data_writes:
            return 0.0
        return max(self.nvm_writes / data_writes - 1.0, 0.0)

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form, exact-round-trippable via :meth:`from_dict`.

        Used by the result store: a resumed sweep deserializes stored
        cells back into results indistinguishable from freshly computed
        ones.
        """
        payload: Dict[str, object] = {
            "benchmark": self.benchmark,
            "scheme": self.scheme.value,
            "elapsed_ns": self.elapsed_ns,
            "requests": self.requests,
            "stats": dict(self.stats),
        }
        # Telemetry fields are omitted when absent so entries written
        # before (or without) telemetry stay byte-identical.
        if self.events is not None:
            payload["events"] = list(self.events)
        if self.telemetry is not None:
            payload["telemetry"] = dict(self.telemetry)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SimulationResult":
        """Inverse of :meth:`to_dict`."""
        record = dict(payload)
        record["scheme"] = SchemeKind(record["scheme"])
        record["stats"] = dict(record.get("stats") or {})
        return cls(**record)

    def __repr__(self) -> str:
        return (
            f"SimulationResult({self.benchmark}/{self.scheme.value}: "
            f"{self.ns_per_access:.1f} ns/access)"
        )


@dataclass
class SchemeComparison:
    """One benchmark's results across schemes, baseline-normalized."""

    benchmark: str
    baseline: SchemeKind = SchemeKind.WRITE_BACK
    results: Dict[SchemeKind, SimulationResult] = field(default_factory=dict)

    def add(self, result: SimulationResult) -> None:
        """Register one scheme's result."""
        self.results[result.scheme] = result

    @property
    def has_baseline(self) -> bool:
        """Whether the baseline scheme's result was added."""
        return self.baseline in self.results

    def raw_time(self, scheme: SchemeKind) -> float:
        """Absolute execution time in nanoseconds (no normalization)."""
        if scheme not in self.results:
            raise ValueError(
                f"scheme {scheme.value!r} was never run for benchmark "
                f"{self.benchmark!r}"
            )
        return self.results[scheme].elapsed_ns

    def normalized_time(self, scheme: SchemeKind) -> float:
        """Execution time relative to the baseline (1.0 = baseline).

        Raises a clear :class:`ValueError` naming the missing scheme —
        previously a sweep that never ran the baseline (e.g. one
        without WRITE_BACK) died with a bare ``KeyError``.  Use
        :meth:`raw_time` when no baseline exists.
        """
        if not self.has_baseline:
            raise ValueError(
                f"baseline scheme {self.baseline.value!r} was never added "
                f"to the {self.benchmark!r} comparison — run it too, or "
                "use raw_time() for unnormalized values"
            )
        base = self.raw_time(self.baseline)
        return self.raw_time(scheme) / base if base else 0.0

    def overhead_percent(self, scheme: SchemeKind) -> float:
        """Run-time overhead over the baseline, in percent."""
        return (self.normalized_time(scheme) - 1.0) * 100.0

    def schemes(self) -> List[SchemeKind]:
        """Schemes present, baseline first (omitted when never run)."""
        ordered = [self.baseline] if self.has_baseline else []
        ordered.extend(
            scheme for scheme in self.results if scheme != self.baseline
        )
        return ordered


def average_overheads(
    comparisons: List[SchemeComparison],
    schemes: Optional[List[SchemeKind]] = None,
) -> Dict[SchemeKind, float]:
    """Geometric-mean overhead percent per scheme across benchmarks.

    Matches the figures' rightmost "average" bars: the gmean of
    normalized execution times, reported as an overhead percentage.
    """
    if not comparisons:
        return {}
    if schemes is None:
        schemes = comparisons[0].schemes()
    averages: Dict[SchemeKind, float] = {}
    for scheme in schemes:
        values = [
            comparison.normalized_time(scheme)
            for comparison in comparisons
            if scheme in comparison.results and comparison.has_baseline
        ]
        if values:
            averages[scheme] = (geometric_mean(values) - 1.0) * 100.0
    return averages
