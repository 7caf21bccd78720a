"""Deterministic metric-series sampling: op-tick ``collect_stats()`` reads.

A :class:`MetricSampler` turns the scalar end-of-run stats the
controller already keeps into a *time series*: every ``interval``
simulated requests it reads ``controller.collect_stats()`` (a pure
flatten of the components' plain counters) and records one ``metric.sample`` event
timestamped with the simulated clock.  Because both the trigger (a
request counter) and the payload (simulated counters, simulated
nanoseconds) are deterministic, the sampled NDJSON series is
byte-identical across ``--jobs`` counts — the same contract
``--trace-out`` already honours.

The replay hot path pays one ``None`` test per request when sampling
is off: :func:`~repro.traces.replay.replay` fetches
:func:`~repro.telemetry.runtime.active_sampler` once per run.
"""

from __future__ import annotations

from typing import List


class MetricSampler:
    """Snapshot ``collect_stats()`` every N simulated requests.

    ``tick`` is the per-request hot path: a decrementing counter, one
    compare, and — on the sampling edge only — a stats flatten.  The
    recorded samples are schema-valid ``metric.sample`` events (see
    :data:`~repro.telemetry.events.EVENT_SCHEMA`) so they share the
    JSONL serialization, validation, and merge machinery with traces.
    """

    __slots__ = ("interval", "ticks", "_left", "_seq", "_samples")

    def __init__(self, interval: int) -> None:
        if interval <= 0:
            raise ValueError(f"sample interval must be positive: {interval}")
        self.interval = interval
        #: Total requests observed so far.
        self.ticks = 0
        self._left = interval
        self._seq = 0
        self._samples: List[dict] = []

    def tick(self, controller) -> None:
        """Count one simulated request; snapshot on the interval edge."""
        self.ticks += 1
        self._left -= 1
        if self._left:
            return
        self._left = self.interval
        self._samples.append(
            {
                "kind": "metric.sample",
                "ns": float(controller.elapsed_ns),
                "seq": self._seq,
                "tick": self.ticks,
                "values": {
                    key: float(value)
                    for key, value in sorted(
                        controller.collect_stats().items()
                    )
                },
            }
        )
        self._seq += 1

    def samples(self) -> List[dict]:
        """The recorded samples, in tick order."""
        return self._samples

    def drain(self) -> List[dict]:
        """Hand over the sample buffer and start fresh (seq continues)."""
        samples, self._samples = self._samples, []
        return samples

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self) -> str:
        return (
            f"MetricSampler(every {self.interval}, "
            f"{len(self._samples)} samples)"
        )
