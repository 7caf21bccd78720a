"""Shared experiment plumbing: grid collection and table rendering.

Every figure used to hand-roll the same loop — build a
:class:`~repro.sim.parallel.ParallelSweepExecutor`, fan its (config,
trace) cells out, then pick the results apart positionally.
:func:`collect` owns that loop once, and
:class:`CollectedRun` owns the three ways figures slice the flat result
list: a stat column, fixed-size chunks, and baseline-normalized
scheme comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.config import SchemeKind
from repro.crypto.keys import ProcessorKeys
from repro.sim.parallel import ParallelSweepExecutor, SimCell
from repro.sim.results import (
    SchemeComparison,
    SimulationResult,
    average_overheads,
)


@dataclass
class CollectedRun:
    """The flat, cell-ordered results of one experiment grid."""

    cells: List[SimCell]
    results: List[SimulationResult]

    def column(
        self, stat: str, cast: Callable = float
    ) -> List:
        """One flattened statistic per cell, in cell order."""
        return [cast(result.stat(stat)) for result in self.results]

    def chunked(self, size: int) -> List[List[SimulationResult]]:
        """Results regrouped into consecutive chunks of ``size``."""
        if size <= 0 or len(self.results) % size:
            raise ValueError(
                f"cannot chunk {len(self.results)} results into groups "
                f"of {size}"
            )
        return [
            self.results[start : start + size]
            for start in range(0, len(self.results), size)
        ]

    def comparisons(
        self,
        schemes: Sequence[SchemeKind],
        baseline: SchemeKind = SchemeKind.WRITE_BACK,
    ) -> List[SchemeComparison]:
        """Per-benchmark comparisons of a trace-major scheme grid.

        Assumes the cells were laid out ``for trace: for scheme:`` —
        the layout :meth:`~repro.sim.engine.SimulationEngine.sweep`
        and every figure grid use.
        """
        comparisons = []
        for group in self.chunked(len(schemes)):
            comparison = SchemeComparison(
                benchmark=group[0].benchmark, baseline=baseline
            )
            for result in group:
                comparison.add(result)
            comparisons.append(comparison)
        return comparisons

    def averages(
        self,
        schemes: Sequence[SchemeKind],
        baseline: SchemeKind = SchemeKind.WRITE_BACK,
    ) -> Dict[SchemeKind, float]:
        """Gmean overhead percent per scheme (the figures' last bars)."""
        return average_overheads(
            self.comparisons(schemes, baseline), list(schemes)
        )

    def scheme_mean(
        self,
        schemes: Sequence[SchemeKind],
        value: Callable[[SimulationResult], float],
    ) -> Dict[SchemeKind, float]:
        """Arithmetic mean of ``value(result)`` per scheme column."""
        acc: Dict[SchemeKind, List[float]] = {s: [] for s in schemes}
        for index, result in enumerate(self.results):
            acc[schemes[index % len(schemes)]].append(value(result))
        return {
            scheme: sum(values) / len(values)
            for scheme, values in acc.items()
            if values
        }


def collect(
    cells: Sequence[SimCell],
    keys: Optional[ProcessorKeys] = None,
    jobs: Union[int, str, None] = 1,
) -> CollectedRun:
    """Run an experiment grid and return its sliceable results.

    ``jobs`` fans the cells over worker processes; results stay in
    deterministic cell order.
    """
    cell_list = list(cells)
    results = ParallelSweepExecutor(jobs).run_simulations(cell_list, keys)
    return CollectedRun(cells=cell_list, results=results)


def format_markdown_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render a GitHub-style markdown table with aligned columns."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [
        max(len(header), *(len(row[column]) for row in cells))
        if cells
        else len(header)
        for column, header in enumerate(headers)
    ]
    lines: List[str] = []
    lines.append(
        "| "
        + " | ".join(header.ljust(width) for header, width in zip(headers, widths))
        + " |"
    )
    lines.append("|" + "|".join("-" * (width + 2) for width in widths) + "|")
    for row in cells:
        lines.append(
            "| "
            + " | ".join(value.ljust(width) for value, width in zip(row, widths))
            + " |"
        )
    return "\n".join(lines)


def format_seconds(seconds: float) -> str:
    """Human-scale duration: ns/µs/ms/s/hours as appropriate."""
    if seconds >= 3600:
        return f"{seconds / 3600:.2f} h"
    if seconds >= 1:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.2f} µs"
    return f"{seconds * 1e9:.0f} ns"
