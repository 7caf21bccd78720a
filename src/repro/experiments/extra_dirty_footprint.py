"""Extra experiment (beyond the paper): recovery cost vs dirty footprint.

Fig. 12 prices the *worst case* — every cache slot tracking a distinct
lost block.  Functionally, AGIT recovery cost tracks the number of
blocks that were actually dirty on-chip at the crash, bounded above by
the cache size.  This experiment measures that directly: write N
distinct pages (N sweeping up past the counter-cache capacity), crash,
recover, and record the recovery engine's work.

Two regimes appear:

* N below the cache capacity: work grows linearly with N;
* N above it: evictions write blocks back before the crash, and the
  shadow tables saturate at the slot count — work plateaus at the
  Fig. 12 worst case, never beyond.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import (
    KIB,
    PAGE_SIZE,
    SchemeKind,
    TreeKind,
    default_table1_config,
)
from repro.controller.factory import build_controller
from repro.core.recovery_agit import AgitRecovery
from repro.crypto.keys import ProcessorKeys
from repro.experiments.reporting import format_markdown_table
from repro.recovery.crash import crash, reincarnate
from repro.traces.replay import replay
from repro.traces.trace import Trace
from repro.controller.access import MemoryRequest, Op

DEFAULT_FOOTPRINTS = [64, 256, 1024, 4096, 8192, 16384]


@dataclass
class DirtyFootprintResult:
    """Recovery work per number of dirtied pages."""

    footprints: List[int]
    cache_slots: int
    tracked_blocks: Dict[int, int] = field(default_factory=dict)
    recovery_reads: Dict[int, int] = field(default_factory=dict)
    recovery_seconds: Dict[int, float] = field(default_factory=dict)


def run(
    footprints: Optional[List[int]] = None,
    cache_bytes: int = 64 * KIB,
    seed: int = 0,
) -> DirtyFootprintResult:
    """Sweep the number of dirtied pages; crash + recover each point."""
    points = list(footprints) if footprints is not None else DEFAULT_FOOTPRINTS
    config = default_table1_config(
        SchemeKind.AGIT_PLUS, TreeKind.BONSAI
    ).with_cache_size(cache_bytes)
    keys = ProcessorKeys(seed)
    result = DirtyFootprintResult(
        footprints=points,
        cache_slots=cache_bytes // 64,
    )
    for pages in points:
        controller = build_controller(config, keys=keys)
        trace = Trace(f"dirty-{pages}")
        for page in range(pages):
            trace.append(
                MemoryRequest(
                    op=Op.WRITE,
                    address=page * PAGE_SIZE,
                    data=bytes([page % 256]) * 64,
                    gap_ns=100.0,
                )
            )
        replay(controller, trace)
        crash(controller)
        reborn = reincarnate(controller)
        report = AgitRecovery(reborn.nvm, reborn.layout, reborn).run()
        result.tracked_blocks[pages] = report.tracked_counter_blocks
        result.recovery_reads[pages] = report.memory_reads
        result.recovery_seconds[pages] = report.estimated_seconds()
    return result


def format_table(result: DirtyFootprintResult) -> str:
    """Render the sweep with the saturation point annotated."""
    rows = []
    for pages in result.footprints:
        saturated = (
            "saturated"
            if result.tracked_blocks[pages] >= result.cache_slots
            else ""
        )
        rows.append(
            (
                pages,
                result.tracked_blocks[pages],
                result.recovery_reads[pages],
                f"{result.recovery_seconds[pages] * 1000:.3f} ms",
                saturated,
            )
        )
    return format_markdown_table(
        [
            "dirtied pages",
            "tracked blocks",
            "recovery reads",
            "recovery time",
            f"(cache = {result.cache_slots} slots)",
        ],
        rows,
    )


def main() -> None:
    """Print the dirty-footprint sweep."""
    result = run()
    print(
        "Extra — AGIT recovery work vs dirty footprint "
        f"({result.cache_slots}-slot counter cache)"
    )
    print(format_table(result))
    print(
        "\nwork grows with the dirty footprint and plateaus at the "
        "cache capacity — the Fig. 12 worst case is a true ceiling"
    )


if __name__ == "__main__":
    main()
