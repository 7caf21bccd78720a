"""NVM endurance analysis.

§6.2 of the paper disqualifies strict persistence partly on endurance:
"it causes at least an additional ten writes per memory write
operation, which can significantly reduce the lifetime of NVMs."  This
module turns the simulator's per-block write counts into that argument:
per-region write totals, hot-spot concentration, and a first-order
device-lifetime estimate.

The lifetime model is the standard one for wear-limited memory: with
cell endurance E (PCM: ~10^8 writes), ideal wear-leveling, and a
device-wide write rate W blocks/second, a device of C blocks lasts
``E * C / W`` seconds.  Without wear-leveling the binding constraint is
the hottest block: ``E / max_block_rate``.  Both bounds are reported;
reality lands between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.controller.base import SecureMemoryController
from repro.errors import ConfigError

#: Typical PCM cell endurance (writes per cell) per Lee et al. [22].
PCM_ENDURANCE = 10**8

_SECONDS_PER_YEAR = 365.25 * 24 * 3600


@dataclass
class EnduranceReport:
    """Write-wear summary for one simulation run."""

    total_writes: int
    elapsed_seconds: float
    region_writes: Dict[str, int] = field(default_factory=dict)
    #: (address, writes) for the most-written blocks, descending.
    hottest_blocks: List[Tuple[int, int]] = field(default_factory=list)
    data_blocks_in_device: int = 0

    @property
    def writes_per_second(self) -> float:
        """Device-wide write rate over the simulated interval."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.total_writes / self.elapsed_seconds

    @property
    def metadata_write_fraction(self) -> float:
        """Share of device writes that hit metadata/shadow regions."""
        if not self.total_writes:
            return 0.0
        data = self.region_writes.get("data", 0)
        return 1.0 - data / self.total_writes

    def hottest_rate(self) -> float:
        """Writes/second to the single most-written block."""
        if not self.hottest_blocks or self.elapsed_seconds <= 0:
            return 0.0
        return self.hottest_blocks[0][1] / self.elapsed_seconds

    def lifetime_with_leveling_years(
        self, endurance: int = PCM_ENDURANCE
    ) -> float:
        """Upper bound: perfect wear-leveling over the whole device."""
        rate = self.writes_per_second
        if rate <= 0:
            return float("inf")
        return endurance * self.data_blocks_in_device / rate / _SECONDS_PER_YEAR

    def lifetime_without_leveling_years(
        self, endurance: int = PCM_ENDURANCE
    ) -> float:
        """Lower bound: the hottest block dies first."""
        rate = self.hottest_rate()
        if rate <= 0:
            return float("inf")
        return endurance / rate / _SECONDS_PER_YEAR


def analyze_endurance(
    controller: SecureMemoryController,
    elapsed_ns: Optional[float] = None,
    top_blocks: int = 8,
) -> EnduranceReport:
    """Build an endurance report from a finished controller.

    ``elapsed_ns`` defaults to the controller's channel time; pass the
    value returned by :meth:`finalize` if you already captured it.
    """
    if top_blocks < 1:
        raise ConfigError("top_blocks must be positive")
    nvm = controller.nvm
    layout = controller.layout
    elapsed = (
        elapsed_ns if elapsed_ns is not None else controller.elapsed_ns
    )
    regions = [layout.data, *layout.level_regions, layout.sct, layout.smt, layout.st]
    region_writes = nvm.region_write_totals(regions)
    per_block = sorted(
        (
            (address, nvm.write_count(address))
            for address, _data in nvm.touched_blocks()
        ),
        key=lambda item: item[1],
        reverse=True,
    )
    return EnduranceReport(
        total_writes=nvm.writes,
        elapsed_seconds=elapsed / 1e9,
        region_writes=region_writes,
        hottest_blocks=per_block[:top_blocks],
        data_blocks_in_device=layout.data.num_blocks,
    )


def lifetime_years(
    writes_per_second: float,
    device_blocks: int,
    endurance: int = PCM_ENDURANCE,
) -> float:
    """Standalone wear-leveled lifetime estimate (years)."""
    if writes_per_second <= 0:
        return float("inf")
    return endurance * device_blocks / writes_per_second / _SECONDS_PER_YEAR
