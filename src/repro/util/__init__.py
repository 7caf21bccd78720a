"""Shared utilities: bit-width helpers and statistics views."""

from repro.util.bitops import is_power_of_two, mask
from repro.util.stats import Histogram, StatGroup

__all__ = [
    "is_power_of_two",
    "mask",
    "Histogram",
    "StatGroup",
]
