"""Shared utilities: bit-width helpers and statistics accumulation."""

from repro.util.bitops import is_power_of_two, mask
from repro.util.stats import Counter, Histogram, StatGroup

__all__ = [
    "is_power_of_two",
    "mask",
    "Counter",
    "Histogram",
    "StatGroup",
]
