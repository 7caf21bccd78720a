"""Shared utilities: bit packing and statistics accumulation."""

from repro.util.bitops import (
    bits_to_bytes,
    is_power_of_two,
    mask,
    pack_fields,
    unpack_fields,
)
from repro.util.stats import Counter, Histogram, StatGroup

__all__ = [
    "bits_to_bytes",
    "is_power_of_two",
    "mask",
    "pack_fields",
    "unpack_fields",
    "Counter",
    "Histogram",
    "StatGroup",
]
