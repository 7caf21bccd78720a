"""Integrity trees: general (Bonsai) and SGX-style parallelizable."""

from repro.integrity.bonsai import BonsaiNode, BonsaiTreeEngine
from repro.integrity.sgx_tree import SgxTreeEngine

__all__ = [
    "BonsaiNode",
    "BonsaiTreeEngine",
    "SgxTreeEngine",
]
