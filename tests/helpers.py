"""Shared fixtures: small, fast system geometries.

Tests run on a 4MB memory with 8KB metadata caches — the same code
paths as the paper's 16GB/256KB configuration (identical tree arity and
block formats, just fewer levels and slots), at a speed that keeps the
suite in seconds.
"""

from __future__ import annotations

import pytest

from repro.config import (
    CacheConfig,
    MemoryConfig,
    SchemeKind,
    SystemConfig,
    TreeKind,
)
from repro.controller.factory import build_controller, build_layout
from repro.core.shadow_table import ShadowRegionTree
from repro.crypto.keys import ProcessorKeys

MIB = 1024 * 1024
KIB = 1024

SMALL_MEMORY = 4 * MIB
SMALL_CACHE = 8 * KIB


def small_config(
    scheme: SchemeKind = SchemeKind.WRITE_BACK,
    tree: TreeKind = TreeKind.BONSAI,
    cache_bytes: int = SMALL_CACHE,
    memory_bytes: int = SMALL_MEMORY,
) -> SystemConfig:
    """A miniature system config exercising full-size code paths."""
    return SystemConfig(
        scheme=scheme,
        tree=tree,
        memory=MemoryConfig(capacity_bytes=memory_bytes),
        counter_cache=CacheConfig(size_bytes=cache_bytes, ways=4),
        merkle_cache=CacheConfig(size_bytes=cache_bytes, ways=4),
    )


def make_controller(
    scheme: SchemeKind = SchemeKind.WRITE_BACK,
    tree: TreeKind = TreeKind.BONSAI,
    seed: int = 1,
    **config_kwargs,
):
    """Build a controller on a fresh small system."""
    config = small_config(scheme, tree, **config_kwargs)
    return build_controller(config, keys=ProcessorKeys(seed))


@pytest.fixture
def keys() -> ProcessorKeys:
    """Deterministic processor keys."""
    return ProcessorKeys(1)


@pytest.fixture
def bonsai_config() -> SystemConfig:
    """Small Bonsai write-back config."""
    return small_config()


@pytest.fixture
def sgx_config() -> SystemConfig:
    """Small SGX write-back config."""
    return small_config(tree=TreeKind.SGX)


@pytest.fixture
def bonsai_layout(bonsai_config):
    """Layout for the small Bonsai system."""
    return build_layout(bonsai_config)


@pytest.fixture
def sgx_layout(sgx_config):
    """Layout for the small SGX system."""
    return build_layout(sgx_config)


@pytest.fixture
def bonsai_controller(bonsai_config, keys):
    """A write-back Bonsai controller on the small system."""
    return build_controller(bonsai_config, keys=keys)


@pytest.fixture
def sgx_controller(sgx_config, keys):
    """A write-back SGX controller on the small system."""
    return build_controller(sgx_config, keys=keys)


def line(index: int) -> int:
    """Address of the ``index``-th 64B data line."""
    return index * 64


def payload(tag: int) -> bytes:
    """A distinctive 64B payload."""
    return bytes((tag + offset) % 256 for offset in range(64))


def compute_shadow_root(key: bytes, num_leaves: int, reader) -> int:
    """Root over the ST blocks ``reader(index)`` returns for every leaf,
    built from scratch: the reference SHADOW_TREE_ROOT is checked
    against."""
    blocks = {index: reader(index) for index in range(num_leaves)}
    return ShadowRegionTree(key, num_leaves, blocks).root
