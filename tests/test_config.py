"""Unit tests for system configuration validation and derivation."""

from dataclasses import replace

import pytest

from repro.config import (
    CacheConfig,
    MemoryConfig,
    SchemeKind,
    SystemConfig,
    TreeKind,
    default_table1_config,
)
from repro.errors import ConfigError

KIB = 1024
GIB = 1024 * 1024 * 1024


class TestMemoryConfig:
    def test_defaults_are_table1(self):
        memory = MemoryConfig()
        assert memory.capacity_bytes == 16 * GIB
        assert memory.num_blocks == 16 * GIB // 64
        assert memory.num_pages == 16 * GIB // 4096

    def test_derived_counts(self):
        memory = MemoryConfig(capacity_bytes=4 * 1024 * 1024)
        assert memory.num_blocks == 65536
        assert memory.num_pages == 1024
        assert memory.blocks_per_page == 64

    def test_rejects_fractional_pages(self):
        with pytest.raises(ConfigError):
            MemoryConfig(capacity_bytes=4096 + 64)


class TestCacheConfig:
    def test_derived_geometry(self):
        cache = CacheConfig(size_bytes=8 * KIB, ways=4)
        assert cache.num_blocks == 128
        assert cache.num_sets == 32

    def test_rejects_zero_size(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=0, ways=4)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=192 * 64, ways=1)

    def test_rejects_indivisible(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=1000, ways=3)


class TestSchemeKind:
    def test_general_recoverability(self):
        assert SchemeKind.OSIRIS.is_recoverable_general
        assert SchemeKind.AGIT_PLUS.is_recoverable_general
        assert not SchemeKind.WRITE_BACK.is_recoverable_general

    def test_sgx_recoverability_matches_paper(self):
        # §6.2: "the only schemes that can recover such tree are Strict
        # Persistence and ASIT".
        assert SchemeKind.STRICT_PERSISTENCE.is_recoverable_sgx
        assert SchemeKind.ASIT.is_recoverable_sgx
        assert not SchemeKind.OSIRIS.is_recoverable_sgx
        assert not SchemeKind.AGIT_PLUS.is_recoverable_sgx


class TestSystemConfig:
    def test_asit_requires_sgx_tree(self):
        with pytest.raises(ConfigError):
            SystemConfig(scheme=SchemeKind.ASIT, tree=TreeKind.BONSAI)

    def test_agit_requires_bonsai_tree(self):
        with pytest.raises(ConfigError):
            SystemConfig(scheme=SchemeKind.AGIT_READ, tree=TreeKind.SGX)

    def test_with_scheme_changes_only_scheme(self):
        base = default_table1_config(SchemeKind.WRITE_BACK, TreeKind.SGX)
        asit = base.with_scheme(SchemeKind.ASIT)
        assert asit == replace(base, scheme=SchemeKind.ASIT)

    def test_with_cache_size(self):
        resized = default_table1_config().with_cache_size(512 * KIB)
        assert resized.counter_cache.size_bytes == 512 * KIB
        assert resized.merkle_cache.size_bytes == 512 * KIB

    def test_metadata_cache_bytes(self):
        config = default_table1_config()
        assert config.metadata_cache_bytes == 512 * KIB

    def test_rejects_tiny_wpq(self):
        with pytest.raises(ConfigError):
            SystemConfig(wpq_entries=2)


class TestDefaultTable1:
    def test_bonsai_defaults(self):
        config = default_table1_config()
        assert config.tree == TreeKind.BONSAI
        assert config.counter_cache.size_bytes == 256 * KIB
        assert config.counter_cache.ways == 8
        assert config.merkle_cache.ways == 16

    def test_sgx_defaults(self):
        # One combined 512 KiB metadata cache ("ST in ASIT: 512KB").
        config = default_table1_config(SchemeKind.ASIT, TreeKind.SGX)
        assert config.tree == TreeKind.SGX
        assert config.metadata_cache_bytes == 512 * KIB

    def test_timing_matches_table1(self):
        timing = default_table1_config().timing
        assert timing.nvm_read_ns == 60.0
        assert timing.nvm_write_ns == 150.0

    def test_stop_loss_matches_paper(self):
        assert default_table1_config().encryption.stop_loss_limit == 4

    def test_capacity_override(self):
        config = default_table1_config(capacity_bytes=4 * 1024 * 1024)
        assert config.memory.capacity_bytes == 4 * 1024 * 1024
