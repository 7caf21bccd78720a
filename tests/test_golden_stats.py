"""Golden statistics of three figure cells.

Every simulated count, float and histogram summary of one Bonsai and one
SGX Table-1 cell, and of one Bonsai cell in Fig. 7's regime, is pinned
here, floats by ``repr``, in the order ``collect_stats()`` and
``StatGroup.as_dict()`` emit them.  A change to how statistics are kept
must leave every line unchanged.  Each cell takes more than 1,024
read-stall samples, so the histogram's reservoir decimation is part of
what is pinned.
"""

from __future__ import annotations

import pytest

from repro.config import SchemeKind, TreeKind, default_table1_config
from repro.controller.factory import build_controller
from repro.crypto.keys import ProcessorKeys
from repro.traces.profiles import profile
from repro.traces.replay import replay, replay_batched
from repro.traces.synthetic import generate_trace

ACCESSES = 2_000


def _cell(scheme, tree, run, cache_names, benchmark="mcf", cache_bytes=None):
    config = default_table1_config(scheme, tree)
    if cache_bytes is not None:
        config = config.with_cache_size(cache_bytes)
    controller = build_controller(config, keys=ProcessorKeys(0))
    run(controller, generate_trace(profile(benchmark), ACCESSES, seed=0))
    pairs = [("elapsed_ns", repr(controller.finalize()))]
    pairs += [
        (key, repr(value))
        for key, value in controller.collect_stats().items()
    ]
    for name in cache_names:
        cache = getattr(controller, name)
        pairs += [
            (key, repr(value)) for key, value in cache.stats.as_dict().items()
        ]
    return pairs


BONSAI_AGIT_PLUS_MCF = [
    ('elapsed_ns', '852957.1314923322'),
    ('ctrl.channel_reads', '6692'),
    ('ctrl.channel_writes', '620'),
    ('ctrl.data_reads', '1868'),
    ('ctrl.data_writes', '132'),
    ('ctrl.ecc_corrections', '0'),
    ('ctrl.integrity_checks', '4824'),
    ('ctrl.meta_fetches', '4824'),
    ('ctrl.meta_writebacks', '0'),
    ('ctrl.page_reencryptions', '0'),
    ('ctrl.persist_writes', '132'),
    ('ctrl.shadow_writes', '491'),
    ('ctrl.read_stall_ns.count', '6692'),
    ('ctrl.read_stall_ns.mean', '65.55887627017307'),
    ('ctrl.read_stall_ns.p50', '60.0'),
    ('ctrl.read_stall_ns.p95', '60.0'),
    ('ctrl.read_stall_ns.max', '600.0'),
    ('wpq.coalesced', '3'),
    ('wpq.drains', '620'),
    ('wpq.inserts', '623'),
    ('nvm.reads', '6692'),
    ('nvm.writes', '620'),
    ('counter_cache.evictions_clean', '8'),
    ('counter_cache.evictions_dirty', '0'),
    ('counter_cache.first_dirty', '132'),
    ('counter_cache.hits', '24'),
    ('counter_cache.misses', '1976'),
    ('merkle_cache.evictions_clean', '6'),
    ('merkle_cache.evictions_dirty', '0'),
    ('merkle_cache.first_dirty', '359'),
    ('merkle_cache.hits', '924'),
    ('merkle_cache.misses', '2848'),
]

SGX_ASIT_MCF = [
    ('elapsed_ns', '1033937.1314923319'),
    ('ctrl.channel_reads', '8710'),
    ('ctrl.channel_writes', '273'),
    ('ctrl.data_reads', '1868'),
    ('ctrl.data_writes', '132'),
    ('ctrl.ecc_corrections', '0'),
    ('ctrl.integrity_checks', '6842'),
    ('ctrl.lsb_overflow_persists', '0'),
    ('ctrl.meta_fetches', '6842'),
    ('ctrl.meta_writebacks', '3'),
    ('ctrl.page_reencryptions', '0'),
    ('ctrl.persist_writes', '132'),
    ('ctrl.shadow_writes', '138'),
    ('ctrl.read_stall_ns.count', '8710'),
    ('ctrl.read_stall_ns.mean', '61.88059701492526'),
    ('ctrl.read_stall_ns.p50', '60.0'),
    ('ctrl.read_stall_ns.p95', '60.0'),
    ('ctrl.read_stall_ns.max', '240.0'),
    ('wpq.coalesced', '0'),
    ('wpq.drains', '273'),
    ('wpq.inserts', '273'),
    ('nvm.reads', '8710'),
    ('nvm.writes', '273'),
    ('metadata_cache.evictions_clean', '216'),
    ('metadata_cache.evictions_dirty', '3'),
    ('metadata_cache.first_dirty', '135'),
    ('metadata_cache.hits', '3'),
    ('metadata_cache.misses', '6842'),
]

#: Fig. 7's regime: the write-back baseline with both metadata caches
#: cut to 8 KiB, so the counter cache thrashes and evicts dirty blocks
#: whose write-backs later fetches must flush first.
BONSAI_WRITE_BACK_GCC_8KIB = [
    ('elapsed_ns', '1087692.502331081'),
    ('ctrl.channel_reads', '6145'),
    ('ctrl.channel_writes', '2255'),
    ('ctrl.data_reads', '1383'),
    ('ctrl.data_writes', '617'),
    ('ctrl.ecc_corrections', '0'),
    ('ctrl.integrity_checks', '4764'),
    ('ctrl.meta_fetches', '4762'),
    ('ctrl.meta_writebacks', '1638'),
    ('ctrl.page_reencryptions', '0'),
    ('ctrl.persist_writes', '617'),
    ('ctrl.shadow_writes', '0'),
    ('ctrl.read_stall_ns.count', '6145'),
    ('ctrl.read_stall_ns.mean', '81.9300244100895'),
    ('ctrl.read_stall_ns.p50', '60.0'),
    ('ctrl.read_stall_ns.p95', '180.0'),
    ('ctrl.read_stall_ns.max', '300.0'),
    ('wpq.coalesced', '0'),
    ('wpq.drains', '2255'),
    ('wpq.inserts', '2255'),
    ('nvm.reads', '6145'),
    ('nvm.writes', '2255'),
    ('counter_cache.evictions_clean', '1237'),
    ('counter_cache.evictions_dirty', '569'),
    ('counter_cache.first_dirty', '611'),
    ('counter_cache.hits', '66'),
    ('counter_cache.misses', '1934'),
    ('merkle_cache.evictions_clean', '1631'),
    ('merkle_cache.evictions_dirty', '1069'),
    ('merkle_cache.first_dirty', '1133'),
    ('merkle_cache.hits', '4287'),
    ('merkle_cache.misses', '2828'),
]


@pytest.mark.parametrize(
    "scheme, tree, run, caches, expected",
    [
        (
            SchemeKind.AGIT_PLUS,
            TreeKind.BONSAI,
            replay_batched,
            ("counter_cache", "merkle_cache"),
            BONSAI_AGIT_PLUS_MCF,
        ),
        (
            SchemeKind.ASIT,
            TreeKind.SGX,
            replay,
            ("metadata_cache",),
            SGX_ASIT_MCF,
        ),
    ],
    ids=["bonsai-agit_plus-mcf", "sgx-asit-mcf"],
)
def test_cell_statistics_match_golden(scheme, tree, run, caches, expected):
    assert _cell(scheme, tree, run, caches) == expected


def test_fig07_regime_cell_matches_golden():
    pairs = _cell(
        SchemeKind.WRITE_BACK,
        TreeKind.BONSAI,
        replay_batched,
        ("counter_cache", "merkle_cache"),
        benchmark="gcc",
        cache_bytes=8 * 1024,
    )
    assert dict(pairs)["counter_cache.evictions_dirty"] != "0"
    assert pairs == BONSAI_WRITE_BACK_GCC_8KIB


@pytest.mark.parametrize(
    "scheme, tree",
    [
        (SchemeKind.WRITE_BACK, TreeKind.BONSAI),
        (SchemeKind.AGIT_PLUS, TreeKind.BONSAI),
        (SchemeKind.WRITE_BACK, TreeKind.SGX),
        (SchemeKind.ASIT, TreeKind.SGX),
    ],
    ids=[
        "bonsai-write_back", "bonsai-agit_plus", "sgx-write_back", "sgx-asit"
    ],
)
def test_each_metadata_fetch_counts_one_miss(scheme, tree):
    # 8 KiB caches on gcc: fills, deep verify walks and evictions.  On
    # Bonsai each fetched block is one counted miss, in the counter
    # cache for the block a caller asked for and in the Merkle cache
    # for every ancestor its verify walk fetches.  On SGX the re-check
    # after the parent walk counts nothing, so a fill is one miss; a
    # node that its own parent walk brings in (as an evicted child's
    # parent) counts its miss with no fetch of its own, which is rare.
    stats = dict(_cell(
        scheme, tree, replay,
        ("counter_cache", "merkle_cache") if tree == TreeKind.BONSAI
        else ("metadata_cache",),
        benchmark="gcc", cache_bytes=8 * 1024,
    ))
    fetches = int(stats["ctrl.meta_fetches"])
    if tree == TreeKind.BONSAI:
        misses = int(stats["counter_cache.misses"]) + int(
            stats["merkle_cache.misses"]
        )
        assert fetches > 0 and misses == fetches
    else:
        misses = int(stats["metadata_cache.misses"])
        assert fetches > 0 and fetches <= misses < fetches * 1.01
