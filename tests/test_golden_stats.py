"""Golden statistics of two Table-1 figure cells.

Every simulated count, float and histogram summary of one Bonsai and one
SGX cell is pinned here, floats by ``repr``, in the order
``collect_stats()`` and ``StatGroup.as_dict()`` emit them.  A change to
how statistics are kept must leave every line unchanged.  The two cells
take more than 1,024 read-stall samples each, so the histogram's
reservoir decimation is part of what is pinned.
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


def _cell(scheme, tree, run, cache_names):
    controller = build_controller(
        default_table1_config(scheme, tree), keys=ProcessorKeys(0)
    )
    run(controller, generate_trace(profile("mcf"), ACCESSES, seed=0))
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
    ('merkle_cache.misses', '0'),
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
    ('metadata_cache.misses', '13684'),
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
