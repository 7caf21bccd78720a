"""Golden recovery reports of three crash-recovery cycles.

A short libquantum trace runs on a Table-1 system with 32 KiB metadata
caches, the system crashes, a reincarnated controller runs recovery,
and every count of the report is pinned here, together with
``estimated_ns()``, ``breakdown_seconds()`` (floats by ``repr``) and a
sha256 over the NVM image recovery leaves behind.  The cycles are
AGIT-Plus recovering counters by Osiris trials, AGIT-Plus recovering
them from phase bits, and ASIT.  A change to how recovery reads the
shadow tables or the counter pages must leave every line unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, replace

import pytest

from repro.config import (
    KIB,
    CounterRecoveryKind,
    SchemeKind,
    TreeKind,
    default_table1_config,
)
from repro.controller.factory import build_controller
from repro.core.recovery_agit import AgitRecovery
from repro.core.recovery_asit import AsitRecovery
from repro.crypto.keys import ProcessorKeys
from repro.recovery.crash import crash, reincarnate
from repro.traces.profiles import profile
from repro.traces.replay import replay
from repro.traces.synthetic import generate_trace

ACCESSES = 3_000
CACHE_BYTES = 32 * KIB


def _cycle(scheme, tree, engine, counter_recovery=None):
    config = default_table1_config(scheme, tree).with_cache_size(CACHE_BYTES)
    if counter_recovery is not None:
        config = replace(config, encryption=replace(
            config.encryption, counter_recovery=counter_recovery
        ))
    controller = build_controller(config, keys=ProcessorKeys(0))
    replay(controller, generate_trace(profile("libquantum"), ACCESSES, seed=0))
    crash(controller)
    reborn = reincarnate(controller)
    report = engine(reborn.nvm, reborn.layout, reborn).run()
    pairs = [
        (item.name, repr(getattr(report, item.name)))
        for item in fields(report)
        if item.name != "phases"
    ]
    pairs.append(("estimated_ns", repr(report.estimated_ns())))
    pairs.append(("breakdown_seconds", repr(report.breakdown_seconds())))
    image = hashlib.sha256()
    for address, block in reborn.nvm.touched_blocks():
        image.update(address.to_bytes(8, "little"))
        image.update(block)
    pairs.append(("nvm_sha256", image.hexdigest()))
    return pairs


AGIT_PLUS_OSIRIS = [
    ('tracked_counter_blocks', '319'),
    ('tracked_tree_nodes', '196'),
    ('counters_repaired', '312'),
    ('nodes_rebuilt', '196'),
    ('osiris_trials', '1057'),
    ('memory_reads', '2426'),
    ('memory_writes', '515'),
    ('hash_ops', '1576'),
    ('root_matched', 'True'),
    ('repaired_levels', '{1: 121, 2: 55, 3: 15, 4: 2, 5: 1, 6: 1, 7: 1}'),
    ('estimated_ns', '505900.0'),
    ('breakdown_seconds', "{'scan': 1.04e-05, 'repair_counters': 0.0001809, 'rebuild_nodes': 0.0003136, 'verify_root': 1e-06}"),
    ('nvm_sha256', 'cb5afe61b454eea864511dc13d8d4daf3889fe42207043050009bc182e13e5ec'),
]

AGIT_PLUS_PHASE = [
    ('tracked_counter_blocks', '319'),
    ('tracked_tree_nodes', '196'),
    ('counters_repaired', '312'),
    ('nodes_rebuilt', '196'),
    ('osiris_trials', '433'),
    ('memory_reads', '2426'),
    ('memory_writes', '515'),
    ('hash_ops', '1576'),
    ('root_matched', 'True'),
    ('repaired_levels', '{1: 121, 2: 55, 3: 15, 4: 2, 5: 1, 6: 1, 7: 1}'),
    ('estimated_ns', '443500.0'),
    ('breakdown_seconds', "{'scan': 1.04e-05, 'repair_counters': 0.0001185, 'rebuild_nodes': 0.0003136, 'verify_root': 1e-06}"),
    ('nvm_sha256', 'cb5afe61b454eea864511dc13d8d4daf3889fe42207043050009bc182e13e5ec'),
]

ASIT = [
    ('st_blocks_scanned', '1024'),
    ('valid_entries', '421'),
    ('nodes_recovered', '421'),
    ('parent_fetches', '375'),
    ('memory_reads', '1820'),
    ('memory_writes', '928'),
    ('hash_ops', '3980'),
    ('shadow_root_matched', 'True'),
    ('estimated_ns', '580000.0'),
    ('breakdown_seconds', "{'scan_shadow': 0.0002048, 'splice': 4.21e-05, 'verify': 7.96e-05, 'commit': 0.0002535}"),
    ('nvm_sha256', '83724dafb17ef09da817214323bfc5c1410cc44b3dac4685b04f80c32b09b641'),
]


@pytest.mark.parametrize(
    "scheme, tree, engine, counter_recovery, golden",
    [
        pytest.param(
            SchemeKind.AGIT_PLUS, TreeKind.BONSAI, AgitRecovery,
            CounterRecoveryKind.OSIRIS, AGIT_PLUS_OSIRIS, id="agit_plus-osiris",
        ),
        pytest.param(
            SchemeKind.AGIT_PLUS, TreeKind.BONSAI, AgitRecovery,
            CounterRecoveryKind.PHASE, AGIT_PLUS_PHASE, id="agit_plus-phase",
        ),
        pytest.param(
            SchemeKind.ASIT, TreeKind.SGX, AsitRecovery, None, ASIT,
            id="asit",
        ),
    ],
)
def test_recovery_report_is_golden(
    scheme, tree, engine, counter_recovery, golden
):
    assert _cycle(scheme, tree, engine, counter_recovery) == golden
