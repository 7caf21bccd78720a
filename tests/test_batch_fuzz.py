"""Fuzz the batch window against scalar replay.

The window (:mod:`repro.controller.batch`) has its own guard for every
case it hands to the real scalar call: Bonsai hits and counter-block
misses, SGX hits and leaf-miss fills, dirty or stale victims, victims
on a write's own path, a pending ``_carried`` digest, counter overflows
and ASIT wraps, WPQ pressure and invalid addresses.  The other tests
replay fixed inputs; this one draws the system and the stream, so tiny
and oddly shaped caches, shallow WPQs and streams that mix hot lines
with cold misses reach guards no fixed input does.

Scalar replay runs with ``check_reads=True``, batched replay runs in
segments, and the two ``fingerprint``s must agree at every pause, as
must any error either raises.  After the last pause (or the error), a
scheme with a recovery engine crashes both controllers, reincarnates
them and recovers: the reports and the recovered NVM contents must
agree too.  Tier-1 runs a small derandomized budget;
``--hypothesis-profile window-fuzz`` (registered in ``conftest.py``)
runs a larger, randomized one.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, TreeKind
from repro.controller.access import MemoryRequest, Op
from repro.controller.factory import build_controller
from repro.crypto.keys import ProcessorKeys
from repro.faults.campaign import _recovery_engine, has_recovery_engine
from repro.recovery.crash import crash, reincarnate
from repro.traces.profiles import SyntheticProfile
from repro.traces.replay import replay, replay_batched
from repro.traces.synthetic import generate_trace
from repro.traces.trace import Trace

from tests.helpers import KIB, MIB, SMALL_MEMORY, small_config
from tests.test_batch_replay import BONSAI_SCHEMES, SGX_SCHEMES, fingerprint

LINES = SMALL_MEMORY // 64


def _budget() -> settings:
    """The loaded ``window-fuzz`` profile, else tier-1's small budget."""
    fuzz = settings.get_profile("window-fuzz")
    if settings.default is fuzz:
        return fuzz
    return settings(
        max_examples=100, derandomize=True, deadline=None, database=None
    )


@st.composite
def caches(draw) -> CacheConfig:
    """A 1–8 KiB cache of 1–8 ways (its set count a power of two)."""
    ways = draw(st.integers(1, 8))
    sets = draw(
        st.sampled_from(
            [s for s in (1, 2, 4, 8, 16, 32, 64, 128)
             if KIB <= 64 * ways * s <= 8 * KIB]
        )
    )
    return CacheConfig(size_bytes=64 * ways * sets, ways=ways)


@st.composite
def systems(draw):
    """The tree, the scheme, both caches, the WPQ depth, the Osiris
    stop-loss and the ASIT LSB width."""
    tree = draw(st.sampled_from([TreeKind.BONSAI, TreeKind.SGX]))
    scheme = draw(
        st.sampled_from(BONSAI_SCHEMES if tree == TreeKind.BONSAI
                        else SGX_SCHEMES)
    )
    counter = draw(caches())
    # The SGX combined cache takes the Merkle cache's ways and both
    # sizes, so it needs the two alike to keep a power-of-two set count.
    merkle = draw(caches()) if tree == TreeKind.BONSAI else counter
    config = small_config(scheme, tree)
    return dataclasses.replace(
        config,
        counter_cache=counter,
        merkle_cache=merkle,
        wpq_entries=draw(st.integers(4, 8)),
        encryption=dataclasses.replace(
            config.encryption,
            stop_loss_limit=draw(st.sampled_from([1, 2, 4, 8])),
        ),
        anubis=dataclasses.replace(
            config.anubis,
            asit_lsb_bits=draw(st.sampled_from([1, 2, 3, 49])),
        ),
    )


def _payload(position: int) -> bytes:
    return position.to_bytes(4, "little") * 16


@st.composite
def profile_streams(draw) -> Trace:
    """A synthetic profile's trace over the small memory."""
    footprint = draw(st.sampled_from([64 * KIB, 512 * KIB, 4 * MIB]))
    profile = SyntheticProfile(
        name="fuzz",
        write_fraction=draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
        pattern=draw(st.sampled_from(["stream", "random", "hot_cold"])),
        footprint_bytes=footprint,
        hot_bytes=footprint // 8,
        hot_fraction=draw(st.sampled_from([0.5, 0.9])),
        burst_length=draw(st.integers(1, 8)),
        rewrite_count=draw(st.sampled_from([1, 3, 127, 140])),
        gap_mean_ns=draw(st.sampled_from([10.0, 150.0])),
    )
    length = draw(st.integers(50, 400))
    return generate_trace(profile, length, seed=draw(st.integers(0, 99)))


#: Lines 4,096 apart: their counter blocks are 64 apart and their
#: level-1 nodes 8 apart, so they share a set in every drawn cache of up
#: to 64 (counter) or 8 (Merkle) sets, and evict one another.
CONFLICTING_LINES = st.integers(0, LINES // 4096 - 1).map(
    lambda k: k * 4096
)


@st.composite
def random_streams(draw) -> Trace:
    """Reads and writes over a few hot lines and the whole data region,
    perhaps with one misaligned, out-of-range or negative address.

    Replay stops at the first invalid address, so a second one could
    never run: at most one is drawn, at a drawn position.
    """
    hot = draw(
        st.lists(
            st.one_of(st.integers(0, LINES - 1), CONFLICTING_LINES),
            min_size=1,
            max_size=8,
        )
    )
    gap = draw(st.sampled_from([0.0, 10.0, 150.0]))
    address = st.one_of(
        st.sampled_from(hot), st.integers(0, LINES - 1)
    ).map(lambda line: line * 64)
    entries = draw(
        st.lists(st.tuples(st.booleans(), address), min_size=1, max_size=300)
    )
    if draw(st.booleans()):
        position = draw(st.integers(0, len(entries) - 1))
        entries[position] = (
            entries[position][0],
            draw(st.sampled_from([1, SMALL_MEMORY, -64])),
        )
    return Trace("fuzz", [
        MemoryRequest(Op.WRITE, address, _payload(position), gap)
        if is_write else MemoryRequest(Op.READ, address, None, gap)
        for position, (is_write, address) in enumerate(entries)
    ])


def _segment(run, controller, trace, oracle, start, stop, **kwargs):
    """Replay one segment; returns the error it raised, if any."""
    try:
        run(controller, trace, oracle, start=start, stop=stop, **kwargs)
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error), str(error)
    return None


def _crash_and_recover(config, controller):
    """Crash ``controller``, reincarnate it and run its scheme's
    recovery engine; returns what the run reports (its error, if any),
    with the phases' host wall times left out, and the recovered NVM's
    blocks."""
    crash(controller)
    reborn = reincarnate(controller)
    engine = _recovery_engine(config, reborn, reborn.nvm)
    try:
        report = engine.run()
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return type(error), str(error)
    fields = dict(vars(report))
    fields["phases"] = [
        (phase["phase"], phase["analytic_ns"])
        for phase in fields.get("phases", [])
    ]
    if hasattr(report, "estimated_ns"):
        fields["estimated_ns"] = report.estimated_ns()
    return fields, list(reborn.nvm.touched_blocks())


class TestWindowFuzz:
    @_budget()
    @given(
        config=systems(),
        trace=st.one_of(profile_streams(), random_streams()),
        data=st.data(),
    )
    def test_batched_segments_match_scalar_at_every_pause(
        self, config, trace, data
    ):
        pauses = sorted(
            set(
                data.draw(
                    st.lists(st.integers(1, len(trace)), max_size=4),
                    label="pauses",
                )
            )
            | {len(trace)}
        )
        scalar = build_controller(config, keys=ProcessorKeys(7))
        batched = build_controller(config, keys=ProcessorKeys(7))
        oracle_s: dict = {}
        oracle_b: dict = {}
        start = 0
        for stop in pauses:
            error_s = _segment(
                replay, scalar, trace, oracle_s, start, stop,
                check_reads=True,
            )
            error_b = _segment(
                replay_batched, batched, trace, oracle_b, start, stop
            )
            assert error_b == error_s
            assert oracle_b == oracle_s
            assert fingerprint(batched) == fingerprint(scalar)
            if error_s is not None:
                break
            start = stop
        if has_recovery_engine(config):
            assert _crash_and_recover(config, batched) == (
                _crash_and_recover(config, scalar)
            )
