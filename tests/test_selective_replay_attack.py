"""The replay attack against selective persistence — executable.

Osiris's critique of selective counter atomicity [8], quoted in §7:
"since not protecting the majority of counters, [it] could result in
replay attacks as stale values of counters may occur for these counters
after a crash."  These tests stage exactly that attack:

1. the victim writes secret v1, then overwrites it with v2 (both writes
   persist the *data*; the non-persistent counter stays on-chip);
2. the attacker records the v1-era (ciphertext, sideband, counter
   block) from NVM;
3. power fails; the attacker plants the recorded triple;
4. the system restores.

Under SELECTIVE the restore adopts a rebuilt root, blesses the stale
counter, and v1 is served **with all checks passing** — the attack
succeeds silently.  Under AGIT the on-chip root is the anchor, recovery
repairs the counter from the (current) data, and the planted state is
detected.  Under plain write-back the read simply fails (no recovery at
all), which is safe but useless.

These tests are the regression alias for the catalogue's
``line_replay`` attack (:class:`repro.attacks.LineReplayAttack`): the
record/plant steps below call the catalogue's own helpers, so the
hand-staged scenario and the campaign attack can never drift apart.
Campaign-scale coverage lives in ``tests/test_attacks.py``.
"""

import pytest

from repro.attacks import LineReplayAttack
from repro.config import SchemeKind
from repro.core.recovery_agit import AgitRecovery
from repro.errors import IntegrityError, RootMismatchError
from repro.recovery.crash import crash, reincarnate
from repro.recovery.selective import SelectiveRestore

from tests.helpers import line, make_controller, payload, small_config

SECRET_V1 = payload(111)
SECRET_V2 = payload(222)


def non_persistent_line(controller) -> int:
    """A data line whose counter the SELECTIVE scheme never persists."""
    boundary_pages = controller._selective_boundary
    return (boundary_pages + 1) * controller.config.memory.page_size


def stage_attack(controller, victim_address):
    """Steps 1-3: victim writes, attacker records, crash, plant."""
    controller.write(victim_address, SECRET_V1)
    controller.writeback_all()  # v1 era fully in NVM (normal evictions)
    recorded = LineReplayAttack.record_triple(
        controller.nvm, controller.layout, victim_address
    )
    controller.write(victim_address, SECRET_V2)  # data persists; counter
    crash(controller)                            # update is on-chip only
    # the attacker plants the v1-era state
    LineReplayAttack.plant(
        controller.nvm, controller.layout, victim_address, recorded
    )
    return reincarnate(controller)


class TestAttackSucceedsAgainstSelective:
    def test_replayed_secret_served_without_detection(self):
        controller = make_controller(SchemeKind.SELECTIVE)
        victim = non_persistent_line(controller)
        reborn = stage_attack(controller, victim)
        report = SelectiveRestore(reborn.nvm, reborn.layout, reborn).run()
        assert report.adopted_new_root
        # Every check passes and the OLD secret comes back: the replay
        # attack succeeded silently.
        assert reborn.read(victim) == SECRET_V1

    def test_persistent_region_unaffected_by_staleness(self):
        # Inside the declared persistent region the counters persist
        # with the data, so honest crash-recovery works there.
        controller = make_controller(SchemeKind.SELECTIVE)
        address = line(0)  # page 0: persistent region
        controller.write(address, SECRET_V1)
        controller.write(address, SECRET_V2)
        crash(controller)
        reborn = reincarnate(controller)
        SelectiveRestore(reborn.nvm, reborn.layout, reborn).run()
        assert reborn.read(address) == SECRET_V2


class TestAttackFailsAgainstAnubis:
    def test_agit_detects_planted_state(self):
        controller = make_controller(SchemeKind.AGIT_PLUS)
        victim = non_persistent_line(
            make_controller(SchemeKind.SELECTIVE)
        )  # same address, any region — AGIT protects everything
        reborn = stage_attack(controller, victim)
        # Recovery either refuses outright (root mismatch) or repairs
        # the true counter so the planted v1 ciphertext fails its check.
        try:
            AgitRecovery(reborn.nvm, reborn.layout, reborn).run()
        except RootMismatchError:
            return  # detected during recovery: attack defeated
        with pytest.raises(IntegrityError):
            reborn.read(victim)

    def test_write_back_fails_closed(self):
        controller = make_controller(SchemeKind.WRITE_BACK)
        victim = non_persistent_line(
            make_controller(SchemeKind.SELECTIVE)
        )
        reborn = stage_attack(controller, victim)
        with pytest.raises(IntegrityError):
            reborn.read(victim)


class TestSelectiveCostProfile:
    def test_persists_fewer_counters_than_strict(self):
        selective = make_controller(SchemeKind.SELECTIVE)
        strict = make_controller(SchemeKind.STRICT_PERSISTENCE)
        boundary = selective._selective_boundary
        for controller in (selective, strict):
            for page in range(boundary * 2):
                controller.write(
                    page * controller.config.memory.page_size, payload(page)
                )
        assert selective.persist_writes < strict.persist_writes

    def test_overhead_scales_with_persistent_fraction(self):
        from dataclasses import replace

        writes = {}
        for fraction in (0.1, 0.9):
            config = replace(
                small_config(SchemeKind.SELECTIVE),
                selective_persistent_fraction=fraction,
            )
            from repro.controller.factory import build_controller
            from repro.crypto.keys import ProcessorKeys

            controller = build_controller(config, keys=ProcessorKeys(1))
            for page in range(200):
                controller.write(
                    page * config.memory.page_size, payload(page % 250)
                )
            writes[fraction] = controller.persist_writes
        assert writes[0.9] > writes[0.1]

    def test_restore_is_still_o_n(self):
        # The other half of the paper's critique: even ignoring the
        # vulnerability, restore work scales with touched memory.
        controller = make_controller(SchemeKind.SELECTIVE)
        for page in range(120):
            controller.write(
                page * controller.config.memory.page_size, payload(page % 250)
            )
        crash(controller)
        reborn = reincarnate(controller)
        report = SelectiveRestore(reborn.nvm, reborn.layout, reborn).run()
        assert report.counter_blocks_scanned >= 120
