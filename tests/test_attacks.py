"""Active-adversary campaigns: catalogue, oracle, runner, experiment.

Four layers under test:

* the attack catalogue — enough attack classes, scheme-aware
  filtering, crash-window wrappers only where recovery exists;
* the security-claims oracle — complete over the catalogue, citations
  mandatory for known vulnerabilities, loud failure when mis-declared;
* the campaign runner — claims hold for the paper's schemes, silent
  acceptance appears exactly at the cited known-vulnerable cells,
  results and result stores are byte-identical across job counts and
  resume, and the attack.* telemetry events fire;
* the security_matrix experiment — every cell as claimed.
"""

import json
import os

import pytest

from repro.attacks import (
    ATTACK_CLASSES,
    AttackCampaignConfig,
    SUPPORTED_SYSTEMS,
    SecurityClaim,
    SecurityOracle,
    Verdict,
    attack_catalogue,
    catalogue_listing,
    default_oracle,
    run_attack_campaign,
)
from repro.attacks.oracle import ACCEPTED_OUTCOMES, Expectation
from repro.config import SchemeKind, TreeKind
from repro.errors import (
    SecurityClaimError,
    SecurityClaimViolationError,
)
from repro.faults.campaign import Outcome
from repro.faults.models import WINDOW_AT_CRASH, WINDOW_MID_RECOVERY

from tests.helpers import small_config


def small_campaign(scheme, tree=None, **overrides) -> AttackCampaignConfig:
    settings = dict(
        seed=7, trace_length=600, num_crash_points=2, probe_reads=4
    )
    settings.update(overrides)
    return AttackCampaignConfig(
        system=small_config(scheme, tree=tree or TreeKind.BONSAI),
        **settings,
    )


class TestCatalogue:
    def test_at_least_six_attack_classes(self):
        assert len(ATTACK_CLASSES) >= 6
        assert len(catalogue_listing()) == len(ATTACK_CLASSES)

    def test_listing_covers_every_class_with_summary(self):
        for attack_class, windows, summary in catalogue_listing():
            assert attack_class and summary
            assert "at_crash" in windows

    def test_model_names_unique_per_config(self):
        for scheme, tree in SUPPORTED_SYSTEMS:
            models = attack_catalogue(small_config(scheme, tree=tree))
            names = [model.name for model in models]
            assert len(names) == len(set(names))

    def test_shadow_attacks_follow_the_scheme(self):
        agit = {
            m.name
            for m in attack_catalogue(small_config(SchemeKind.AGIT_PLUS))
        }
        assert {"shadow_forge_sct", "shadow_forge_smt"} <= agit
        assert "shadow_forge_st" not in agit
        asit = {
            m.name
            for m in attack_catalogue(
                small_config(SchemeKind.ASIT, tree=TreeKind.SGX)
            )
        }
        assert "shadow_forge_st" in asit
        assert "shadow_forge_sct" not in asit
        bare = {
            m.name
            for m in attack_catalogue(small_config(SchemeKind.WRITE_BACK))
        }
        assert not any(name.startswith("shadow_") for name in bare)

    def test_crash_window_requires_a_recovery_engine(self):
        strict = attack_catalogue(
            small_config(SchemeKind.STRICT_PERSISTENCE)
        )
        assert not any("@recovery" in m.name for m in strict)
        agit = attack_catalogue(small_config(SchemeKind.AGIT_PLUS))
        wrapped = [m for m in agit if "@recovery" in m.name]
        assert wrapped
        for model in wrapped:
            assert model.window == WINDOW_MID_RECOVERY
            assert model.tamper

    def test_every_model_is_a_tamper_model(self):
        for model in attack_catalogue(small_config(SchemeKind.AGIT_PLUS)):
            assert model.tamper
            assert model.describe()


class TestOracle:
    def test_known_vulnerable_requires_citation(self):
        with pytest.raises(SecurityClaimError):
            SecurityClaim(
                "line_replay",
                SchemeKind.SELECTIVE,
                TreeKind.BONSAI,
                WINDOW_AT_CRASH,
                Expectation.KNOWN_VULNERABLE,
            )

    def test_default_oracle_cites_every_vulnerability(self):
        for claim in default_oracle().claims():
            if claim.expected is Expectation.KNOWN_VULNERABLE:
                assert claim.citation, claim.key

    def test_default_oracle_covers_every_catalogue_model(self):
        oracle = default_oracle()
        for scheme, tree in SUPPORTED_SYSTEMS:
            config = small_config(scheme, tree=tree)
            for model in attack_catalogue(config):
                claim = oracle.claim_for(
                    model.attack_class, scheme, tree, model.window
                )
                assert claim.expected in Expectation

    def test_missing_claim_fails_loudly(self):
        with pytest.raises(SecurityClaimError, match="no security claim"):
            default_oracle().claim_for(
                "warp_core_breach",
                SchemeKind.AGIT_PLUS,
                TreeKind.BONSAI,
                WINDOW_AT_CRASH,
            )

    def test_duplicate_claims_rejected(self):
        claim = SecurityClaim(
            "line_replay",
            SchemeKind.AGIT_PLUS,
            TreeKind.BONSAI,
            WINDOW_AT_CRASH,
            Expectation.DETECTED,
        )
        with pytest.raises(SecurityClaimError, match="duplicate"):
            SecurityOracle([claim, claim])

    def test_recovery_failed_never_satisfies_any_claim(self):
        for accepted in ACCEPTED_OUTCOMES.values():
            assert Outcome.RECOVERY_FAILED not in accepted

    def test_classify_vacuous_as_claimed_violation(self):
        claim = SecurityClaim(
            "data_splice",
            SchemeKind.ASIT,
            TreeKind.SGX,
            WINDOW_AT_CRASH,
            Expectation.DETECTED,
        )
        classify = SecurityOracle.classify
        assert (
            classify(claim, Outcome.RECOVERED, degenerate=True)
            is Verdict.VACUOUS
        )
        assert (
            classify(claim, Outcome.TAMPER_DETECTED, degenerate=False)
            is Verdict.AS_CLAIMED
        )
        assert (
            classify(claim, Outcome.SILENT_CORRUPTION, degenerate=False)
            is Verdict.VIOLATION
        )


class TestCampaignClaims:
    @pytest.mark.parametrize(
        "scheme,tree",
        [
            (SchemeKind.AGIT_PLUS, None),
            (SchemeKind.ASIT, TreeKind.SGX),
            (SchemeKind.OSIRIS, None),
        ],
    )
    def test_protected_schemes_hold_every_claim(self, scheme, tree):
        result = run_attack_campaign(small_campaign(scheme, tree))
        result.require_as_claimed()
        outcomes = result.outcome_counts()
        assert outcomes["SILENT_CORRUPTION"] == 0
        assert outcomes["RECOVERY_FAILED"] == 0
        assert outcomes["TAMPER_DETECTED"] > 0

    def test_selective_is_vulnerable_exactly_where_cited(self):
        result = run_attack_campaign(
            small_campaign(SchemeKind.SELECTIVE, num_crash_points=3)
        )
        result.require_as_claimed()  # silent hits are *claimed* there
        silent = [
            t
            for t in result.trials
            if t.outcome is Outcome.SILENT_CORRUPTION
        ]
        assert silent, "the known-vulnerable replay must reproduce"
        for trial in silent:
            assert trial.attack_class == "line_replay"
            assert trial.expected is Expectation.KNOWN_VULNERABLE
            assert trial.citation

    def test_mis_declared_claim_raises_violation(self):
        # Deliberately wrong oracle: selective/bonsai line replay
        # declared DETECTED.  The campaign must refuse the lie.
        oracle = default_oracle()
        claims = [
            SecurityClaim(
                c.attack, c.scheme, c.tree, c.window,
                Expectation.DETECTED,
            )
            if c.attack == "line_replay"
            and c.scheme is SchemeKind.SELECTIVE
            else c
            for c in oracle.claims()
        ]
        campaign = small_campaign(
            SchemeKind.SELECTIVE,
            num_crash_points=3,
            oracle=SecurityOracle(claims),
        )
        result = run_attack_campaign(campaign)
        assert result.violations()
        with pytest.raises(SecurityClaimViolationError):
            result.require_as_claimed()

    def test_undeclared_attack_aborts_before_running(self):
        campaign = small_campaign(
            SchemeKind.AGIT_PLUS, oracle=SecurityOracle([])
        )
        with pytest.raises(SecurityClaimError):
            run_attack_campaign(campaign)

    def test_trials_carry_window_and_tamper_split(self):
        result = run_attack_campaign(small_campaign(SchemeKind.AGIT_PLUS))
        windows = {t.window for t in result.trials}
        assert windows == {WINDOW_AT_CRASH, WINDOW_MID_RECOVERY}
        # Deliberate tampering never classifies as the accidental
        # detected bucket: the split is what exit codes key on.
        assert all(
            t.outcome is not Outcome.DETECTED_UNRECOVERABLE
            for t in result.trials
        )


class TestDeterminismAndResume:
    def test_verdicts_identical_across_job_counts(self):
        campaign = small_campaign(SchemeKind.SELECTIVE)
        serial = run_attack_campaign(campaign, jobs=1)
        fanned = run_attack_campaign(campaign, jobs=2)
        assert serial.to_dict() == fanned.to_dict()

    def test_journals_byte_identical_across_job_counts(self, tmp_path):
        """The result store a ``--resume`` run leaves behind holds the
        same entries, byte for byte, at any job count."""
        campaign = small_campaign(SchemeKind.AGIT_PLUS)
        stores = []
        for jobs in (1, 2):
            directory = tmp_path / f"jobs{jobs}"
            _run_resumable(campaign, str(directory), jobs=jobs)
            entries = {
                str(path.relative_to(directory)): path.read_bytes()
                for path in directory.glob("??/*.json")
            }
            assert entries
            stores.append(entries)
        assert stores[0] == stores[1]

    def test_resume_skips_journaled_trials_and_matches(self, tmp_path):
        campaign = small_campaign(SchemeKind.SELECTIVE)
        reference = run_attack_campaign(campaign)
        directory = str(tmp_path / "resume")
        # First pass stores everything; the re-run must restore every
        # trial from the store and still judge identically.
        first = _run_resumable(campaign, directory)
        replayed = []
        resumed = _run_resumable(
            campaign, directory, on_trial=replayed.append
        )
        assert replayed == []  # nothing re-ran
        assert first.to_dict() == resumed.to_dict() == reference.to_dict()


def _run_resumable(campaign, directory, **kwargs):
    """One ``--resume directory`` run: the directory is the store."""
    from repro.sim.options import ExecutionOptions

    with ExecutionOptions(resume=directory).applied():
        return run_attack_campaign(campaign, **kwargs)


class TestTelemetry:
    def test_attack_events_fire_and_validate(self):
        from repro.telemetry.events import validate_events
        from repro.telemetry.runtime import TelemetrySpec, session

        with session(TelemetrySpec(events=True)) as active:
            result = run_attack_campaign(
                small_campaign(SchemeKind.SELECTIVE)
            )
            events = active.tracer.events()
            kinds = {}
            for event in events:
                kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
        assert validate_events(events) == []
        assert kinds["attack.inject"] == len(result.trials)
        detected = result.outcome_counts()["TAMPER_DETECTED"]
        silent = result.outcome_counts()["SILENT_CORRUPTION"]
        assert kinds.get("attack.detected", 0) == detected
        assert kinds.get("attack.missed", 0) == silent
        assert silent > 0  # selective: the escape is observable


class TestCliAndArtifacts:
    def test_attack_list_enumerates_catalogue(self, capsys):
        from repro.cli import main

        assert main(["attack", "--list"]) == 0
        printed = capsys.readouterr().out
        for attack_class, _windows, _summary in catalogue_listing():
            assert attack_class in printed

    def test_attack_cli_exit_codes_and_artifact(self, tmp_path, capsys):
        from repro.cli import EXIT_CLAIM_VIOLATION, main

        directory = str(tmp_path / "run")
        argv = [
            "attack",
            "--scheme", "agit_plus",
            "--capacity-gib", "1",
            "--cache-kib", "16",
            "--length", "600",
            "--crash-points", "2",
            "--probe-reads", "4",
            "--resume", directory,
        ]
        assert main(argv) == 0
        capsys.readouterr()
        artifact = os.path.join(directory, "attack_campaign.json")
        with open(artifact) as fh:
            body = json.load(fh)
        assert body["verdict_counts"]["VIOLATION"] == 0
        assert body["matrix"]
        assert EXIT_CLAIM_VIOLATION == 5


class TestSecurityMatrixExperiment:
    def test_small_matrix_all_cells_as_claimed(self):
        from repro.experiments import security_matrix

        result = security_matrix.run(
            trace_length=600, num_crash_points=2, probe_reads=4,
            capacity_bytes=4 * 1024 * 1024, cache_bytes=8 * 1024,
        )
        assert result.violations() == []
        result.require_as_claimed()
        table = security_matrix.format_table(result)
        assert "agit_plus/bonsai" in table
        assert "VIOLATION" not in table.replace("violations", "")
        payload = result.to_dict()
        assert set(payload) == {
            f"{scheme.value}/{tree.value}"
            for scheme, tree in security_matrix.SYSTEMS
        }
