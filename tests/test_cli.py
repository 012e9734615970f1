"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import _cmd_experiment, build_parser, main
from repro.experiments import EXPERIMENTS


def run_cli(capsys, *argv):
    code = main(list(argv))
    output = capsys.readouterr().out
    return code, output


class TestCLI:
    def test_list(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        assert "figure F1a" in out
        assert "theorem 1" in out

    def test_figure(self, capsys):
        code, out = run_cli(capsys, "figure", "F1a")
        assert code == 0
        assert "Figure 1(a)" in out
        assert "lane match vs paper figure" in out
        assert "'coordinator': True" in out

    def test_theorem_1(self, capsys):
        code, out = run_cli(capsys, "theorem", "1")
        assert code == 0
        assert "Theorem 1 DEMONSTRATED" in out

    def test_theorem_2(self, capsys):
        code, out = run_cli(capsys, "theorem", "2")
        assert code == 0
        assert "Theorem 2 DEMONSTRATED" in out

    def test_costs(self, capsys):
        code, out = run_cli(capsys, "costs", "--participants", "3")
        assert code == 0
        assert "C1" in out and "all-PrC" in out

    def test_selection(self, capsys):
        code, out = run_cli(capsys, "selection")
        assert code == 0
        assert "C3" in out

    def test_readonly(self, capsys):
        code, out = run_cli(capsys, "readonly")
        assert code == 0
        assert "C4" in out

    def test_recovery(self, capsys):
        code, out = run_cli(capsys, "recovery")
        assert code == 0
        assert "R1" in out

    def test_taxonomy(self, capsys):
        code, out = run_cli(capsys, "taxonomy")
        assert code == 0
        assert "Externalized" in out
        assert "PrAny:" in out

    def test_seed_flag(self, capsys):
        code, out = run_cli(capsys, "--seed", "99", "figure", "F2-commit")
        assert code == 0
        assert "Figure 2" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "F99"])

    def test_unknown_theorem_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["theorem", "4"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExperimentRegistration:
    """The experiment table is the one registration: `repro list`, the
    subcommands and `repro all` all come from it."""

    def test_list_and_parser_name_the_table(self, capsys):
        spelled = {row.name.replace("theorem", "theorem "): row for row in EXPERIMENTS}
        code, out = run_cli(capsys, "list")
        assert code == 0
        listed = [
            line for line in out.splitlines()
            if any(f" {row.artifact}: " in line for row in EXPERIMENTS)
        ]
        assert listed == [
            f"  {name:<18} {row.artifact}: {row.title}"
            for name, row in spelled.items()
        ]
        parser = build_parser()
        sub = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        number = next(
            action for action in sub.choices["theorem"]._actions
            if action.dest == "number"
        )
        commands = {
            name for name, command in sub.choices.items()
            if command.get_default("handler") is _cmd_experiment
        }
        assert commands - {"theorem"} | {
            f"theorem{n}" for n in number.choices
        } == {row.name for row in EXPERIMENTS}

    def test_all_prints_every_row_once_in_table_order(self, capsys):
        code, out = run_cli(capsys, "all")
        assert code == 0
        for row in EXPERIMENTS:
            assert out.count(row.heading) == 1, row.name
        positions = [out.index(row.heading) for row in EXPERIMENTS]
        assert positions == sorted(positions)

    def test_seed_reaches_every_experiment(self, capsys):
        # Without --seed a row runs at its own seed (C2: 9); with one,
        # at that seed.
        __, own = run_cli(capsys, "latency")
        __, nine = run_cli(capsys, "--seed", "9", "latency")
        __, three = run_cli(capsys, "--seed", "3", "latency")
        assert own == nine
        assert three != own


class TestLiveCLI:
    """The `repro live` real-socket entry point."""

    def test_list_mentions_live(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        assert "live" in out and "sockets" in out

    def test_live_smoke_runs_end_to_end(self, capsys):
        code, out = run_cli(
            capsys, "live", "--protocol", "prany", "--participants", "4",
            "--smoke", "--no-fsync",
        )
        assert code == 0
        assert "live run" in out
        # Per-transaction outcome lines, all decided.
        assert "t0000" in out and "UNDECIDED" not in out
        assert "terminated: 6/6" in out
        assert "atomicity=True" in out

    def test_live_kill_restart_smoke(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "live", "--protocol", "pra", "--participants", "4",
            "--smoke", "--no-fsync", "--kill-restart",
            "--data-dir", str(tmp_path),
        )
        assert code == 0
        assert "kill/restart:" in out
        assert "recovered from disk" in out
        assert "terminated: 6/6" in out
        # The victim's WAL actually exists on disk.
        assert list(tmp_path.glob("*/wal.jsonl"))

    def test_live_kill_restart_multiprocess_smoke(self, capsys, tmp_path):
        # The victim's own process arms the kill: a process cluster's
        # log events reach the supervisor only after the run.
        code, out = run_cli(
            capsys, "live", "--protocol", "pra", "--participants", "4",
            "--smoke", "--no-fsync", "--kill-restart", "--multiprocess",
            "--data-dir", str(tmp_path),
        )
        assert code == 0
        assert "kill/restart: site0_pra killed at" in out
        assert "recovered from disk" in out
        assert "terminated: 6/6" in out

    def test_live_kill_restart_fails_when_nothing_was_killed(
        self, capsys, tmp_path
    ):
        # The victim, the lowest site id, is the No voter of every
        # transaction it is in, so it never prepares.
        code, out = run_cli(
            capsys, "live", "--protocol", "pra", "--participants", "4",
            "--smoke", "--no-fsync", "--kill-restart",
            "--abort-fraction", "1.0", "--data-dir", str(tmp_path),
        )
        assert code == 1
        assert "kill/restart: FAILED, site0_pra was never killed" in out

    def test_bench_live_suite_writes_counts_and_prints_timings(
        self, capsys, tmp_path
    ):
        # One cheap row proves the --suite live plumbing; the suite
        # itself runs once in tests/rt/test_bench.py.
        report_path = tmp_path / "BENCH_live.json"
        code, out = run_cli(
            capsys, "bench", "--suite", "live", "--scenario", "live-codec-json",
            "--output", str(report_path),
        )
        assert code == 0
        assert "live suite" in out
        assert "timed: round_trips_per_second" in out
        from repro.bench.report import load_report

        entry = load_report(report_path)["scenarios"]["live-codec-json"]
        assert entry["detail"]["bytes_per_message"] == 100.8
        assert "round_trips_per_second" not in entry["detail"]
        # Full size, so the row also equals its committed entry.
        code, out = run_cli(
            capsys, "bench", "--suite", "live", "--scenario", "live-codec-json",
            "--check",
        )
        assert code == 0
        assert "counts equal BENCH_live.json" in out

    def test_bench_live_suite_check_refuses_size_mismatch(self, capsys):
        # A smoke run checked against the full-size committed file used
        # to skip every row and pass; it is an error naming both sizes.
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["bench", "--suite", "live", "--scenario", "live-codec-json",
                 "--smoke", "--check"]
            )
        message = str(exit_info.value)
        assert "BENCH_live.json holds full-size counts" in message
        assert "this run is smoke-size" in message

    def test_bench_partial_selection_never_overwrites_the_golden_file(
        self, capsys, tmp_path, monkeypatch
    ):
        # Without --output the report goes to BENCH_<suite>.json, so a
        # one-row run would replace the whole committed file.
        golden = tmp_path / "BENCH_sim.json"
        golden.write_text('{"scenarios": {}}\n')
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--scenario", "kernel-dispatch"])
        assert exit_info.value.code not in (0, None)
        assert "selects part of the suite" in str(exit_info.value)
        assert golden.read_text() == '{"scenarios": {}}\n'

    def test_live_has_no_bench_mode(self, capsys):
        for flag in ("--bench", "--bench-output", "--reps", "--check", "--baseline"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["live", flag])
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_live_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            main(["live", "--protocol", "3pc", "--smoke"])


class TestExploreCLI:
    """The `repro explore` fuzzing entry point."""

    def test_explore_clean_sweep_exits_zero(self, capsys):
        code, out = run_cli(
            capsys, "explore", "--seeds", "0:25", "--protocol", "prany",
            "--jobs", "1",
        )
        assert code == 0
        assert "violations:       0" in out

    def test_explore_u2pc_finds_and_shrinks(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "explore", "--seeds", "0:30", "--protocol", "u2pc",
            "--jobs", "1", "--artifacts", str(tmp_path),
            "--max-counterexamples", "1",
        )
        assert code == 1
        assert "atomicity" in out
        assert "shrunk to" in out
        exported = list(tmp_path.glob("u2pc-seed*.json"))
        assert len(exported) == 1

    def test_explore_no_shrink_skips_export(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "explore", "--seeds", "0:30", "--protocol", "u2pc",
            "--jobs", "1", "--artifacts", str(tmp_path), "--no-shrink",
        )
        assert code == 1
        assert not list(tmp_path.glob("*.json"))

    def test_explore_replay_of_pinned_artifact(self, capsys):
        from pathlib import Path

        artifact = sorted(
            (Path(__file__).parent / "explore" / "artifacts").glob("*.json")
        )[0]
        code, out = run_cli(capsys, "explore", "--replay", str(artifact))
        assert code == 0
        assert "[exact match]" in out

    def test_explore_seed_range_formats(self):
        parser = build_parser()
        args = parser.parse_args(["explore", "--seeds", "5:9"])
        assert list(args.seeds) == [5, 6, 7, 8]
        args = parser.parse_args(["explore", "--seeds", "4"])
        assert list(args.seeds) == [0, 1, 2, 3]

    def test_explore_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            main(["explore", "--seeds", "0:1", "--protocol", "3pc", "--jobs", "1"])

    def test_explore_has_no_grouped_engine_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["explore", "--group-commit"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
