"""Report schema round-trip and the one ``--check`` rule: exact equality
with the committed golden file, row by row and field by field."""

import json
from pathlib import Path

import pytest

from repro.bench.report import (
    SCHEMA_VERSION,
    build_report,
    count_diff,
    load_baseline,
    load_report,
    validate_report,
    write_report,
)
from repro.bench.rows import ScenarioResult
from repro.bench.scenarios import SCENARIOS, get_scenarios
from repro.cli import main
from repro.errors import ReproError

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def make_report(
    name="kernel-dispatch", events=1000, messages=0, checks_passed=True, smoke=True
):
    result = ScenarioResult(
        events=events,
        trace_events=0,
        messages=messages,
        checks_passed=checks_passed,
        detail={"target_events": events},
        timed={"latency_ms": {"p50": 1.0}},
    )
    return build_report([(SCENARIOS[name], result)], smoke)


class TestSchemaRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        report = make_report()
        path = write_report(report, tmp_path / "BENCH_sim.json")
        assert load_report(path) == report

    def test_report_carries_schema_version_and_sections(self):
        report = make_report()
        assert set(report) == {"schema", "smoke", "scenarios"}
        assert report["schema"] == SCHEMA_VERSION
        # Only what a rerun reproduces: nothing timed reaches the file.
        assert set(report["scenarios"]["kernel-dispatch"]) == {
            "description",
            "seed",
            "tags",
            "events",
            "trace_events",
            "messages",
            "checks_passed",
            "detail",
        }
        assert "latency_ms" not in json.dumps(report)

    def test_counters_a_row_cannot_reproduce_are_left_out(self):
        result = ScenarioResult(events=8, checks_passed=True)
        entry = build_report([(SCENARIOS["live-prany-commit"], result)])
        entry = entry["scenarios"]["live-prany-commit"]
        assert "trace_events" not in entry and "messages" not in entry

    def test_validate_rejects_wrong_schema(self):
        report = make_report()
        report["schema"] = "repro-bench/v1"
        assert validate_report(report)

    def test_validate_rejects_failed_checks(self):
        report = make_report(checks_passed=False)
        assert any("checks_passed" in p for p in validate_report(report))

    def test_write_refuses_invalid_report(self, tmp_path):
        report = make_report()
        del report["scenarios"]
        with pytest.raises(ReproError):
            write_report(report, tmp_path / "bad.json")

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ReproError):
            load_report(path)

    def test_committed_baseline_is_schema_valid(self):
        # The files at the repo root are what --check reads; they hold
        # the table's rows at full size and nothing a rerun cannot
        # reproduce.
        def keys(value):
            if isinstance(value, dict):
                for key, inner in value.items():
                    yield key
                    yield from keys(inner)

        for suite in ("sim", "live"):
            report = load_baseline(REPO_ROOT / f"BENCH_{suite}.json", smoke=False)
            assert set(report["scenarios"]) == {
                s.name for s in get_scenarios("all", suite)
            }
            assert not set(keys(report)) & {
                "config",
                "host",
                "optimizations",
                "reps",
                "wall_seconds",
                "events_per_second",
                "messages_per_second",
                "peak_rss_kb",
                "latency_ms",
                "knee",
                "rows",
                "virtual_units",
                "round_trips_per_second",
            }


class TestRegressionDetection:
    """A count that differs from the golden file is the only regression
    the gate knows."""

    def test_equal_runs_are_clean(self):
        assert count_diff(make_report(), make_report()) == []

    def test_changed_workload_is_flagged(self):
        diff = count_diff(make_report(events=2000), make_report(events=1000))
        assert diff == [
            "kernel-dispatch: detail.target_events is 2000, baseline 1000",
            "kernel-dispatch: events is 2000, baseline 1000",
        ]

    def test_missing_scenario_is_noted(self):
        # A baseline row that was not run: a difference for a whole-suite
        # run, legitimately skipped by a partial --scenario selection.
        baseline = make_report()
        current = json.loads(json.dumps(baseline))
        current["scenarios"] = {}
        assert count_diff(current, baseline, whole_suite=False) == []
        assert count_diff(current, baseline) == [
            "kernel-dispatch: in the baseline, not in the table"
        ]

    def test_size_mismatch_is_refused(self, tmp_path):
        # The vacuous gate: a smoke run against a full-size file used to
        # skip every row and report "no regressions".
        path = write_report(make_report(smoke=False), tmp_path / "full.json")
        assert load_baseline(path, smoke=False)
        with pytest.raises(ReproError, match="full-size.*smoke-size"):
            load_baseline(path, smoke=True)


class TestScenarioDiff:
    """The named added/missing diff behind ``--check``: a scenario added
    without regenerating the baseline (or removed while its baseline
    entry lingered) fails by name."""

    @staticmethod
    def with_scenarios(names):
        report = make_report()
        entry = report["scenarios"]["kernel-dispatch"]
        report["scenarios"] = {name: json.loads(json.dumps(entry)) for name in names}
        return report

    def test_identical_sets_are_clean(self):
        current = self.with_scenarios(["a", "b"])
        baseline = self.with_scenarios(["b", "a"])
        assert count_diff(current, baseline) == []

    def test_added_scenario_is_named(self):
        current = self.with_scenarios(["a", "b", "commit-storm-replicated-prany"])
        baseline = self.with_scenarios(["a", "b"])
        assert count_diff(current, baseline) == [
            "commit-storm-replicated-prany: run now, absent from the baseline"
        ]

    def test_missing_scenario_is_named(self):
        current = self.with_scenarios(["a"])
        baseline = self.with_scenarios(["a", "retired-scenario"])
        assert count_diff(current, baseline) == [
            "retired-scenario: in the baseline, not in the table"
        ]

    def test_rename_shows_both_sides_sorted(self):
        # The same-size trap: one added + one removed keeps the count
        # equal, which is exactly what a size-only comparison missed.
        current = self.with_scenarios(["a", "b-new"])
        baseline = self.with_scenarios(["a", "b-old"])
        assert count_diff(current, baseline) == [
            "b-new: run now, absent from the baseline",
            "b-old: in the baseline, not in the table",
        ]

    def test_committed_baseline_matches_registry(self):
        # The gate the CI job runs: the committed file must cover the
        # table exactly, or `repro bench --check` exits 1.
        baseline = load_report(REPO_ROOT / "BENCH_sim.json")
        assert list(baseline["scenarios"]) == sorted(
            s.name for s in get_scenarios("all")
        )

    def test_codec_mismatch_is_refused(self):
        # `codec` is one more exact value: a baseline run under one wire
        # codec never equals a run under the other.
        current = self.with_scenarios(["a"])
        baseline = self.with_scenarios(["a"])
        current["scenarios"]["a"]["detail"] = {"codec": "binary"}
        baseline["scenarios"]["a"]["detail"] = {"codec": "json"}
        assert count_diff(current, baseline) == [
            "a: detail.codec is 'binary', baseline 'json'"
        ]

    def test_codec_absent_from_baseline_is_flagged(self):
        current = self.with_scenarios(["a"])
        baseline = self.with_scenarios(["a"])
        current["scenarios"]["a"]["detail"]["codec"] = "binary"
        assert count_diff(current, baseline) == [
            "a: detail.codec is 'binary', baseline has no such field"
        ]


#: Cheap at full size (~0.2 s) and has every kind of field.
ROW = "commit-storm-log-grouped"


def _drop_detail_key(entry):
    del entry["detail"]["kernel_steps"]


def _drop_detail(entry):
    del entry["detail"]


class TestTamperedBaseline:
    """``repro bench --check`` against tampered copies of the committed
    file: each exits 1 and names the row and the field."""

    def check(self, capsys, tmp_path, tamper):
        baseline = json.loads((REPO_ROOT / "BENCH_sim.json").read_text())
        tamper(baseline["scenarios"])
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(baseline))
        code = main(["bench", "--scenario", ROW, "--check", "--output", str(path)])
        return code, capsys.readouterr().out

    def test_untampered_copy_passes(self, capsys, tmp_path):
        code, out = self.check(capsys, tmp_path, lambda scenarios: None)
        assert code == 0
        assert "counts equal" in out and "COUNT DIFF" not in out

    @pytest.mark.parametrize(
        "tamper,expected",
        [
            (
                lambda entry: entry.update(messages=1),
                f"{ROW}: messages is 0, baseline 1",
            ),
            (
                _drop_detail_key,
                f"{ROW}: detail.kernel_steps is 1280, baseline has no such field",
            ),
            (
                _drop_detail,
                f"{ROW}: detail.forces_performed is 640, baseline has no such field",
            ),
            (
                lambda entry: entry["tags"].append("fast"),
                f"{ROW}: tags is ['micro', 'storage', 'group-commit'], "
                "baseline ['micro', 'storage', 'group-commit', 'fast']",
            ),
            (
                lambda entry: entry.update(seed=8),
                f"{ROW}: seed is 7, baseline 8",
            ),
        ],
        ids=["messages", "detail-key", "detail", "tag", "seed"],
    )
    def test_changed_field_is_named(self, capsys, tmp_path, tamper, expected):
        code, out = self.check(
            capsys, tmp_path, lambda scenarios: tamper(scenarios[ROW])
        )
        assert code == 1
        assert "COUNT DIFF" in out and expected in out

    def test_renamed_row_is_named(self, capsys, tmp_path):
        def rename(scenarios):
            scenarios["commit-storm-log-batched"] = scenarios.pop(ROW)

        code, out = self.check(capsys, tmp_path, rename)
        assert code == 1
        assert f"{ROW}: run now, absent from the baseline" in out

    def test_failed_gate_in_the_file_is_refused(self, capsys, tmp_path):
        # A golden file never records a broken run; the file is invalid
        # before any row runs.
        def fail(scenarios):
            scenarios[ROW]["checks_passed"] = False

        with pytest.raises(SystemExit) as exit_info:
            self.check(capsys, tmp_path, fail)
        assert f"'{ROW}': checks_passed is not true" in str(exit_info.value)
