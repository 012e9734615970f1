"""Report schema round-trip and regression detection."""

import json
from pathlib import Path

import pytest

from repro.bench.report import (
    OPTIMIZATION_HISTORY,
    SCHEMA_VERSION,
    build_report,
    compare_reports,
    load_report,
    scenario_diff,
    validate_report,
    write_report,
)
from repro.bench.runner import BenchConfig, ScenarioMeasurement, Stats
from repro.bench.rows import ScenarioResult
from repro.bench.scenarios import SCENARIOS, get_scenarios
from repro.errors import ReproError

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def fake_measurement(
    name="kernel-dispatch",
    events=1000,
    wall=0.5,
    messages=0,
    checks_passed=True,
) -> ScenarioMeasurement:
    scenario = SCENARIOS[name]
    result = ScenarioResult(
        events=events,
        trace_events=0,
        messages=messages,
        checks_passed=checks_passed,
        detail={},
    )
    walls = [wall, wall * 1.1, wall * 0.9]
    return ScenarioMeasurement(
        scenario=scenario,
        result=result,
        wall_seconds=Stats.over(walls),
        events_per_second=Stats.over([events / w for w in walls]),
        messages_per_second=Stats.over([messages / w for w in walls]),
        peak_rss_kb=1234,
        reps=3,
        warmup=1,
        smoke=True,
    )


def make_report(**kwargs):
    return build_report([fake_measurement(**kwargs)], BenchConfig(reps=3, smoke=True))


class TestSchemaRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        report = make_report()
        path = write_report(report, tmp_path / "BENCH_sim.json")
        assert load_report(path) == report

    def test_report_carries_schema_version_and_sections(self):
        report = make_report()
        assert report["schema"] == SCHEMA_VERSION
        assert "kernel-dispatch" in report["scenarios"]
        assert report["optimizations"] == OPTIMIZATION_HISTORY

    def test_stats_shape(self):
        entry = make_report()["scenarios"]["kernel-dispatch"]
        for metric in ("wall_seconds", "events_per_second", "messages_per_second"):
            assert set(entry[metric]) == {"median", "iqr", "min", "max"}

    def test_validate_rejects_wrong_schema(self):
        report = make_report()
        report["schema"] = "repro-bench/v999"
        assert validate_report(report)

    def test_validate_rejects_failed_checks(self):
        report = make_report(checks_passed=False)
        assert any("correctness" in p for p in validate_report(report))

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
        # The file at the repo root is the baseline --check reads; it
        # must always satisfy the current schema.
        report = load_report(REPO_ROOT / "BENCH_sim.json")
        assert report["schema"] == SCHEMA_VERSION
        assert set(report["scenarios"]) == {s.name for s in get_scenarios("all")}

    def test_committed_optimization_history_shows_kernel_speedup(self):
        report = load_report(REPO_ROOT / "BENCH_sim.json")
        by_scenario = {o["scenario"]: o for o in report["optimizations"]}
        kernel = by_scenario["kernel-dispatch"]
        assert kernel["after"] / kernel["before"] >= 1.3
        tracing = by_scenario["trace-record"]
        assert tracing["after"] / tracing["before"] >= 1.3


class TestRegressionDetection:
    def test_synthetic_slow_run_is_flagged(self):
        baseline = make_report(wall=0.5)
        # 3x slower than baseline: well past the 20% threshold.
        current = make_report(wall=1.5)
        regressions, notes = compare_reports(current, baseline)
        assert [r.scenario for r in regressions] == ["kernel-dispatch"]
        assert regressions[0].ratio < 0.5
        assert not notes

    def test_equal_runs_are_clean(self):
        baseline = make_report(wall=0.5)
        regressions, notes = compare_reports(make_report(wall=0.5), baseline)
        assert not regressions and not notes

    def test_small_slowdown_within_threshold_passes(self):
        baseline = make_report(wall=0.5)
        regressions, _ = compare_reports(make_report(wall=0.55), baseline)
        assert not regressions

    def test_speedup_never_flags(self):
        baseline = make_report(wall=0.5)
        regressions, _ = compare_reports(make_report(wall=0.1), baseline)
        assert not regressions

    def test_changed_workload_is_noted_not_flagged(self):
        baseline = make_report(events=1000, wall=0.5)
        current = make_report(events=2000, wall=5.0)
        regressions, notes = compare_reports(current, baseline)
        assert not regressions
        assert any("workload sizes differ" in n for n in notes)

    def test_missing_scenario_is_noted(self):
        baseline = make_report()
        current = json.loads(json.dumps(baseline))
        current["scenarios"] = {}
        # Current with no scenarios at all: baseline entries are noted.
        regressions, notes = compare_reports(current, baseline)
        assert not regressions
        assert any("not measured" in n for n in notes)


class TestScenarioDiff:
    """The named added/missing diff behind the ``--check`` gates.

    ``compare_reports`` only compares the intersection; a scenario
    added without regenerating the baseline (or removed while its
    baseline entry lingered) used to slip through any gate that merely
    compared what overlapped. ``scenario_diff`` names the drift so the
    CLI can fail on it.
    """

    @staticmethod
    def with_scenarios(names):
        report = make_report()
        entry = report["scenarios"]["kernel-dispatch"]
        report = json.loads(json.dumps(report))
        report["scenarios"] = {name: entry for name in names}
        return report

    def test_identical_sets_are_clean(self):
        current = self.with_scenarios(["a", "b"])
        baseline = self.with_scenarios(["b", "a"])
        assert scenario_diff(current, baseline) == ([], [], [])

    def test_added_scenario_is_named(self):
        current = self.with_scenarios(["a", "b", "commit-storm-replicated-prany"])
        baseline = self.with_scenarios(["a", "b"])
        added, missing, mismatched = scenario_diff(current, baseline)
        assert added == ["commit-storm-replicated-prany"]
        assert missing == []
        assert mismatched == []

    def test_missing_scenario_is_named(self):
        current = self.with_scenarios(["a"])
        baseline = self.with_scenarios(["a", "retired-scenario"])
        added, missing, mismatched = scenario_diff(current, baseline)
        assert added == []
        assert missing == ["retired-scenario"]
        assert mismatched == []

    def test_rename_shows_both_sides_sorted(self):
        # The same-size trap: one added + one removed keeps the count
        # equal, which is exactly what a size-only comparison missed.
        current = self.with_scenarios(["a", "z-new", "b-new"])
        baseline = self.with_scenarios(["a", "z-old", "b-old"])
        added, missing, mismatched = scenario_diff(current, baseline)
        assert added == ["b-new", "z-new"]
        assert missing == ["b-old", "z-old"]
        assert mismatched == []

    def test_committed_baseline_matches_registry(self):
        # The gate the CI job runs: the committed file must cover the
        # registry exactly, or `repro bench --check` exits 1.
        baseline = load_report(REPO_ROOT / "BENCH_sim.json")
        current = self.with_scenarios([s.name for s in get_scenarios("all")])
        assert scenario_diff(current, baseline) == ([], [], [])

    def test_codec_mismatch_is_refused(self):
        # The sim gate shares scenario_diff with the live gate: a
        # baseline measured under one wire codec must not be compared
        # against a run measured under the other.
        current = self.with_scenarios(["a"])
        baseline = self.with_scenarios(["a"])
        current["scenarios"]["a"]["detail"] = {"codec": "binary"}
        baseline["scenarios"]["a"]["detail"] = {"codec": "json"}
        added, missing, mismatched = scenario_diff(current, baseline)
        assert (added, missing) == ([], [])
        assert mismatched == [
            "a: baseline ran the json codec, this run the binary codec"
        ]

    def test_codec_absent_from_baseline_is_tolerated(self):
        current = self.with_scenarios(["a"])
        baseline = self.with_scenarios(["a"])
        current["scenarios"]["a"]["detail"] = {"codec": "binary"}
        baseline["scenarios"]["a"].pop("detail", None)
        assert scenario_diff(current, baseline)[2] == []
