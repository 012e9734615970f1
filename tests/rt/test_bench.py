"""The live suite of the bench table and its ``--check`` gate
(``repro live --bench --check``).

Pure-function tests over hand-built report dicts, plus one smoke pass
over every live row pinning it to its ``BENCH_live.json`` entry.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench import (
    LIVE_OPTIMIZATION_HISTORY,
    SUITES,
    compare_reports,
    get_scenarios,
    load_report,
    scenario_diff,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

#: The live suite gates at 50%.
LIVE_THRESHOLD = SUITES["live"].threshold


def live_scenarios():
    return get_scenarios("all", "live")


def report_with(scenarios):
    return {"schema": "repro-bench/v1", "scenarios": scenarios}


def entry(median, events=128):
    return {
        "events": events,
        "events_per_second": {"median": median},
    }


class TestCompareLiveReports:
    """The one comparer at the live suite's threshold."""

    def test_no_regression_within_threshold(self):
        assert LIVE_THRESHOLD == 0.5
        regressions, notes = compare_reports(
            report_with({"live-prany-throughput": entry(60.0)}),
            report_with({"live-prany-throughput": entry(80.0)}),
            LIVE_THRESHOLD,
        )
        assert regressions == []
        assert notes == []

    def test_regression_below_threshold_flagged(self):
        regressions, _ = compare_reports(
            report_with({"live-prany-throughput": entry(30.0)}),
            report_with({"live-prany-throughput": entry(80.0)}),
            LIVE_THRESHOLD,
        )
        assert [r.scenario for r in regressions] == ["live-prany-throughput"]
        assert regressions[0].baseline_eps == 80.0
        assert regressions[0].current_eps == 30.0

    def test_size_mismatch_skipped_with_note(self):
        # Live txns/sec is not size-invariant: a smoke run at a fraction
        # of baseline throughput must not read as a regression.
        regressions, notes = compare_reports(
            report_with({"live-prany-throughput": entry(16.0, events=16)}),
            report_with({"live-prany-throughput": entry(80.0, events=128)}),
            LIVE_THRESHOLD,
        )
        assert regressions == []
        assert len(notes) == 1
        assert "skipped" in notes[0]

    def test_missing_scenario_noted(self):
        regressions, notes = compare_reports(
            report_with({}),
            report_with({"live-prany-throughput": entry(80.0)}),
            LIVE_THRESHOLD,
        )
        assert regressions == []
        assert notes == [
            "live-prany-throughput: in baseline but not measured now "
            "(skipped)"
        ]


class TestScenarioSetDrift:
    """`repro live --bench --check` fails on named scenario drift.

    ``compare_reports`` only notes baseline entries that were not
    measured; the CLI gate additionally runs :func:`scenario_diff` and
    exits 1 on any added or missing name.
    """

    def test_new_live_scenario_without_baseline_entry_is_added(self):
        added, missing, mismatched = scenario_diff(
            report_with(
                {
                    "live-prany-multiproc": entry(40.0),
                    "live-prany-replicated": entry(30.0),
                }
            ),
            report_with({"live-prany-multiproc": entry(40.0)}),
        )
        assert added == ["live-prany-replicated"]
        assert missing == []
        assert mismatched == []

    def test_retired_scenario_still_in_baseline_is_missing(self):
        added, missing, mismatched = scenario_diff(
            report_with({"live-prany-multiproc": entry(40.0)}),
            report_with(
                {
                    "live-prany-multiproc": entry(40.0),
                    "live-prany-retired": entry(10.0),
                }
            ),
        )
        assert added == []
        assert missing == ["live-prany-retired"]
        assert mismatched == []

    def test_same_size_rename_is_caught(self):
        # Equal scenario counts with different names: the size-only
        # comparison the gate used to rely on passed this silently.
        added, missing, mismatched = scenario_diff(
            report_with({"live-b": entry(1.0)}),
            report_with({"live-a": entry(1.0)}),
        )
        assert (added, missing, mismatched) == (["live-b"], ["live-a"], [])

    def test_codec_mismatch_refused(self):
        # A json-codec baseline compared against a binary-codec run (or
        # vice versa) is apples to oranges: the gate must refuse the
        # comparison rather than grade the codec swap as a perf delta.
        json_entry = dict(entry(40.0), detail={"codec": "json"})
        binary_entry = dict(entry(55.0), detail={"codec": "binary"})
        added, missing, mismatched = scenario_diff(
            report_with({"live-prany-throughput": binary_entry}),
            report_with({"live-prany-throughput": json_entry}),
        )
        assert added == []
        assert missing == []
        assert mismatched == [
            "live-prany-throughput: baseline ran the json codec, "
            "this run the binary codec"
        ]

    def test_codec_recorded_on_only_one_side_is_not_flagged(self):
        # Pre-codec baselines have no detail.codec; comparing them
        # against a codec-recording run must stay legal or the first
        # regeneration after the field landed could never pass.
        new_entry = dict(entry(40.0), detail={"codec": "json"})
        _, _, mismatched = scenario_diff(
            report_with({"live-prany-throughput": new_entry}),
            report_with({"live-prany-throughput": entry(40.0)}),
        )
        assert mismatched == []

    def test_matching_codecs_are_not_flagged(self):
        both = dict(entry(40.0), detail={"codec": "binary"})
        _, _, mismatched = scenario_diff(
            report_with({"live-prany-throughput": both}),
            report_with({"live-prany-throughput": dict(both)}),
        )
        assert mismatched == []


class TestRegistry:
    def test_live_scenarios_are_named_in_report_order(self):
        scenarios = live_scenarios()
        assert [s.name for s in scenarios] == [
            "live-prany-commit",
            "live-prany-throughput",
            "live-prany-multiproc",
            "live-prany-replicated",
            "live-prany-single",
            "live-prany-sharded",
            "live-prany-openloop-json",
            "live-prany-openloop-binary",
            "live-codec-json",
            "live-codec-binary",
        ]

    def test_live_rows_match_committed_baseline(self):
        # Real clusters cannot reproduce counters, so the live suite is
        # pinned by shape: the table's rows are the baseline's rows, and
        # a smoke run of each reports the baseline's detail keys.
        baseline = load_report(REPO_ROOT / "BENCH_live.json")["scenarios"]
        assert {s.name for s in live_scenarios()} == set(baseline)
        for row in live_scenarios():
            entry = baseline[row.name]
            assert row.description == entry["description"], row.name
            assert list(row.tags) == entry["tags"], row.name
            assert row.seed == entry["seed"], row.name
            result = row.run(True)
            assert result.checks_passed, (row.name, result.detail)
            assert set(result.detail) == set(entry["detail"]), row.name

    def test_cluster_scenarios_are_nondeterministic(self):
        # Real clusters produce run-to-run trace variance; only the
        # socketless codec microbenchmarks have fixed work counters.
        for scenario in live_scenarios():
            expect_deterministic = scenario.name.startswith("live-codec-")
            assert scenario.deterministic == expect_deterministic, scenario.name

    def test_openloop_pair_scenarios_name_each_other(self):
        by_name = {s.name for s in live_scenarios()}
        assert "live-prany-openloop-json" in by_name
        assert "live-prany-openloop-binary" in by_name
        assert "live-codec-json" in by_name
        assert "live-codec-binary" in by_name

    def test_optimization_ledger_rows_are_complete(self):
        known = {s.name for s in live_scenarios()}
        for row in LIVE_OPTIMIZATION_HISTORY:
            assert row["scenario"] in known
            assert row["metric"] == "events_per_second.median"
            assert row["after"] >= row["before"]
            assert row["speedup"] >= 1.0
