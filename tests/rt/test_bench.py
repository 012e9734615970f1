"""The live suite of the bench table and its golden file
(``repro bench --suite live --check``).

Pure-function tests over hand-built report dicts, plus one smoke pass
over every live row pinning it to its ``BENCH_live.json`` entry.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import count_diff, get_scenarios, load_baseline, load_report
from repro.errors import ReproError

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def live_scenarios():
    return get_scenarios("all", "live")


def report_with(scenarios, smoke=False):
    return {"schema": "repro-bench/v2", "smoke": smoke, "scenarios": scenarios}


def entry(committed, events=128, **detail):
    return {
        "events": events,
        "checks_passed": True,
        "detail": {"committed": committed, **detail},
    }


class TestCompareLiveReports:
    def test_size_mismatch_is_refused(self, tmp_path):
        # Smoke against the committed full-size file is an error naming
        # both sizes, not a pass that compared nothing.
        with pytest.raises(ReproError, match="full-size.*smoke-size"):
            load_baseline(REPO_ROOT / "BENCH_live.json", smoke=True)
        path = tmp_path / "smoke.json"
        path.write_text(json.dumps(report_with({"a": entry(4)}, smoke=True)))
        with pytest.raises(ReproError, match="smoke-size.*full-size"):
            load_baseline(path, smoke=False)


class TestScenarioSetDrift:
    """`repro bench --suite live --check` fails on named scenario drift."""

    def test_new_live_scenario_without_baseline_entry_is_added(self):
        diff = count_diff(
            report_with(
                {
                    "live-prany-multiproc": entry(44),
                    "live-prany-replicated": entry(44),
                }
            ),
            report_with({"live-prany-multiproc": entry(44)}),
        )
        assert diff == ["live-prany-replicated: run now, absent from the baseline"]

    def test_retired_scenario_still_in_baseline_is_missing(self):
        diff = count_diff(
            report_with({"live-prany-multiproc": entry(44)}),
            report_with(
                {
                    "live-prany-multiproc": entry(44),
                    "live-prany-retired": entry(10),
                }
            ),
        )
        assert diff == ["live-prany-retired: in the baseline, not in the table"]

    def test_same_size_rename_is_caught(self):
        # Equal scenario counts with different names: the size-only
        # comparison the gate used to rely on passed this silently.
        diff = count_diff(
            report_with({"live-b": entry(1)}), report_with({"live-a": entry(1)})
        )
        assert diff == [
            "live-b: run now, absent from the baseline",
            "live-a: in the baseline, not in the table",
        ]

    def test_codec_mismatch_refused(self):
        # A json-codec baseline never equals a binary-codec run.
        diff = count_diff(
            report_with({"live-prany-throughput": entry(86, codec="binary")}),
            report_with({"live-prany-throughput": entry(86, codec="json")}),
        )
        assert diff == [
            "live-prany-throughput: detail.codec is 'binary', baseline 'json'"
        ]

    def test_codec_recorded_on_only_one_side_is_flagged(self):
        diff = count_diff(
            report_with({"live-prany-throughput": entry(86, codec="json")}),
            report_with({"live-prany-throughput": entry(86)}),
        )
        assert diff == [
            "live-prany-throughput: detail.codec is 'json', "
            "baseline has no such field"
        ]

    def test_matching_codecs_are_not_flagged(self):
        both = entry(86, codec="binary")
        assert (
            count_diff(
                report_with({"live-prany-throughput": both}),
                report_with({"live-prany-throughput": dict(both)}),
            )
            == []
        )


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
        # The one tier-1 run of each live row, at smoke size: names,
        # tags, seeds and descriptions are the golden file's, and each
        # row reports the golden entry's fields (the counts themselves
        # are full-size there; CI's `repro bench --suite live --check`
        # compares them).
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
            assert (result.messages is None) == ("messages" not in entry), row.name
            # What a real cluster's scheduling decides is printed only.
            assert result.timed and not set(result.timed) & set(result.detail)

    def test_openloop_pair_scenarios_name_each_other(self):
        by_name = {s.name for s in live_scenarios()}
        assert "live-prany-openloop-json" in by_name
        assert "live-prany-openloop-binary" in by_name
        assert "live-codec-json" in by_name
        assert "live-codec-binary" in by_name
