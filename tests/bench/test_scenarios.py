"""Deterministic smoke tests for the bench scenario table.

Every simulator row runs once at smoke size and must pass its own
correctness gate and reproduce identical work counters on a second
run, and once at full size against the committed ``BENCH_sim.json``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import BENCH_SEED, SCENARIOS, get_scenarios
from repro.cli import main
from repro.errors import ReproError
from repro.experiments import EXPERIMENTS

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

SIM = {s.name: s for s in get_scenarios("all")}

# Micro scenarios are cheap enough to determinism-check twice; the
# system/composite ones are still run (once) for their gates.
MICRO = [n for n, s in SIM.items() if "micro" in s.tags]
ALL = sorted(SIM)


class TestRegistry:
    def test_expected_scenarios_registered(self):
        assert {
            "kernel-dispatch",
            "trace-record",
            "commit-storm-prany",
            "commit-storm-u2pc",
            "commit-storm-c2pc",
            "commit-storm-dense-prany",
            "commit-storm-dense-prc",
            "commit-storm-dense-c2pc",
            "crash-recovery",
            "explore-sweep",
        } <= set(SIM)

    def test_all_selector(self):
        # One table, two suites: "all" is everything a suite reports.
        assert get_scenarios("all") + get_scenarios("all", "live") == list(
            SCENARIOS.values()
        )
        assert all("live" not in s.tags for s in get_scenarios("all"))
        assert all("live" in s.tags for s in get_scenarios("all", "live"))

    def test_name_and_tag_selection(self):
        assert [s.name for s in get_scenarios("kernel-dispatch")] == [
            "kernel-dispatch"
        ]
        micro = get_scenarios("micro")
        assert {s.name for s in micro} == set(MICRO)

    def test_selection_deduplicates(self):
        selected = get_scenarios("micro,kernel-dispatch,trace-record")
        assert len(selected) == len({s.name for s in selected})

    def test_unknown_selector_rejected(self):
        with pytest.raises(ReproError):
            get_scenarios("no-such-scenario")
        # A row is only selectable within the suite it reports into.
        with pytest.raises(ReproError):
            get_scenarios("live-codec-json")
        with pytest.raises(ReproError):
            get_scenarios("kernel-dispatch", "live")

    def test_tags_select_within_a_suite(self):
        # The live pairs carry the tags of their simulator twins.
        assert [s.name for s in get_scenarios("sharding", "live")] == [
            "live-prany-single",
            "live-prany-sharded",
        ]
        assert [s.name for s in get_scenarios("replication", "live")] == [
            "live-prany-multiproc",
            "live-prany-replicated",
        ]
        assert [s.name for s in get_scenarios("sharding")] == [
            "commit-storm-single-prany",
            "commit-storm-sharded-prany",
        ]

    def test_table_import_does_not_load_the_live_runtime(self):
        # `repro bench --list` must not pay for (or depend on) the
        # asyncio transport and the process supervisor.
        loaded = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.bench; "
                "print([m for m in sys.modules if m.startswith('repro.rt')])",
            ],
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert loaded.strip() == "[]"

    def test_every_seed_is_pinned(self):
        # An experiment row runs at its experiment's own seed, the one
        # `repro <name>` prints; every other row at BENCH_SEED.
        seeds = {f"experiment-{row.name}": row.seed for row in EXPERIMENTS}
        assert all(
            s.seed == seeds.get(s.name, BENCH_SEED) for s in SCENARIOS.values()
        )
        assert seeds.keys() <= SCENARIOS.keys()


class TestRowsUnchanged:
    """The committed golden file pins the table: regenerating it, by the
    command a user would run, must produce the same bytes. (The live
    rows' twin is in ``tests/rt/test_bench.py``.)"""

    def test_sim_rows_reproduce_committed_baseline(self, tmp_path, capsys):
        out = tmp_path / "BENCH_sim.json"
        assert main(["bench", "--output", str(out)]) == 0
        assert out.read_bytes() == (REPO_ROOT / "BENCH_sim.json").read_bytes()
        assert f"wrote {out}" in capsys.readouterr().out


class TestScenarioRuns:
    @pytest.mark.parametrize("name", ALL)
    def test_smoke_run_passes_its_gate(self, name):
        result = SIM[name].run(True)
        assert result.checks_passed, (name, result.detail)
        assert result.events > 0

    @pytest.mark.parametrize("name", MICRO)
    def test_micro_scenarios_are_deterministic(self, name):
        first = SIM[name].run(True)
        second = SIM[name].run(True)
        assert (first.events, first.trace_events, first.messages) == (
            second.events,
            second.trace_events,
            second.messages,
        )

    def test_commit_storm_reports_expected_violation_shape(self):
        # PrAny is clean; under the same rolling crashes U2PC's storm
        # shows the paper's incompatible-presumption violations
        # (Theorem 1) as recorded data.
        prany = SIM["commit-storm-prany"].run(True)
        u2pc = SIM["commit-storm-u2pc"].run(True)
        assert prany.detail["atomicity_violations"] == 0
        assert u2pc.detail["atomicity_violations"] > 0


class TestDenseStorms:
    @pytest.mark.parametrize(
        "name", [n for n in ALL if n.startswith("commit-storm-dense-")]
    )
    def test_dense_storms_decide_every_transaction(self, name):
        result = SIM[name].run(True)
        assert result.detail["decided"] == result.detail["transactions"]
