"""Runner aggregation, profiling artifacts and the CLI verb."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.runner import BenchConfig, Stats, measure_scenario
from repro.bench.rows import Scenario, ScenarioResult
from repro.bench.scenarios import SCENARIOS
from repro.errors import ReproError

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


class TestStats:
    def test_single_sample(self):
        stats = Stats.over([2.0])
        assert stats.median == 2.0
        assert stats.iqr == 0.0
        assert stats.min == stats.max == 2.0

    def test_median_and_iqr_of_known_sample(self):
        stats = Stats.over([1.0, 2.0, 3.0, 4.0])
        assert stats.median == 2.5
        assert stats.iqr == pytest.approx(1.5)
        assert (stats.min, stats.max) == (1.0, 4.0)

    def test_order_independent(self):
        assert Stats.over([3.0, 1.0, 2.0]) == Stats.over([1.0, 2.0, 3.0])


class TestConfig:
    def test_rejects_zero_reps(self):
        with pytest.raises(ReproError):
            BenchConfig(reps=0)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ReproError):
            BenchConfig(warmup=-1)


class TestMeasure:
    def test_measures_kernel_dispatch_smoke(self):
        m = measure_scenario(
            SCENARIOS["kernel-dispatch"], BenchConfig(reps=2, warmup=0, smoke=True)
        )
        assert m.result.checks_passed
        assert m.wall_seconds.median > 0
        assert m.events_per_second.median > 0
        assert m.reps == 2 and m.smoke

    def test_nondeterministic_scenario_rejected(self):
        calls = [0]

        def flaky(smoke):
            calls[0] += 1
            return ScenarioResult(
                events=calls[0], trace_events=0, messages=0, checks_passed=True
            )

        scenario = Scenario(
            name="flaky", description="", seed=0, tags=("test",), run=flaky
        )
        with pytest.raises(ReproError, match="not deterministic"):
            measure_scenario(scenario, BenchConfig(reps=2, warmup=0, smoke=True))

    def test_profile_artifacts_written(self, tmp_path):
        config = BenchConfig(reps=1, warmup=0, smoke=True, profile_dir=tmp_path)
        measure_scenario(SCENARIOS["trace-record"], config)
        assert (tmp_path / "trace-record.prof").exists()
        text = (tmp_path / "trace-record.txt").read_text()
        assert "tracing" in text


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", "bench", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


class TestCLI:
    def test_list(self):
        result = run_cli("--list")
        assert result.returncode == 0
        assert "kernel-dispatch" in result.stdout

    def test_smoke_run_writes_valid_report(self, tmp_path):
        out = tmp_path / "BENCH_sim.json"
        result = run_cli(
            "--scenario",
            "kernel-dispatch",
            "--reps",
            "1",
            "--warmup",
            "0",
            "--smoke",
            "--output",
            str(out),
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(out.read_text())
        assert report["schema"] == "repro-bench/v1"
        assert report["scenarios"]["kernel-dispatch"]["checks_passed"]

    def test_check_flags_synthetic_slow_baseline(self, tmp_path):
        # Baseline claiming impossibly high throughput on the same work
        # count: the fresh (slower) run must be flagged, exit 1.
        out = tmp_path / "fresh.json"
        result = run_cli(
            "--scenario", "kernel-dispatch", "--reps", "1", "--warmup", "0",
            "--smoke", "--output", str(out),
        )
        assert result.returncode == 0, result.stderr
        fast = json.loads(out.read_text())
        entry = fast["scenarios"]["kernel-dispatch"]
        for key in ("median", "iqr", "min", "max"):
            entry["events_per_second"][key] = 1e12
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(fast))
        result = run_cli(
            "--scenario", "kernel-dispatch", "--reps", "1", "--warmup", "0",
            "--smoke", "--check", "--baseline", str(baseline_path),
        )
        assert result.returncode == 1, result.stdout
        assert "REGRESSION" in result.stdout

    def test_check_passes_against_slower_baseline(self, tmp_path):
        # Baseline claiming far lower throughput than any real machine:
        # the fresh run is an improvement, so --check must exit 0.
        # (Comparing a fresh run against its own immediately-prior
        # numbers would be timing-noise-flaky; a synthetic bound isn't.)
        out = tmp_path / "fresh.json"
        result = run_cli(
            "--scenario", "kernel-dispatch", "--reps", "1", "--warmup", "0",
            "--smoke", "--output", str(out),
        )
        assert result.returncode == 0, result.stderr
        slow = json.loads(out.read_text())
        entry = slow["scenarios"]["kernel-dispatch"]
        for key in ("median", "iqr", "min", "max"):
            entry["events_per_second"][key] = 1.0
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(slow))
        result = run_cli(
            "--scenario", "kernel-dispatch", "--reps", "1", "--warmup", "0",
            "--smoke", "--check", "--baseline", str(baseline_path),
        )
        assert result.returncode == 0, result.stdout
        assert "no regressions" in result.stdout

    def test_unknown_scenario_fails_cleanly(self):
        result = run_cli("--scenario", "nope")
        assert result.returncode != 0
        assert "unknown bench scenario" in result.stderr
