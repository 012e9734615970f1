"""The single run behind a row's report entry, its profiling artifacts
and the CLI verb."""

import json
import subprocess
import sys
from pathlib import Path

from repro.bench.report import build_report, count_diff
from repro.bench.rows import Scenario, ScenarioResult
from repro.bench.runner import measure_scenario
from repro.bench.scenarios import SCENARIOS

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


class TestMeasure:
    def test_measures_kernel_dispatch_smoke(self):
        result, wall = measure_scenario(SCENARIOS["kernel-dispatch"], smoke=True)
        assert result.checks_passed
        assert result.events >= 20_000
        assert wall > 0

    def test_nondeterministic_scenario_rejected(self):
        # No cross-rep identity assertion any more: a row whose counters
        # are not a function of its seed cannot equal its own golden file.
        calls = [0]

        def flaky(smoke):
            calls[0] += 1
            return ScenarioResult(events=calls[0], checks_passed=True)

        scenario = Scenario(
            name="flaky", description="", seed=0, tags=("test",), run=flaky
        )
        golden, rerun = (
            build_report([(scenario, measure_scenario(scenario)[0])])
            for _ in range(2)
        )
        assert count_diff(rerun, golden) == ["flaky: events is 2, baseline 1"]

    def test_profile_artifacts_written(self, tmp_path):
        measure_scenario(SCENARIOS["trace-record"], smoke=True, profile_dir=tmp_path)
        assert (tmp_path / "trace-record.prof").exists()
        text = (tmp_path / "trace-record.txt").read_text()
        assert "tracing" in text and "cumulative" in text


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
        assert "live-codec-json" not in result.stdout
        assert "live-codec-json" in run_cli("--suite", "live", "--list").stdout

    def test_smoke_run_writes_valid_report(self, tmp_path):
        out = tmp_path / "BENCH_sim.json"
        result = run_cli(
            "--scenario", "kernel-dispatch", "--smoke", "--output", str(out)
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(out.read_text())
        assert report["schema"] == "repro-bench/v2"
        assert report["smoke"] is True
        assert report["scenarios"]["kernel-dispatch"]["checks_passed"]
        # What it wrote is what a rerun reproduces.
        result = run_cli(
            "--scenario", "kernel-dispatch", "--smoke", "--check", "--output", str(out)
        )
        assert result.returncode == 0, result.stdout
        assert "counts equal" in result.stdout

    def test_smoke_check_against_full_size_file_is_refused(self):
        # Not a pass with notes: nothing could be compared.
        result = run_cli("--scenario", "kernel-dispatch", "--smoke", "--check")
        assert result.returncode == 1
        assert "BENCH_sim.json holds full-size counts" in result.stderr
        assert "this run is smoke-size" in result.stderr
        assert "counts equal" not in result.stdout

    def test_unknown_scenario_fails_cleanly(self):
        result = run_cli("--scenario", "nope")
        assert result.returncode != 0
        assert "unknown bench scenario" in result.stderr
