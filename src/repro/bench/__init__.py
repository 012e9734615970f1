"""Benchmarking and profiling: one scenario table, two suites.

``repro bench`` measures wall-clock throughput (events/sec,
messages/sec, peak RSS) of the deterministic, seed-pinned simulator
rows and writes the schema-versioned ``BENCH_sim.json`` perf baseline
at the repo root; ``repro live --bench`` does the same for the
wall-clock rows (real sockets, fsync'd logs) into ``BENCH_live.json``.
``--check`` on either compares a fresh run against the committed
baseline and fails on regressions past the suite's threshold (20% /
50%).

This package measures *speed*; the ``benchmarks/`` pytest suite
measures the *protocols' costs* (forced writes, message counts). See
docs/BENCHMARKS.md for the distinction and the schema.
"""

from repro.bench.report import (
    LIVE_OPTIMIZATION_HISTORY,
    OPTIMIZATION_HISTORY,
    SCHEMA_VERSION,
    SUITES,
    Regression,
    Suite,
    build_report,
    compare_reports,
    load_report,
    scenario_diff,
    validate_report,
    write_report,
)
from repro.bench.runner import (
    BenchConfig,
    ScenarioMeasurement,
    Stats,
    measure_scenario,
    run_bench,
)
from repro.bench.rows import BENCH_SEED, Scenario, ScenarioResult
from repro.bench.scenarios import SCENARIOS, get_scenarios

__all__ = [
    "BENCH_SEED",
    "BenchConfig",
    "LIVE_OPTIMIZATION_HISTORY",
    "OPTIMIZATION_HISTORY",
    "Regression",
    "SCENARIOS",
    "SCHEMA_VERSION",
    "SUITES",
    "Scenario",
    "ScenarioMeasurement",
    "ScenarioResult",
    "Stats",
    "Suite",
    "build_report",
    "compare_reports",
    "get_scenarios",
    "load_report",
    "measure_scenario",
    "run_bench",
    "scenario_diff",
    "validate_report",
    "write_report",
]
