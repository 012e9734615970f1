"""Bench rows and their golden files: one scenario table, two suites.

``repro bench`` runs the seed-pinned rows of a suite once each and
writes what a rerun reproduces byte for byte — events, messages,
forces, every counter that is a pure function of the seed — to
``BENCH_sim.json`` (simulator rows) or, with ``--suite live``,
``BENCH_live.json`` (real sockets, fsync'd logs). ``--check`` compares
a fresh run against the committed file and fails on any difference,
naming the row and the field. What a row *times* is printed and never
written: wall-clock claims belong to ``perf/`` (``BENCHMARK.json``).
See docs/BENCHMARKS.md for the two instruments and the schema.
"""

from repro.bench.report import (
    SCHEMA_VERSION,
    build_report,
    count_diff,
    load_baseline,
    load_report,
    validate_report,
    write_report,
)
from repro.bench.rows import BENCH_SEED, Scenario, ScenarioResult
from repro.bench.runner import measure_scenario
from repro.bench.scenarios import SCENARIOS, get_scenarios

__all__ = [
    "BENCH_SEED",
    "SCENARIOS",
    "SCHEMA_VERSION",
    "Scenario",
    "ScenarioResult",
    "build_report",
    "count_diff",
    "get_scenarios",
    "load_baseline",
    "load_report",
    "measure_scenario",
    "validate_report",
    "write_report",
]
