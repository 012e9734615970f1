"""run_scenario determinism and the ParallelRunner sweep machinery."""

import os
import subprocess
import sys
from pathlib import Path

from repro.explore.adversary import (
    AdversaryGenerator,
    CrashAt,
    GeneratorConfig,
    ScenarioSpec,
)
from repro.explore.runner import ParallelRunner, run_scenario


def _spec(**overrides):
    base = dict(
        seed=5,
        mix="PrA+PrC",
        coordinator="dynamic",
        n_transactions=2,
        actions=(CrashAt(site="site0_pra", at=30.0, down_for=60.0),),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def test_run_scenario_is_deterministic():
    first = run_scenario(_spec())
    second = run_scenario(_spec())
    assert first.trace_sha256 == second.trace_sha256
    assert first.trace_events == second.trace_events
    assert first.verdict == second.verdict


def test_trace_digest_is_independent_of_string_hashing():
    # Seed 10 restarts a site holding several in-doubt transactions;
    # recovery once re-adopted them in set (string-hash) order.
    script = (
        "from repro.explore import AdversaryGenerator, GeneratorConfig, "
        "run_scenario\n"
        "spec = AdversaryGenerator(GeneratorConfig(protocol='prany'))"
        ".generate(10)\n"
        "print(run_scenario(spec).trace_sha256)"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    digests = {
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout
        for seed in ("0", "2")
    }
    assert len(digests) == 1, digests


def test_run_outcome_counters_are_populated():
    outcome = run_scenario(_spec())
    assert outcome.crashes_injected >= 1
    assert outcome.messages_sent > 0
    assert outcome.trace_events > 0
    assert outcome.holds  # PrAny survives a single timed crash


def test_generated_specs_run_clean_under_prany():
    generator = AdversaryGenerator(GeneratorConfig(protocol="prany"))
    for seed in range(8):
        outcome = run_scenario(generator.generate(seed))
        assert outcome.holds, f"seed {seed}: {outcome.verdict.describe()}"


def test_serial_sweep_is_deterministic_and_ordered():
    config = GeneratorConfig(protocol="u2pc")
    first = ParallelRunner(config, jobs=1).sweep(range(30))
    second = ParallelRunner(config, jobs=1).sweep(range(30))
    assert [s.seed for s in first.completed] == list(range(30))
    assert [(s.seed, s.trace_sha256, s.holds) for s in first.completed] == [
        (s.seed, s.trace_sha256, s.holds) for s in second.completed
    ]
    # The u2pc family must find Theorem 1 violations in any small range.
    assert first.violations
    assert "atomicity" in first.category_counts()


def test_sweep_respects_time_budget():
    config = GeneratorConfig(protocol="prany")
    result = ParallelRunner(config, jobs=1).sweep(range(10_000), time_budget=0.0)
    assert result.budget_exhausted
    assert result.seeds_scanned == 0


def test_progress_callback_fires_at_least_once():
    calls = []
    runner = ParallelRunner(
        GeneratorConfig(protocol="prany"),
        jobs=1,
        progress=lambda done, violations: calls.append((done, violations)),
    )
    result = runner.sweep(range(5))
    assert calls and calls[-1][0] == result.seeds_scanned
