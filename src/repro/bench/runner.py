"""Bench execution: run one row once, optionally under cProfile.

A row's written counters are pure functions of its seed, so one run is
the whole measurement; the wall time beside it is for the terminal
only. The committed golden file is what a second run is compared to
(:func:`repro.bench.report.count_diff`).
"""

from __future__ import annotations

import cProfile
import io
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import Optional

from repro.bench.rows import Scenario, ScenarioResult


def measure_scenario(
    scenario: Scenario, smoke: bool = False, profile_dir: Optional[Path] = None
) -> tuple[ScenarioResult, float]:
    """Run ``scenario`` once; returns its result and the wall seconds it
    took. With ``profile_dir`` the run is profiled (the wall time then
    includes the profiler's cost) and leaves ``<scenario>.prof``
    (binary, for snakeviz/pstats) and ``<scenario>.txt`` (functions by
    cumulative time) there."""
    started = time.perf_counter()
    if profile_dir is None:
        result = scenario.run(smoke)
        return result, time.perf_counter() - started
    profiler = cProfile.Profile()
    result = profiler.runcall(scenario.run, smoke)
    wall = time.perf_counter() - started
    profile_dir.mkdir(parents=True, exist_ok=True)
    profiler.dump_stats(str(profile_dir / f"{scenario.name}.prof"))
    text = io.StringIO()
    with redirect_stdout(text):
        profiler.print_stats("cumulative")
    (profile_dir / f"{scenario.name}.txt").write_text(text.getvalue(), encoding="utf-8")
    return result, wall
