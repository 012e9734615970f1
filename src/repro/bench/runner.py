"""Benchmark execution: warmup, repetition, aggregation, profiling.

Scenarios are deterministic, so repetitions differ only in wall-clock
time; everything else (events, messages, trace length) is asserted to
be identical across reps. Aggregation reports median and IQR — the
robust pair — plus min/max so outliers stay visible.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Optional

from repro.analysis.metrics import quantile
from repro.bench.rows import Scenario, ScenarioResult
from repro.errors import ReproError

try:  # POSIX only; absent on some platforms — RSS is then reported as 0.
    import resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    resource = None  # type: ignore[assignment]


@dataclass(frozen=True)
class BenchConfig:
    """How to run the scenarios.

    Attributes:
        reps: timed repetitions per scenario (median/IQR need >= 1).
        warmup: untimed warmup runs per scenario (cache/allocator spin-up).
        smoke: shrink every scenario to its CI-sized variant.
        profile_dir: when set, one extra profiled run per scenario dumps
            ``<scenario>.prof`` (binary, for snakeviz/pstats) and
            ``<scenario>.txt`` (top functions by cumulative time) here.
    """

    reps: int = 3
    warmup: int = 1
    smoke: bool = False
    profile_dir: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise ReproError(f"bench needs at least 1 rep, got {self.reps}")
        if self.warmup < 0:
            raise ReproError(f"warmup must be non-negative, got {self.warmup}")


@dataclass(frozen=True)
class Stats:
    """Median/IQR/min/max of one metric over the timed reps."""

    median: float
    iqr: float
    min: float
    max: float

    @classmethod
    def over(cls, samples: list[float]) -> "Stats":
        ordered = sorted(samples)
        return cls(
            median=median(ordered),
            iqr=_iqr(ordered),
            min=ordered[0],
            max=ordered[-1],
        )


def _iqr(ordered: list[float]) -> float:
    """Interquartile range via the inclusive quartile method."""
    if len(ordered) < 2:
        return 0.0
    return quantile(ordered, 0.75) - quantile(ordered, 0.25)


@dataclass(frozen=True)
class ScenarioMeasurement:
    """One scenario's aggregated measurement."""

    scenario: Scenario
    result: ScenarioResult
    wall_seconds: Stats
    events_per_second: Stats
    messages_per_second: Stats
    peak_rss_kb: int
    reps: int
    warmup: int
    smoke: bool
    profile_top: tuple[str, ...] = field(default=())


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in KiB (0 if unknown).

    ``ru_maxrss`` is a high-water mark: it only ever grows, so the
    per-scenario value is really "peak so far this process". Compare it
    across runs of the same scenario order, not across scenarios.
    """
    if resource is None:  # pragma: no cover - non-POSIX fallback
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return int(usage // 1024) if usage > 1 << 30 else int(usage)


def measure_scenario(scenario: Scenario, config: BenchConfig) -> ScenarioMeasurement:
    """Run one scenario under the config; aggregate its timings.

    Raises:
        ReproError: if the scenario is not deterministic across reps
            (its work counters differ), which would make every number
            in the report meaningless.
    """
    for _ in range(config.warmup):
        scenario.run(config.smoke)

    results: list[ScenarioResult] = []
    walls: list[float] = []
    for _ in range(config.reps):
        started = time.perf_counter()
        result = scenario.run(config.smoke)
        walls.append(time.perf_counter() - started)
        results.append(result)

    first = results[0]
    if scenario.deterministic:
        for other in results[1:]:
            if (other.events, other.trace_events, other.messages) != (
                first.events,
                first.trace_events,
                first.messages,
            ):
                raise ReproError(
                    f"scenario {scenario.name!r} is not deterministic across reps: "
                    f"{(first.events, first.trace_events, first.messages)} vs "
                    f"{(other.events, other.trace_events, other.messages)}"
                )

    profile_top: tuple[str, ...] = ()
    if config.profile_dir is not None:
        profile_top = _profile_scenario(scenario, config)

    return ScenarioMeasurement(
        scenario=scenario,
        result=first,
        wall_seconds=Stats.over(walls),
        events_per_second=Stats.over([first.events / w for w in walls]),
        messages_per_second=Stats.over([first.messages / w for w in walls]),
        peak_rss_kb=peak_rss_kb(),
        reps=config.reps,
        warmup=config.warmup,
        smoke=config.smoke,
        profile_top=profile_top,
    )


def _profile_scenario(scenario: Scenario, config: BenchConfig) -> tuple[str, ...]:
    """One profiled run; dump .prof + .txt artifacts, return top lines."""
    assert config.profile_dir is not None
    config.profile_dir.mkdir(parents=True, exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    scenario.run(config.smoke)
    profiler.disable()
    binary_path = config.profile_dir / f"{scenario.name}.prof"
    profiler.dump_stats(str(binary_path))
    text = io.StringIO()
    stats = pstats.Stats(profiler, stream=text)
    stats.sort_stats("cumulative").print_stats(25)
    (config.profile_dir / f"{scenario.name}.txt").write_text(
        text.getvalue(), encoding="utf-8"
    )
    top: list[str] = []
    for line in text.getvalue().splitlines():
        stripped = line.strip()
        if stripped and stripped[0].isdigit() and "/" in line:
            top.append(stripped)
        if len(top) >= 5:
            break
    return tuple(top)


def run_bench(
    scenarios: list[Scenario],
    config: BenchConfig,
    progress: Optional[Any] = None,
) -> list[ScenarioMeasurement]:
    """Measure every scenario in order; optional per-scenario progress callback."""
    measurements: list[ScenarioMeasurement] = []
    for scenario in scenarios:
        if progress is not None:
            progress(scenario)
        measurements.append(measure_scenario(scenario, config))
    return measurements
