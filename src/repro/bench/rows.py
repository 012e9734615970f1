"""What a bench row is and what one execution of it reports.

The row *table* is :mod:`repro.bench.scenarios`; the row bodies are in
:mod:`repro.bench.sim` (simulator, synchronous) and
:mod:`repro.bench.live` (real sockets, asyncio). All three build on the
types here, which import nothing from either runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.metrics import quantile

#: Seed shared by every row (pinned; never change it without bumping
#: the report schema version — numbers stop being comparable across the
#: change otherwise).
BENCH_SEED = 7


@dataclass(frozen=True)
class ScenarioResult:
    """What one execution of a scenario did (deterministic per seed on
    the simulator).

    Attributes:
        events: kernel events dispatched (``Simulator.steps_executed``),
            or the scenario's natural unit of work where no kernel runs
            (trace records for ``trace-record``) or where the scenario
            is one half of a pair (force requests for
            ``commit-storm-log*``, transactions for the dense storms and
            every live row) — pair members must report identical
            ``events`` so their events/sec are directly comparable.
        trace_events: total trace events recorded.
        messages: network messages sent.
        checks_passed: the scenario's own correctness gate — benchmarks
            must never trade correctness for speed silently.
        detail: free-form scenario-specific counters.
    """

    events: int
    trace_events: int
    messages: int
    checks_passed: bool
    detail: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    """A named, seeded benchmark workload: one row of the table.

    Attributes:
        name: table key, also the key in the suite's report file.
        description: one line for ``repro bench --list`` and the report.
        tags: coarse grouping (``"micro"``, ``"system"``, ``"sharding"``,
            ...), selectable by ``get_scenarios``; ``"live"`` marks the
            wall-clock rows.
        run: executes the workload; ``smoke=True`` shrinks it to a
            CI-friendly size (same shape, fewer iterations).
        seed: the pinned seed (always :data:`BENCH_SEED` today).
    """

    name: str
    description: str
    tags: tuple[str, ...]
    run: Callable[[bool], ScenarioResult]
    seed: int = BENCH_SEED

    @property
    def suite(self) -> str:
        """The report a row belongs to (a key of
        :data:`repro.bench.report.SUITES`): the ``"live"`` tag marks
        ``BENCH_live.json`` rows, everything else is ``BENCH_sim.json``."""
        return "live" if "live" in self.tags else "sim"

    @property
    def deterministic(self) -> bool:
        """Whether reps must report identical work counters: every
        simulated row, and the live ``micro`` rows (no cluster, no
        sockets). Real sockets make a cluster row's trace and message
        counts rep-dependent, so the runner skips its cross-rep identity
        assertion there."""
        return self.suite == "sim" or "micro" in self.tags


def latency_percentiles(values: list[float], scale: float = 1.0) -> dict[str, float]:
    """p50/p95/p99 of ``values`` times ``scale``, rounded to 3 places."""
    ordered = sorted(values)
    return {
        name: round(quantile(ordered, q) * scale, 3)
        for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))
    }
