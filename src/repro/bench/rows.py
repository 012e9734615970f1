"""What a bench row is and what one execution of it reports.

The row *table* is :mod:`repro.bench.scenarios`; the row bodies are in
:mod:`repro.bench.sim` (simulator, synchronous) and
:mod:`repro.bench.live` (real sockets, asyncio). All three build on the
types here, which import nothing from either runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.analysis.metrics import quantile

#: Seed of every row but the ``experiment-*`` ones, which run at their
#: experiment's own (pinned; never change it without bumping the report
#: schema version — numbers stop being comparable across the change
#: otherwise).
BENCH_SEED = 7


@dataclass(frozen=True)
class ScenarioResult:
    """What one execution of a scenario did.

    ``events``, ``trace_events``, ``messages``, ``checks_passed`` and
    ``detail`` are pure functions of the seed: the report writes them
    and ``--check`` compares them exactly. ``timed`` is everything else.

    Attributes:
        events: kernel events dispatched (``Simulator.steps_executed``;
            summed over the cells of an ``experiment-*`` row),
            or the scenario's natural unit of work where no kernel runs
            (trace records for ``trace-record``) or where the scenario
            is one half of a pair (force requests for
            ``commit-storm-log*``, transactions for the dense storms and
            every live row) — pair members must report identical
            ``events``.
        trace_events: total trace events recorded; ``None`` where a
            real cluster's scheduling decides it.
        messages: network messages sent; ``None`` likewise.
        checks_passed: the scenario's own correctness gate.
        detail: scenario-specific counters that repeat exactly.
        timed: what the run measured and a rerun will not repeat
            (latency percentiles, rates, a real cluster's trace and
            message totals): printed, never written.
    """

    events: int
    checks_passed: bool
    trace_events: Optional[int] = None
    messages: Optional[int] = None
    detail: dict[str, Any] = field(default_factory=dict)
    timed: dict[str, Any] = field(default_factory=dict)


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
        seed: the pinned seed: :data:`BENCH_SEED`, or an experiment
            row's own.
    """

    name: str
    description: str
    tags: tuple[str, ...]
    run: Callable[[bool], ScenarioResult]
    seed: int = BENCH_SEED

    @property
    def suite(self) -> str:
        """The report a row belongs to: the ``"live"`` tag marks
        ``BENCH_live.json`` rows, everything else is ``BENCH_sim.json``."""
        return "live" if "live" in self.tags else "sim"


def latency_percentiles(values: list[float], scale: float = 1.0) -> dict[str, float]:
    """p50/p95/p99 of ``values`` times ``scale``, rounded to 3 places."""
    ordered = sorted(values)
    return {
        name: round(quantile(ordered, q) * scale, 3)
        for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))
    }
