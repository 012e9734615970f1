"""Experiment A1 — the vulnerability window of lazy decision records.

Theorem 1's Part III hinges on a *window*: the PrA participant enforces
the abort, writes a **non-forced** abort record, and crashes before
that record reaches stable storage. This ablation maps the window:

* sweep the crash delay after the enforcement (0 = exactly at the
  protocol step, larger = the crash lands later), and
* toggle periodic background flushing of the log buffer.

Expected shape (and the reason DESIGN.md §5.3 disables background
flushing by default): under U2PC the violation occurs whenever the
crash beats the record to stable storage — *always* without a flusher,
and for every delay shorter than the flush interval with one. The
window narrows with flushing but never closes at delay zero, which is
exactly why Theorem 1 is an impossibility and not an engineering bug.
PrAny, run under the identical schedules, never violates regardless.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.table import Cell, Claim, Column, Experiment, ExperimentResult
from repro.mdbs.system import MDBS
from repro.mdbs.transaction import GlobalTransaction, WriteOp

_PRA_SITE = "alpha_pra"
_PRC_SITE = "beta_prc"
_COORD = "tm"


def grid(
    delays: tuple[float, ...] = (0.0, 0.5, 1.5, 3.0, 6.0),
    flush_intervals: tuple[Optional[float], ...] = (None, 1.0, 4.0),
) -> list[Cell]:
    """Crash delay × flush interval under U2PC(PrC) and PrAny."""
    return [
        {"coordinator_policy": policy, "crash_delay": delay, "flush_interval": flush}
        for policy in ("U2PC(PrC)", "dynamic")
        for flush in flush_intervals
        for delay in delays
    ]


def measure(cell: Cell, seed: int) -> dict:
    """Part III's abort, the PrA participant crashing ``crash_delay``
    after it enforces."""
    mdbs = MDBS(seed=seed)
    mdbs.add_site(_PRA_SITE, protocol="PrA")
    mdbs.add_site(_PRC_SITE, protocol="PrC")
    mdbs.add_site(_COORD, protocol="PrN", coordinator=cell["coordinator_policy"])
    if cell["flush_interval"] is not None:
        mdbs.enable_periodic_flush(cell["flush_interval"], until=100.0)
    mdbs.failures.crash_when(
        _PRA_SITE,
        lambda e: e.matches("db", "abort", site=_PRA_SITE, txn="t1"),
        down_for=60.0,
        delay=cell["crash_delay"],
    )
    mdbs.submit(
        GlobalTransaction(
            txn_id="t1",
            coordinator=_COORD,
            writes={_PRA_SITE: [WriteOp("a", 1)], _PRC_SITE: [WriteOp("b", 2)]},
            coordinator_abort=True,
        )
    )
    mdbs.run(until=500)
    mdbs.finalize()
    reports = mdbs.check()
    # Did the lazy abort record make it to stable storage before the crash?
    crash = mdbs.sim.trace.first(category="log", name="crash", site=_PRA_SITE)
    survived = (crash.details.get("lost_records", 0) == 0) if crash else True
    return {
        "violated": not reports.atomicity.holds,
        "abort_record_survived": survived,
        "steps": mdbs.sim.steps_executed,
    }


def _u2pc(result: ExperimentResult) -> list:
    return [
        row for row in result.rows if row.coordinator_policy.startswith("U2PC")
    ]


def _flushing_narrows_the_window(result: ExperimentResult) -> bool:
    """With a flusher, a late-enough crash finds the record stable."""
    flushed_late = [
        row
        for row in _u2pc(result)
        if row.flush_interval is not None and row.crash_delay > row.flush_interval
    ]
    return bool(flushed_late) and all(not row.violated for row in flushed_late)


ABLATION = Experiment(
    name="ablation",
    artifact="A1",
    title="vulnerability window of the lazy abort record (Thm 1 Part III)",
    seed=7,
    grid=grid,
    key=("coordinator_policy", "crash_delay", "flush_interval"),
    measure=measure,
    columns=(
        Column("coordinator", "coordinator_policy"),
        Column(
            "bg flush",
            "flush_interval",
            lambda flush: "off" if flush is None else f"every {flush}",
        ),
        Column("crash delay", "crash_delay"),
        Column(
            "abort record stable",
            "abort_record_survived",
            lambda survived: "yes" if survived else "LOST",
        ),
        Column("outcome", "violated", lambda bad: "VIOLATED" if bad else "atomic"),
    ),
    claims=(
        # At delay 0 the record can never be stable first.
        Claim(
            "u2pc_window_never_closes_at_zero_delay",
            lambda r: all(row.violated for row in _u2pc(r) if row.crash_delay == 0.0),
            "U2PC violated at delay 0 in every configuration",
        ),
        Claim(
            "flushing_narrows_the_window",
            _flushing_narrows_the_window,
            "flushing closes the window for late crashes",
        ),
        # Without background flushing the record stays volatile forever.
        Claim(
            "unflushed_window_is_unbounded",
            lambda r: all(
                row.violated for row in _u2pc(r) if row.flush_interval is None
            ),
            "without flushing the window is unbounded",
        ),
        Claim(
            "prany_never_violates",
            lambda r: not any(
                row.violated for row in r.rows if row.coordinator_policy == "dynamic"
            ),
            "PrAny never violated anywhere",
        ),
    ),
)
