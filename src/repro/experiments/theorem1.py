"""Experiment T1 — Theorem 1, empirically.

    "It is impossible to ensure global atomicity of distributed
    transactions executed at both PrA and PrC participants with a
    coordinator using U2PC."

The proof has three parts — coordinator native protocol PrN, PrA and
PrC. Each part names an adversarial schedule; we inject exactly that
schedule and observe the atomicity violation, then replay the identical
schedule under the PrAny coordinator and observe none.

* **Part I / II** (native PrN / PrA, commit case): the PrC participant
  crashes before the commit decision reaches it; the coordinator
  forgets after the PrA participant's ack; the recovered PrC
  participant's inquiry is answered *abort* by the native presumption.
* **Part III** (native PrC, abort case): the PrA participant crashes
  right after enforcing the abort, before its lazy abort record is
  stable; the coordinator forgets after the PrC participant's ack; the
  recovered PrA participant's inquiry is answered *commit* by the PrC
  presumption.
"""

from __future__ import annotations

from repro.experiments.table import (
    Cell,
    Claim,
    Column,
    Experiment,
    ExperimentResult,
    verdict,
)
from repro.mdbs.system import MDBS
from repro.mdbs.transaction import GlobalTransaction, WriteOp

_COORD = "tm"
_PRA_SITE = "alpha_pra"
_PRC_SITE = "beta_prc"


def _commit_case_schedule(mdbs: MDBS) -> GlobalTransaction:
    """Parts I and II: commit decision; PrC participant misses it."""
    mdbs.failures.crash_when(
        _PRC_SITE,
        lambda e: e.matches("msg", "send", site=_COORD, kind="COMMIT", to=_PRC_SITE),
        down_for=60.0,
        label="PrC participant crashes before the commit arrives",
    )
    return GlobalTransaction(
        txn_id="t1",
        coordinator=_COORD,
        writes={
            _PRA_SITE: [WriteOp("a", 1)],
            _PRC_SITE: [WriteOp("b", 2)],
        },
    )


def _abort_case_schedule(mdbs: MDBS) -> GlobalTransaction:
    """Part III: abort decision; PrA participant loses its lazy record."""
    mdbs.failures.crash_when(
        _PRA_SITE,
        lambda e: e.matches("db", "abort", site=_PRA_SITE, txn="t1"),
        down_for=60.0,
        label="PrA participant crashes after enforcing, before stability",
    )
    return GlobalTransaction(
        txn_id="t1",
        coordinator=_COORD,
        writes={
            _PRA_SITE: [WriteOp("a", 1)],
            _PRC_SITE: [WriteOp("b", 2)],
        },
        coordinator_abort=True,
    )


_PARTS = {
    "Part I (PrN commit)": ("U2PC(PrN)", _commit_case_schedule),
    "Part II (PrA commit)": ("U2PC(PrA)", _commit_case_schedule),
    "Part III (PrC abort)": ("U2PC(PrC)", _abort_case_schedule),
}


def grid() -> list[Cell]:
    """Every proof part under its U2PC coordinator, then under PrAny."""
    return [
        {"part": part, "coordinator_policy": policy, "schedule": schedule}
        for part, (u2pc, schedule) in _PARTS.items()
        for policy in (u2pc, "dynamic")
    ]


def measure(cell: Cell, seed: int) -> dict:
    """The part's adversarial schedule under the cell's coordinator."""
    mdbs = MDBS(seed=seed)
    mdbs.add_site(_PRA_SITE, protocol="PrA")
    mdbs.add_site(_PRC_SITE, protocol="PrC")
    mdbs.add_site(_COORD, protocol="PrN", coordinator=cell["coordinator_policy"])
    mdbs.submit(cell["schedule"](mdbs))
    mdbs.run(until=500)
    mdbs.finalize()
    reports = mdbs.check()
    outcomes = {
        site: outcome.value
        for site, outcome in mdbs.history().enforcements("t1").items()
    }
    return {
        "atomicity_violations": len(reports.atomicity.violations),
        "safe_state_violations": len(reports.safe_state.violations),
        "outcomes": outcomes,
        "steps": mdbs.sim.steps_executed,
    }


def _runs(result: ExperimentResult, u2pc: bool) -> list:
    return [
        row
        for row in result.rows
        if row.coordinator_policy.startswith("U2PC") == u2pc
    ]


THEOREM1 = Experiment(
    name="theorem1",
    artifact="T1",
    title="Theorem 1: U2PC breaks atomicity; PrAny does not",
    seed=7,
    grid=grid,
    key=("part", "coordinator_policy"),
    measure=measure,
    columns=(
        Column("proof part", "part"),
        Column("coordinator", "coordinator_policy"),
        Column("atomicity viol.", "atomicity_violations"),
        Column("safe-state viol.", "safe_state_violations"),
        Column(
            "enforced outcomes",
            "outcomes",
            lambda outcomes: ", ".join(
                f"{k}={v}" for k, v in sorted(outcomes.items())
            ),
        ),
    ),
    claims=(
        # Every U2PC proof part showed the predicted violation.
        Claim(
            "u2pc_all_violate",
            lambda r: bool(_runs(r, True))
            and all(row.atomicity_violations > 0 for row in _runs(r, True)),
        ),
        # PrAny survived every adversarial schedule.
        Claim(
            "prany_never_violates",
            lambda r: bool(_runs(r, False))
            and not any(row.atomicity_violations > 0 for row in _runs(r, False)),
        ),
    ),
    sections=lambda r: [verdict("Theorem 1", r)],
)
