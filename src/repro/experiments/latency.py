"""Experiment C2 — commit latency vs participant count.

The paper's opening motivation: "commit processing consumes a
substantial amount of a transaction's execution time". We measure, per
protocol and participant count:

* **decision latency** — submission to the coordinator's decision;
* **release latency** — submission until every participant enforced the
  decision (locks released everywhere);
* **forget latency** — submission until the coordinator forgot the
  transaction (protocol-table residency).

Expected shape: all grow with N; the ack-free decision paths (PrC
commit, PrA abort) give the shortest forget latency because the
coordinator does not wait for acknowledgements.
"""

from __future__ import annotations

from repro.core.events import EventKind
from repro.experiments.table import Cell, Column, Experiment
from repro.mdbs.transaction import GlobalTransaction, WriteOp
from repro.net.network import UniformLatency
from repro.workloads.generator import COORDINATOR_ID, build_mdbs
from repro.workloads.mixes import MIXES

#: (mix name, coordinator policy) per swept configuration.
SWEEP_CONFIGS: list[tuple[str, str]] = [
    ("all-PrN", "PrN"),
    ("all-PrA", "PrA"),
    ("all-PrC", "PrC"),
    ("PrA+PrC", "dynamic"),
]


def grid(participant_counts: tuple[int, ...] = (2, 4, 6, 8)) -> list[Cell]:
    return [
        {
            "config": mix,
            "coordinator": coordinator,
            "outcome": outcome,
            "n_participants": n,
        }
        for mix, coordinator in SWEEP_CONFIGS
        for outcome in ("commit", "abort")
        for n in participant_counts
    ]


def measure(cell: Cell, seed: int) -> dict:
    """One transaction over jittered links, timed from submission."""
    mix = MIXES[cell["config"]].extended_to(cell["n_participants"])
    mdbs = build_mdbs(mix, coordinator=cell["coordinator"], seed=seed)
    mdbs.network.set_latency(UniformLatency(mdbs.sim, 0.5, 2.0))  # jittered links
    participants = sorted(mix.site_protocols())
    txn = GlobalTransaction(
        txn_id="t-lat",
        coordinator=COORDINATOR_ID,
        writes={site: [WriteOp(f"k@{site}", 1)] for site in participants},
        coordinator_abort=cell["outcome"] == "abort",
        submit_at=0.0,
    )
    mdbs.submit(txn)
    mdbs.run(until=500)
    history = mdbs.history()
    decides = history.of_kind(EventKind.DECIDE, txn.txn_id)
    enforces = history.of_kind(EventKind.ENFORCE, txn.txn_id)
    forgets = history.forget_events(txn.txn_id)
    return {
        "decision_latency": decides[-1].time if decides else float("nan"),
        "release_latency": max(e.time for e in enforces) if enforces else float("nan"),
        "forget_latency": forgets[-1].time if forgets else float("nan"),
        "steps": mdbs.sim.steps_executed,
    }


LATENCY = Experiment(
    name="latency",
    artifact="C2",
    title="commit latency vs participant count (virtual time)",
    seed=9,
    grid=grid,
    key=("config", "outcome", "n_participants"),
    measure=measure,
    columns=(
        Column("configuration", "config"),
        Column("outcome", "outcome"),
        Column("N", "n_participants"),
        Column("decision", "decision_latency", "{:.2f}".format),
        Column("all released", "release_latency", "{:.2f}".format),
        Column("coord forgot", "forget_latency", "{:.2f}".format),
    ),
)
