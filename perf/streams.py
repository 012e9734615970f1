"""Seeded benchmark inputs: transaction streams and arrival schedules.

Generated here, not by ``repro.workloads``, so a change to the
program's own generator cannot change what the benchmark feeds it: the
program only ever receives the finished ``GlobalTransaction`` objects.
The same ``(seed, label)`` always gives the same stream.
"""

from __future__ import annotations

import random

from repro.mdbs.transaction import GlobalTransaction, WriteOp

#: Coordinator site of the single-coordinator topology every workload uses.
COORDINATOR = "tm"

#: Share of transactions forced to abort by a No-voting participant.
ABORT_FRACTION = 0.25


def transactions(
    seed: int,
    label: str,
    count: int,
    sites: list[str],
    inter_arrival: float = 0.0,
    start_at: float = 0.0,
) -> list[GlobalTransaction]:
    """``count`` transactions over 2-3 of ``sites``: private keys (no
    lock conflicts), 25 % forced aborts. ``label`` names the stream and
    prefixes the transaction ids, which stay unique across a run.
    ``inter_arrival`` > 0 spaces ``submit_at`` exponentially from
    ``start_at`` (virtual units, used by the simulator workload only).
    """
    rng = random.Random(f"{seed}:{label}")
    stream: list[GlobalTransaction] = []
    now = start_at
    for index in range(count):
        if inter_arrival > 0:
            now += rng.expovariate(1.0 / inter_arrival)
        chosen = sorted(rng.sample(sites, rng.randint(2, min(3, len(sites)))))
        txn_id = f"{label}-{index:05d}"
        abort = rng.random() < ABORT_FRACTION
        stream.append(
            GlobalTransaction(
                txn_id=txn_id,
                coordinator=COORDINATOR,
                writes={
                    site: [WriteOp(key=f"{txn_id}@{site}", value=txn_id)]
                    for site in chosen
                },
                submit_at=now,
                force_no_vote_at=frozenset({chosen[0]}) if abort else frozenset(),
            )
        )
    return stream


def poisson_offsets(
    seed: int, label: str, rate: float, count: int, clients: int = 4
) -> list[float]:
    """Due times (seconds from the step start) of the first ``count``
    arrivals of ``clients`` independent Poisson clocks that together
    offer ``rate`` arrivals per second."""
    rng = random.Random(f"{seed}:{label}:arrivals")
    merged: list[float] = []
    for _ in range(clients):
        at = 0.0
        for _ in range(count):
            at += rng.expovariate(rate / clients)
            merged.append(at)
    merged.sort()
    return merged[:count]
