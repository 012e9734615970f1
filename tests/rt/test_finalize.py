"""``finalize()``'s stop rule on the live drivers, counted, not timed.

Both live drivers share one loop, ``ClusterDriver._finalize_rounds``:
it drains the network only after a sweep that left messages queued,
and stops after the first sweep past the first that collects nothing
(``MDBS.finalize``'s rule). The tests count calls to ``_sweep`` and
``_drain_network`` by wrapping them:

* a three-way mix after quiescence: one collecting sweep, one empty
  one, no drain (no sweep of theirs sends a message);
* homogeneous CL, whose every sweep announces a checkpoint (a message
  per coordinator): a drain after each sweep, three sweeps rather than
  ``max_rounds``, and the same residue at every site as the simulator
  twin's;
* a process cluster under PrN: no drain across the process boundary.
"""

from __future__ import annotations

import asyncio

from repro.rt import cluster as live
from repro.rt.proc import ProcessCluster
from tests.conformance.harness import (
    CONFORMANCE_TIMEOUTS,
    PROTOCOL_SETUPS,
    conformance_spec,
    run_workload,
)

CONFORMANCE_SEED = 1303
N_TRANSACTIONS = 10


def count_finalize_calls(monkeypatch, cluster_cls) -> dict[str, list]:
    """Wrap ``cluster_cls``'s ``_sweep`` and ``_drain_network``: every
    sweep's (collected, busy) reading, and one entry per drain."""
    calls: dict[str, list] = {"sweeps": [], "drains": []}
    sweep, drain = cluster_cls._sweep, cluster_cls._drain_network

    async def counted_sweep(self):
        reading = await sweep(self)
        calls["sweeps"].append(reading)
        return reading

    async def counted_drain(self, bound_units):
        calls["drains"].append(bound_units)
        await drain(self, bound_units)

    monkeypatch.setattr(cluster_cls, "_sweep", counted_sweep)
    monkeypatch.setattr(cluster_cls, "_drain_network", counted_drain)
    return calls


def run_live(cluster_cls, protocol, tmp_path, **options):
    mix, coordinator = PROTOCOL_SETUPS[protocol]
    spec = conformance_spec(
        CONFORMANCE_SEED, n_transactions=N_TRANSACTIONS, inter_arrival=1.0
    )
    cluster = asyncio.run(
        live.run_workload(
            cluster_cls,
            mix,
            coordinator,
            spec,
            str(tmp_path),
            timeouts=CONFORMANCE_TIMEOUTS,
            **options,
        )
    )
    return cluster, run_workload(mix, coordinator, spec)


def test_quiet_sweeps_are_not_drained(monkeypatch, tmp_path):
    calls = count_finalize_calls(monkeypatch, live.LiveCluster)
    run_live(live.LiveCluster, "PrAny", tmp_path, fsync=False)

    assert len(calls["sweeps"]) == 2, calls
    first, second = calls["sweeps"]
    assert first[0] > 0 and not first[1]
    assert second == (0, False)
    assert calls["drains"] == []


def test_sweeps_that_send_are_drained_and_stop_like_the_simulator(
    monkeypatch, tmp_path
):
    calls = count_finalize_calls(monkeypatch, live.LiveCluster)
    cluster, twin = run_live(live.LiveCluster, "CL", tmp_path, fsync=False)

    assert len(calls["sweeps"]) == 3, calls
    assert all(busy for _, busy in calls["sweeps"])
    assert calls["sweeps"][-1][0] == 0
    assert len(calls["drains"]) == 3
    assert cluster.sites.keys() == twin.sites.keys()
    for site_id, site in cluster.sites.items():
        twin_site = twin.sites[site_id]
        assert site.retained_transactions() == twin_site.retained_transactions()
        assert (
            site.uncollected_log_transactions()
            == twin_site.uncollected_log_transactions()
        ), site_id


def test_process_cluster_quiet_sweeps_are_not_drained(monkeypatch, tmp_path):
    calls = count_finalize_calls(monkeypatch, ProcessCluster)
    run_live(ProcessCluster, "PrN", tmp_path, fsync=False, time_scale=0.005)

    assert calls["sweeps"], calls
    assert not any(busy for _, busy in calls["sweeps"])
    assert calls["drains"] == []
