"""No Yes vote leaves before its prepared record is stable.

:func:`tests.write_ahead.yes_vote_violations` over a simulated storm
and an 8-deep closed loop of live transactions under both codecs, and
over the same runs with a log that completes each force at request
time, which the rule must flag.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.rt.cluster import LIVE_TIMEOUTS, LiveCluster
from repro.storage.file_log import FileStableLog
from repro.storage.stable_log import StableLog
from repro.workloads.generator import WorkloadSpec, run_workload
from repro.workloads.mixes import three_way
from tests.rt.test_force_tick import stream
from tests.write_ahead import yes_vote_violations

N = 60


def force_completing_at_request(self, record, on_stable=None):
    """A log's ``force_append_async`` that runs its completion before
    the record is stable: append, complete, then force."""
    self.append(record)
    if on_stable is not None:
        on_stable()
    self.force()
    return record


def simulated_storm():
    mdbs, _ = run_workload(
        three_way(3),
        "dynamic",
        WorkloadSpec(n_transactions=N, inter_arrival=1.0, seed=35),
        drain=500.0,
    )
    return mdbs.sim.trace


def live_run(tmp_path, codec: str):
    async def go():
        cluster = LiveCluster(
            three_way(3),
            tmp_path,
            coordinator="dynamic",
            timeouts=LIVE_TIMEOUTS,
            codec=codec,
        )
        await cluster.start()
        try:
            await cluster.run_pipelined(stream(N), max_in_flight=8)
            await cluster.finalize()
            assert len(cluster.outcomes()) == N
            return cluster.sim.trace
        finally:
            await cluster.shutdown()

    return asyncio.run(go())


def test_a_simulated_storm_keeps_the_rule():
    checked, violations = yes_vote_violations(simulated_storm())
    assert checked > N
    assert violations == []


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_a_live_run_keeps_the_rule(tmp_path, codec):
    checked, violations = yes_vote_violations(live_run(tmp_path, codec))
    assert checked > N
    assert violations == []


def test_a_simulated_yes_sent_at_request_time_is_flagged(monkeypatch):
    monkeypatch.setattr(StableLog, "force_append_async", force_completing_at_request)
    checked, violations = yes_vote_violations(simulated_storm())
    assert len(violations) == checked > N


def test_a_live_yes_sent_at_request_time_is_flagged(tmp_path, monkeypatch):
    monkeypatch.setattr(
        FileStableLog, "force_append_async", force_completing_at_request
    )
    checked, violations = yes_vote_violations(live_run(tmp_path, "json"))
    assert len(violations) == checked > N
