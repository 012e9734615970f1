"""Differential conformance: sharded coordinators == single coordinator.

Each test runs the same seeded workload twice — once with every
transaction coordinated by the central ``tm`` site, once with the
coordinator role hash-sharded across the participant sites — and
demands byte-identical observable footprints after coordinator
placement is erased (see ``harness.coordinator_normalized_summary``).

The claim this suite enforces is the tentpole's correctness story:
sharding moves *where* each transaction's coordinator-side work
happens, never *what* work happens, at any site, for any protocol.
Workload streams are placement-invariant by construction (the
generator draws placement after all other randomness), so the two runs
really are twins, not merely similar.

The shard-recovery tests are the crash-facing half: kill the owning
coordinator of one shard mid-prepare (the ``coord-after-initiation``
catalogue point) while transactions owned by *other* shards keep
running, for all four protocols, and require full correctness plus a
deterministic footprint on the pinned seed.
"""

from __future__ import annotations

import pytest

from repro.explore.adversary import (
    CrashWhen,
    ScenarioSpec,
    participant_bounds,
)
from repro.explore.runner import execute_scenario, run_scenario
from repro.mdbs.placement import HashPlacement
from repro.mdbs.topology import Topology
from repro.workloads.generator import WorkloadSpec, generate_transactions
from repro.workloads.mixes import ProtocolMix, homogeneous, three_way

from tests.conformance.harness import (
    conformance_spec,
    coordinator_normalized_summary,
    normalized_summary_bytes,
    run_workload,
)

#: Sharded setups need one more site than ``participants_max`` so every
#: transaction has a non-participant to coordinate it — hence 4 sites
#: where the group-commit suite uses 3.
SHARDED_SETUPS: dict[str, tuple[ProtocolMix, str]] = {
    "PrN": (homogeneous("PrN", 4), "PrN"),
    "PrA": (homogeneous("PrA", 4), "PrA"),
    "PrC": (homogeneous("PrC", 4), "PrC"),
    "PrAny": (three_way(4), "dynamic"),
}

PROTOCOLS = sorted(SHARDED_SETUPS)


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestShardedMatchesSingle:
    def test_footprints_equal(self, protocol: str) -> None:
        mix, coordinator = SHARDED_SETUPS[protocol]
        spec = conformance_spec(seed=606)
        single = run_workload(mix, coordinator, spec)
        sharded = run_workload(mix, coordinator, spec, sharded=True)
        assert normalized_summary_bytes(sharded) == normalized_summary_bytes(
            single
        )

    def test_sharded_run_actually_fans_out(self, protocol: str) -> None:
        """The equivalence is only interesting if placement spreads."""
        mix, coordinator = SHARDED_SETUPS[protocol]
        spec = conformance_spec(seed=606)
        sharded = run_workload(mix, coordinator, spec, sharded=True)
        owners = {txn.coordinator for txn in sharded.submitted}
        assert len(owners) >= 2
        assert "tm" not in sharded.sites
        for txn in sharded.submitted:
            assert txn.coordinator not in txn.participants


class TestNormalizedSummaryIsMeaningful:
    """Guard the normalization itself: it must erase placement only."""

    def test_covers_every_transaction_and_checks(self) -> None:
        mix, coordinator = SHARDED_SETUPS["PrAny"]
        spec = conformance_spec(seed=707, n_transactions=12)
        summary = coordinator_normalized_summary(
            run_workload(mix, coordinator, spec, sharded=True)
        )
        assert len(summary["decisions"]) == 12
        assert summary["checks"] == {
            "atomicity": True,
            "safe_state": True,
            "operational": True,
        }
        # Coordinator-side records exist and were renamed to the token.
        coord_records = [
            entry
            for records in summary["appended_records"].values()
            for entry in records
            if entry[0] == "@coord"
        ]
        assert coord_records

    def test_different_workloads_still_differ(self) -> None:
        mix, coordinator = SHARDED_SETUPS["PrN"]
        a = run_workload(
            mix, coordinator, conformance_spec(seed=1, n_transactions=8),
            sharded=True,
        )
        b = run_workload(
            mix, coordinator, conformance_spec(seed=2, n_transactions=8),
            sharded=True,
        )
        assert normalized_summary_bytes(a) != normalized_summary_bytes(b)


#: (mix name, coordinator policy) per protocol for the shard-recovery
#: scenarios — MIXES registry names, as ScenarioSpec requires.
RECOVERY_SETUPS: dict[str, tuple[str, str]] = {
    "PrN": ("all-PrN", "PrN"),
    "PrA": ("all-PrA", "PrA"),
    "PrC": ("all-PrC", "PrC"),
    "PrAny": ("PrN+PrA+PrC", "dynamic"),
}

_RECOVERY_SEED = 11


def _recovery_spec(protocol: str) -> tuple[ScenarioSpec, str, list[str]]:
    """Build the pinned shard-kill scenario for one protocol.

    Returns the spec, the owning coordinator of ``t0000`` (the kill
    victim) and the txn ids owned by *other* shards.
    """
    mix_name, coordinator = RECOVERY_SETUPS[protocol]
    from repro.workloads.mixes import MIXES

    sites = sorted(MIXES[mix_name].site_protocols())
    n_transactions = 4
    inter_arrival = 5.0
    pmin, pmax = participant_bounds(len(sites), Topology.sharded())
    workload = WorkloadSpec(
        n_transactions=n_transactions,
        abort_fraction=0.0,
        participants_min=pmin,
        participants_max=pmax,
        inter_arrival=inter_arrival,
        hot_keys=0,
        seed=_RECOVERY_SEED,
    )
    txns = generate_transactions(workload, sites, placement=HashPlacement())
    owner = txns[0].coordinator
    other_shard = [t.txn_id for t in txns if t.coordinator != owner]
    spec = ScenarioSpec(
        seed=_RECOVERY_SEED,
        mix=mix_name,
        coordinator=coordinator,
        n_transactions=n_transactions,
        abort_fraction=0.0,
        inter_arrival=inter_arrival,
        topology=Topology.sharded(),
        actions=(
            # Mid-prepare: the owner dies right as it fans out PREPARE
            # for its shard's transaction. (The initiation-record point
            # only exists for policies that force one before PREPARE;
            # the PREPARE send itself fires for all four protocols.)
            CrashWhen(
                site=owner,
                point="coord-after-prepare-sent",
                txn="t0000",
                down_for=60.0,
            ),
        ),
    )
    return spec, owner, other_shard


@pytest.mark.parametrize("protocol", sorted(RECOVERY_SETUPS))
class TestShardRecovery:
    """Kill one shard's owner mid-prepare; the rest must not care."""

    def test_owner_crash_recovers_and_other_shards_proceed(
        self, protocol: str
    ) -> None:
        spec, owner, other_shard = _recovery_spec(protocol)
        # The pinned seed must actually spread the 4 transactions over
        # at least two shards, or the test proves nothing.
        assert other_shard
        mdbs, outcome = execute_scenario(spec)
        assert outcome.crashes_injected >= 1
        assert outcome.holds, outcome.verdict.summary()

        # Every transaction owned by a *live* shard must decide. Ones
        # owned by the crashed shard resolve the §4.2 way instead:
        # either they never start (submission while the owner is down
        # records ``txn_not_started``, exactly as a tm crash does in
        # the single-coordinator topology) or their prepared
        # participants inquire the recovered owner and get an answer
        # by presumption. Each transaction must be accounted for by
        # exactly this taxonomy — none may go silently missing.
        trace = mdbs.sim.trace
        decided = {
            event.details["txn"]
            for event in trace.select(category="protocol", name="decide")
        }
        assert set(other_shard) <= decided
        not_started = {
            event.details["txn"]
            for event in trace.select(category="system", name="txn_not_started")
        }
        by_presumption = {
            event.details["txn"]
            for event in trace.select(category="protocol", name="respond")
            if event.site == owner and event.details.get("presumed")
        }
        every = {f"t{i:04d}" for i in range(spec.n_transactions)}
        assert decided | not_started | by_presumption == every
        # Only the crashed shard's transactions may need the crash
        # taxonomy at all.
        assert every - decided <= every - set(other_shard)

        # The kill landed on the owner, mid-protocol.
        crashes = [
            event
            for event in mdbs.sim.trace.select(category="site", name="crash")
            if event.site == owner
        ]
        assert crashes
        crash_at = crashes[0].time
        recoveries = [
            event
            for event in mdbs.sim.trace.select(category="site", name="recover")
            if event.site == owner and event.time > crash_at
        ]
        assert recoveries

        # At least one other shard's transaction reached its decision
        # while (or before) the killed owner was still down — the
        # shards really are independent failure domains.
        down_until = recoveries[0].time
        other_decides = [
            event.time
            for event in mdbs.sim.trace.select(
                category="protocol", name="decide"
            )
            if event.details["txn"] in other_shard
        ]
        assert any(t < down_until for t in other_decides)

    def test_footprint_is_deterministic(self, protocol: str) -> None:
        """Same pinned spec, same footprint — the sim twin property."""
        spec, _, _ = _recovery_spec(protocol)
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first.trace_sha256 == second.trace_sha256
        assert first.trace_events == second.trace_events
