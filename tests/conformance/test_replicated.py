"""Differential conformance: replicated coordinator == plain coordinator.

Each test runs the same seeded workload twice — once with the plain
single ``tm`` coordinator, once with the same coordinator replicating
its decisions over a three-acceptor Paxos quorum — and demands
byte-identical observable footprints after the replication machinery
is erased (see ``harness.replication_normalized_summary``).

The claim this suite enforces is the tentpole's correctness story:
Paxos Commit changes the coordinator's *durability mechanism* (a quorum
of acceptors instead of a local force), never the protocol the
participants observe. Decisions, participant-side records, enforcement,
forgetting, garbage collection and final store state must all be
untouched, for each presumption protocol — including PrA, whose
presumed-abort decisions legitimately skip the quorum entirely because
the acceptors' default for an unaccepted instance IS the presumption.

Workload streams are replication-invariant by construction (acceptor
sites are appended after the mix sites and never drawn as
participants), so the two runs really are twins, not merely similar.
"""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.mdbs.topology import Topology
from repro.storage.log_records import RecordType
from repro.workloads.generator import build_mdbs
from repro.workloads.mixes import ProtocolMix, homogeneous, three_way

from tests.conformance.harness import (
    PROTOCOL_SETUPS,
    conformance_spec,
    replication_normalized_summary,
    replication_summary_bytes,
    run_workload,
    summary_bytes,
)

#: The four protocols replication supports (IYV/CL are rejected at
#: build time — their coordinator-side state is not registered with
#: the quorum yet).
REPLICATED_SETUPS: dict[str, tuple[ProtocolMix, str]] = {
    name: PROTOCOL_SETUPS[name] for name in ("PrN", "PrA", "PrC", "PrAny")
}

PROTOCOLS = sorted(REPLICATED_SETUPS)

#: Pinned seeds: equality must hold on each, and the suite stays
#: deterministic run to run.
SEEDS = (11, 12)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("seed", SEEDS)
class TestReplicatedMatchesPlain:
    def test_footprints_equal(self, protocol: str, seed: int) -> None:
        mix, coordinator = REPLICATED_SETUPS[protocol]
        spec = conformance_spec(seed=seed)
        plain = run_workload(mix, coordinator, spec)
        replicated = run_workload(mix, coordinator, spec, replicated=3)
        assert replication_summary_bytes(replicated) == (
            replication_summary_bytes(plain)
        )


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestReplicationActuallyHappens:
    """The equivalence is only interesting if the quorum really runs."""

    def test_acceptors_hold_and_release_paxos_state(
        self, protocol: str
    ) -> None:
        mix, coordinator = REPLICATED_SETUPS[protocol]
        spec = conformance_spec(seed=SEEDS[0])
        replicated = run_workload(mix, coordinator, spec, replicated=3)
        # Every acceptor site exists, forced ACCEPT records during the
        # run, and drained them again through the status/forget GC.
        acc_sites = [s for s in replicated.sites if s.startswith("acc")]
        assert sorted(acc_sites) == ["acc0", "acc1", "acc2"]
        for site_id in acc_sites:
            site = replicated.sites[site_id]
            appended = [
                event
                for event in replicated.sim.trace.select(
                    category="log", name="append"
                )
                if event.site == site_id
                and event.details["type"] == RecordType.ACCEPT.value
            ]
            assert appended, f"{site_id} never logged Paxos state"
            assert site.uncollected_log_transactions() == set()
            # Acceptor state lives outside the protocol tables — the
            # operational checker accounts for it via the log only.
            assert site.retained_transactions() == set()

    def test_every_transaction_registers_with_the_quorum(
        self, protocol: str
    ) -> None:
        mix, coordinator = REPLICATED_SETUPS[protocol]
        spec = conformance_spec(seed=SEEDS[0])
        replicated = run_workload(mix, coordinator, spec, replicated=3)
        registered = {
            event.details["txn"]
            for event in replicated.sim.trace.select(
                category="replication", name="registered"
            )
        }
        every = {f"t{i:04d}" for i in range(spec.n_transactions)}
        assert registered == every

    def test_forced_decisions_go_through_the_quorum(
        self, protocol: str
    ) -> None:
        """Commits replicate; PrA aborts are the presumption's free ride."""
        mix, coordinator = REPLICATED_SETUPS[protocol]
        spec = conformance_spec(seed=SEEDS[0])
        replicated = run_workload(mix, coordinator, spec, replicated=3)
        trace = replicated.sim.trace
        replicated_txns = {
            event.details["txn"]
            for event in trace.select(category="replication", name="replicated")
        }
        decided = {
            event.details["txn"]: event.details["decision"]
            for event in trace.select(category="protocol", name="decide")
        }
        commits = {t for t, d in decided.items() if d == "commit"}
        # Every commit was quorum-accepted before the decide fired.
        assert commits <= replicated_txns
        if protocol == "PrA":
            # Presumed-abort decisions never enter phase 2.
            assert replicated_txns == commits


class TestNormalizedSummaryIsMeaningful:
    """Guard the normalization itself: it must erase replication only."""

    def test_raw_footprints_differ(self) -> None:
        """Without normalization the twins are NOT byte-equal — the
        acceptors and the coordinator's registration records are real
        observable differences that the view is responsible for
        erasing, not artifacts."""
        mix, coordinator = REPLICATED_SETUPS["PrN"]
        spec = conformance_spec(seed=SEEDS[0])
        plain = run_workload(mix, coordinator, spec)
        replicated = run_workload(mix, coordinator, spec, replicated=3)
        assert summary_bytes(replicated) != summary_bytes(plain)

    def test_covers_every_transaction_and_checks(self) -> None:
        mix, coordinator = REPLICATED_SETUPS["PrAny"]
        spec = conformance_spec(seed=SEEDS[0], n_transactions=12)
        summary = replication_normalized_summary(
            run_workload(mix, coordinator, spec, replicated=3)
        )
        assert len(summary["decisions"]) == 12
        assert summary["checks"] == {
            "atomicity": True,
            "safe_state": True,
            "operational": True,
        }
        # Participant-side records survive the normalization.
        assert summary["appended_records"]
        for records in summary["appended_records"].values():
            for site, _record_type in records:
                assert not site.startswith("acc")

    def test_different_workloads_still_differ(self) -> None:
        mix, coordinator = REPLICATED_SETUPS["PrN"]
        a = run_workload(
            mix, coordinator, conformance_spec(seed=1, n_transactions=8),
            replicated=3,
        )
        b = run_workload(
            mix, coordinator, conformance_spec(seed=2, n_transactions=8),
            replicated=3,
        )
        assert replication_summary_bytes(a) != replication_summary_bytes(b)


class TestReplicationGuards:
    """Unsupported combinations fail loudly at build time."""

    def test_sharded_is_rejected(self) -> None:
        with pytest.raises(WorkloadError, match="single-coordinator"):
            build_mdbs(
                homogeneous("PrN", 4), "PrN", topology=Topology.from_flags(True, 3)
            )

    @pytest.mark.parametrize("protocol", ["IYV", "CL"])
    def test_extension_protocols_are_rejected(self, protocol: str) -> None:
        with pytest.raises(WorkloadError, match="extension protocols"):
            build_mdbs(
                homogeneous(protocol, 3), "dynamic", topology=Topology.replicated(3)
            )

    def test_acceptors_never_participate(self) -> None:
        mix, coordinator = REPLICATED_SETUPS["PrAny"]
        spec = conformance_spec(seed=SEEDS[0])
        replicated = run_workload(mix, coordinator, spec, replicated=3)
        for txn in replicated.submitted:
            assert not any(p.startswith("acc") for p in txn.participants)
            assert txn.coordinator == "tm"
