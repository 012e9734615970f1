"""Unit tests for metric extraction."""

from repro.analysis.metrics import (
    cost_breakdown,
    mean,
    message_counts,
    site_force_counts,
)
from repro.analysis.model import predict_costs
from repro.core.events import Outcome
from repro.workloads.generator import WorkloadSpec, run_workload
from repro.workloads.mixes import three_way
from tests.conftest import make_mdbs, run_one_txn


class TestMessageCounts:
    def test_counts_by_kind(self, mdbs):
        run_one_txn(mdbs, ["alpha", "beta"])
        counts = message_counts(mdbs.sim.trace)
        assert counts.of("PREPARE") == 2
        assert counts.of("VOTE_YES") == 2
        assert counts.of("COMMIT") == 2
        assert counts.of("ACK") == 1  # PrA participant only

    def test_total(self, mdbs):
        run_one_txn(mdbs, ["alpha", "beta"])
        counts = message_counts(mdbs.sim.trace)
        assert counts.total == sum(counts.by_kind.values())

    def test_txn_filter(self, mdbs):
        run_one_txn(mdbs, ["alpha", "beta"], txn_id="t1")
        assert message_counts(mdbs.sim.trace, txn_id="ghost").total == 0

    def test_since_seq_filter(self, mdbs):
        run_one_txn(mdbs, ["alpha", "beta"])
        end = mdbs.sim.trace[-1].seq + 1
        assert message_counts(mdbs.sim.trace, since_seq=end).total == 0


class TestCostBreakdown:
    def test_prany_commit_costs(self, mdbs):
        run_one_txn(mdbs, ["alpha", "beta"])
        costs = cost_breakdown(mdbs.sim.trace, "t1", "tm")
        # Coordinator: initiation + commit forced, end non-forced.
        assert costs.coordinator_forced == 2
        assert costs.coordinator_writes == 3
        # Participants: 2 prepared forces + PrA's forced commit record.
        assert costs.participant_forced == 3
        assert costs.messages == 7  # 2 prep + 2 yes + 2 commit + 1 ack

    def test_update_records_excluded_by_default(self, mdbs):
        run_one_txn(mdbs, ["alpha", "beta"])
        with_updates = cost_breakdown(
            mdbs.sim.trace, "t1", "tm", exclude_update_records=False
        )
        without = cost_breakdown(mdbs.sim.trace, "t1", "tm")
        assert with_updates.participant_writes > without.participant_writes

    def test_total_forced(self, mdbs):
        run_one_txn(mdbs, ["alpha", "beta"])
        costs = cost_breakdown(mdbs.sim.trace, "t1", "tm")
        assert costs.total_forced == costs.coordinator_forced + costs.participant_forced


    def test_concurrent_storm_matches_the_model(self):
        # Dense arrivals: transactions overlap at every site, so a
        # force regularly sweeps out a neighbour's lazy record (a PrC
        # participant's commit, a coordinator's end record). Those
        # count as written, never as forced.
        mix = three_way(3)
        spec = WorkloadSpec(
            n_transactions=60, abort_fraction=0.2, inter_arrival=0.5, seed=35
        )
        mdbs, transactions = run_workload(mix, "dynamic", spec, drain=400.0)
        history = mdbs.history()
        protocols = mix.site_protocols()
        committed = 0
        for txn in transactions:
            if history.decision(txn.txn_id) is not Outcome.COMMIT:
                continue
            committed += 1
            predicted = predict_costs(
                {site: protocols[site] for site in txn.participants},
                Outcome.COMMIT,
            )
            measured = cost_breakdown(mdbs.sim.trace, txn.txn_id, txn.coordinator)
            assert (
                measured.coordinator_forced,
                measured.participant_forced,
                measured.coordinator_writes,
                measured.participant_writes,
                measured.messages,
            ) == (
                predicted.coordinator_forces,
                predicted.participant_forces,
                predicted.coordinator_writes,
                predicted.participant_writes,
                predicted.messages,
            ), txn.txn_id
        assert committed >= 30


class TestSiteForceCounts:
    def test_per_site_counts(self, mdbs):
        run_one_txn(mdbs, ["alpha", "beta"])
        counts = site_force_counts(mdbs)
        assert counts["tm"] == 2
        assert counts["alpha"] == 2  # prepared + commit
        assert counts["beta"] == 1  # prepared only (PrC commit is lazy)


class TestMean:
    def test_mean_of_values(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_of_empty(self):
        assert mean([]) == 0.0
