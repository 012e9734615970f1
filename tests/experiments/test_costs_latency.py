"""Tests for the cost (C1), latency (C2) and selection (C3) experiments."""

import math

import pytest

from repro.experiments.costs import COSTS
from repro.experiments.latency import LATENCY
from repro.experiments.selection import SELECTION, savings


@pytest.fixture(scope="module")
def costs():
    return COSTS.run()


@pytest.fixture(scope="module")
def latencies():
    return LATENCY.run(participant_counts=(2, 4))


@pytest.fixture(scope="module")
def ablation():
    return SELECTION.run(n_transactions=8)


class TestCostShapes:
    """The classic trade-offs the paper's argument rests on."""

    def test_prc_commit_cheapest_for_participants(self, costs):
        assert costs.claim("prc_commit_cheaper_for_participants_than_pra")

    def test_pra_abort_free_at_coordinator(self, costs):
        assert costs.claim("pra_abort_is_free_at_coordinator")

    def test_prn_never_strictly_cheapest(self, costs):
        assert costs.claim("prn_never_strictly_cheapest")

    def test_prn_uniform_across_outcomes(self, costs):
        commit = costs.point("all-PrN", "commit")
        abort = costs.point("all-PrN", "abort")
        assert commit.coordinator_forced == abort.coordinator_forced
        assert commit.acks == abort.acks

    def test_prc_commit_has_no_acks(self, costs):
        assert costs.point("all-PrC", "commit").acks == 0

    def test_pra_abort_has_no_acks(self, costs):
        assert costs.point("all-PrA", "abort").acks == 0

    def test_prany_pays_initiation_force(self, costs):
        prany = costs.point("PrAny (PrA+PrC)", "commit")
        pra = costs.point("all-PrA", "commit")
        assert prany.coordinator_forced == pra.coordinator_forced + 1

    def test_prany_commit_acks_only_pra_half(self, costs):
        # 2 participants: 1 PrA + 1 PrC; only the PrA one acks commits.
        assert costs.point("PrAny (PrA+PrC)", "commit").acks == 1

    def test_prany_abort_acks_only_prc_half(self, costs):
        assert costs.point("PrAny (PrA+PrC)", "abort").acks == 1

    def test_table_renders_every_cell(self, costs):
        text = costs.render()
        assert "all-PrN" in text and "PrAny (3-way)" in text


class TestLatencyShapes:
    def test_ack_free_paths_forget_at_decision(self, latencies):
        prc_commit = latencies.point("all-PrC", "commit", 2)
        assert math.isclose(
            prc_commit.forget_latency, prc_commit.decision_latency
        )
        pra_abort = latencies.point("all-PrA", "abort", 2)
        assert math.isclose(pra_abort.forget_latency, pra_abort.decision_latency)

    def test_acked_paths_forget_after_release(self, latencies):
        prn = latencies.point("all-PrN", "commit", 2)
        assert prn.forget_latency > prn.release_latency

    def test_latency_grows_from_2_to_4_participants(self, latencies):
        two = latencies.point("all-PrN", "commit", 2)
        four = latencies.point("all-PrN", "commit", 4)
        assert four.forget_latency > two.forget_latency

    def test_all_points_finite(self, latencies):
        for point in latencies.rows:
            assert math.isfinite(point.decision_latency)
            assert math.isfinite(point.release_latency)
            assert math.isfinite(point.forget_latency)

    def test_render(self, latencies):
        assert "C2" in latencies.render()


class TestSelectionAblation:
    def test_dynamic_saves_forces_on_homogeneous_prn(self, ablation):
        forces_saved, __ = savings(ablation, "all-PrN")
        assert forces_saved > 0

    def test_dynamic_saves_forces_on_homogeneous_pra(self, ablation):
        forces_saved, __ = savings(ablation, "all-PrA")
        assert forces_saved > 0

    def test_dynamic_ties_on_homogeneous_prc(self, ablation):
        forces_saved, acks_saved = savings(ablation, "all-PrC")
        assert forces_saved == 0 and acks_saved == 0

    def test_mixed_workloads_identical_under_both(self, ablation):
        for mix in ("PrA+PrC", "PrN+PrC"):
            forces_saved, acks_saved = savings(ablation, mix)
            assert forces_saved == 0 and acks_saved == 0

    def test_dynamic_selects_base_protocols_when_homogeneous(self, ablation):
        point = ablation.point("all-PrA", "dynamic")
        assert point.protocols_used == {"PrA": 8}

    def test_always_prany_never_selects_base(self, ablation):
        point = ablation.point("all-PrA", "PrAny")
        assert point.protocols_used == {"PrAny": 8}

    def test_render(self, ablation):
        assert "C3" in ablation.render()
