"""Tests for the C6 throughput experiment."""

import pytest

from repro.experiments.throughput import THROUGHPUT


@pytest.fixture(scope="module")
def result():
    return THROUGHPUT.run(seed=29, n_transactions=60)


class TestThroughput:
    def test_all_configurations_correct(self, result):
        assert result.claim("all_correct")

    def test_prc_residency_lowest_on_commits(self, result):
        assert result.claim("prc_residency_lowest_on_commits")

    def test_prc_uses_fewest_messages(self, result):
        prc = result.point("all-PrC")
        assert prc.messages_per_txn == min(
            p.messages_per_txn for p in result.rows
        )

    def test_abort_workload_flips_the_winner(self):
        aborts = THROUGHPUT.run(seed=29, n_transactions=40, abort_fraction=1.0)
        pra = aborts.point("all-PrA")
        prc = aborts.point("all-PrC")
        assert pra.correct and prc.correct
        assert pra.mean_residency < prc.mean_residency

    def test_events_scale_with_workload(self):
        small = THROUGHPUT.run(seed=29, n_transactions=20).point("all-PrN")
        large = THROUGHPUT.run(seed=29, n_transactions=80).point("all-PrN")
        assert large.steps > 3 * small.steps

    def test_render(self, result):
        assert "C6" in result.render()
