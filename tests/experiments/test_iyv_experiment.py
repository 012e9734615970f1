"""Tests for the C5 IYV-vs-PrA experiment."""

import pytest

from repro.experiments.iyv import IYV


@pytest.fixture(scope="module")
def result():
    return IYV.run(update_counts=(1, 4))


class TestIYVExperiment:
    def test_all_runs_correct(self, result):
        assert result.claim("all_correct")

    def test_iyv_decides_earlier(self, result):
        assert result.claim("iyv_always_decides_earlier")

    def test_iyv_uses_fewer_messages(self, result):
        assert result.claim("iyv_always_uses_fewer_messages")

    def test_force_growth_shapes(self, result):
        assert result.claim("pra_forces_grow_slower")

    def test_iyv_message_savings_is_two_rounds(self, result):
        # 3 participants: PrA = prepare + vote + decision + ack = 4×3;
        # IYV = decision + ack = 2×3.
        assert result.point("PrA", 1).messages == 12
        assert result.point("IYV", 1).messages == 6

    def test_render(self, result):
        assert "C5" in result.render()
