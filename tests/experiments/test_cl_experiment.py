"""Tests for the C7 coordinator-log experiment."""

import pytest

from repro.experiments.coordinator_log import CL


@pytest.fixture(scope="module")
def result():
    return CL.run(seed=37, n_transactions=5)


class TestCLExperiment:
    def test_all_correct(self, result):
        assert result.claim("all_correct")

    def test_cl_participants_force_nothing(self, result):
        assert result.claim("cl_participants_force_nothing")

    def test_log_volume_moved(self, result):
        assert result.claim("cl_moves_log_volume_to_coordinator")

    def test_recovery_pulls_redo(self, result):
        assert result.claim("cl_recovery_pulls_redo")

    def test_prn_baseline_forces(self, result):
        # PrN: prepared + decision force per participant per txn.
        prn = result.point("PrN")
        assert prn.participant_forces == 4 * prn.n_transactions

    def test_render(self, result):
        assert "C7" in result.render()
