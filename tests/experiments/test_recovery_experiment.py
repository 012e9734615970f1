"""Tests for the R1 recovery experiment."""

import pytest

from repro.experiments.recovery import RECOVERY, SCENARIOS


@pytest.fixture(scope="module")
def result():
    return RECOVERY.run(seed=13)


class TestRecoveryExperiment:
    def test_every_scenario_converges(self, result):
        assert result.claim("all_converged")

    def test_log_shapes_match_section_4_2(self, result):
        expected = {s.name: s.expected_log_shape for s in SCENARIOS}
        for outcome in result.rows:
            assert outcome.log_shape == expected[outcome.scenario], outcome.scenario

    def test_every_scenario_reinitiates_exactly_once(self, result):
        for outcome in result.rows:
            assert outcome.reinitiated == 1, outcome.scenario

    def test_prany_init_only_recovery_answers_pra_by_presumption(self, result):
        # The PrA participant is deliberately not contacted on the
        # re-initiated abort; its inquiry is answered by presumption.
        by_name = {o.scenario: o for o in result.rows}
        prany_init = by_name["PrAny: crash right after initiation (abort re-sent)"]
        assert prany_init.presumed_responses >= 1

    def test_render(self, result):
        text = result.render()
        assert "R1" in text
        for outcome in result.rows:
            assert outcome.scenario in text
