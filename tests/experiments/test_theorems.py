"""Tests for the theorem experiments (T1, T2, T3)."""

import pytest

from repro.experiments.theorem1 import THEOREM1
from repro.experiments.theorem2 import THEOREM2, series
from repro.experiments.theorem3 import THEOREM3, failures


@pytest.fixture(scope="module")
def t1_result():
    return THEOREM1.run()


@pytest.fixture(scope="module")
def t2_result():
    return THEOREM2.run(seed=3, counts=(4, 8))


@pytest.fixture(scope="module")
def t3_result():
    # A reduced but still multi-mix slice of the full stress.
    return THEOREM3.run(
        mixes=("PrA+PrC", "all-PrC"), random_seeds=(1, 2), seed=11
    )


class TestTheorem1:
    def test_every_u2pc_part_violates_atomicity(self, t1_result):
        assert t1_result.claim("u2pc_all_violate")

    def test_prany_survives_every_schedule(self, t1_result):
        assert t1_result.claim("prany_never_violates")

    def test_demonstrated(self, t1_result):
        assert t1_result.holds

    def test_violations_have_expected_shape(self, t1_result):
        for scenario in t1_result.rows:
            if not scenario.coordinator_policy.startswith("U2PC"):
                continue
            # The divergence is always PrA=commit vs PrC=abort.
            assert scenario.outcomes["alpha_pra"] == "commit"
            assert scenario.outcomes["beta_prc"] == "abort"

    def test_u2pc_violations_come_with_safe_state_violations(self, t1_result):
        for scenario in t1_result.rows:
            if scenario.coordinator_policy.startswith("U2PC"):
                assert scenario.safe_state_violations >= 1

    def test_render(self, t1_result):
        text = t1_result.render()
        assert "DEMONSTRATED" in text and "Part III" in text


class TestTheorem2:
    def test_c2pc_retention_linear(self, t2_result):
        assert t2_result.claim("c2pc_growth_is_linear")

    def test_prany_retains_nothing(self, t2_result):
        assert t2_result.claim("prany_retains_nothing")

    def test_c2pc_is_still_functionally_correct(self, t2_result):
        assert t2_result.claim("c2pc_still_atomic")

    def test_demonstrated(self, t2_result):
        assert t2_result.holds

    def test_uncollected_log_matches_retention(self, t2_result):
        for point in t2_result.rows:
            if point.coordinator_policy.startswith("C2PC"):
                assert point.uncollected_log_txns == point.retained_entries

    def test_series_extraction(self, t2_result):
        points = series(t2_result, "dynamic")
        assert [n for n, __ in points] == [4, 8]

    def test_render(self, t2_result):
        assert "Theorem 2 DEMONSTRATED" in t2_result.render()


class TestTheorem3:
    def test_no_failures_in_reduced_stress(self, t3_result):
        assert failures(t3_result) == []

    def test_covers_many_runs(self, t3_result):
        assert len(t3_result.rows) > 50

    def test_demonstrated(self, t3_result):
        assert t3_result.holds

    def test_render(self, t3_result):
        assert "Theorem 3 DEMONSTRATED" in t3_result.render()


class TestTheorem2OtherNatives:
    @pytest.mark.parametrize("native", ["PrA", "PrC"])
    def test_c2pc_broken_for_every_native(self, native):
        result = THEOREM2.run(seed=3, counts=(4,), c2pc_native=native)
        assert result.holds
