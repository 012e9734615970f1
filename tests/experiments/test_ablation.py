"""Tests for the A1 vulnerability-window ablation."""

import pytest

from repro.experiments.ablation import ABLATION


@pytest.fixture(scope="module")
def result():
    return ABLATION.run(delays=(0.0, 0.5, 6.0), flush_intervals=(None, 1.0))


class TestVulnerabilityWindow:
    def test_u2pc_always_violates_at_zero_delay(self, result):
        assert result.claim("u2pc_window_never_closes_at_zero_delay")

    def test_flushing_protects_late_crashes(self, result):
        assert result.claim("flushing_narrows_the_window")

    def test_no_flushing_means_unbounded_window(self, result):
        assert result.claim("unflushed_window_is_unbounded")

    def test_prany_immune_regardless(self, result):
        assert result.claim("prany_never_violates")

    def test_violation_iff_record_lost_under_u2pc(self, result):
        for p in result.rows:
            if p.coordinator_policy.startswith("U2PC"):
                assert p.violated == (not p.abort_record_survived)

    def test_render(self, result):
        assert "A1" in result.render()
