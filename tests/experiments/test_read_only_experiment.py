"""Tests for the C4 read-only optimization experiment."""

import pytest

from repro.experiments.read_only import READ_ONLY, savings


@pytest.fixture(scope="module")
def result():
    return READ_ONLY.run(n_transactions=6)


class TestReadOnlyExperiment:
    def test_every_cell_correct(self, result):
        assert result.claim("always_correct")

    def test_saves_forces_on_every_mix(self, result):
        for mix in ("all-PrN", "all-PrA", "all-PrC", "PrN+PrA+PrC"):
            forces_saved, messages_saved = savings(result, mix)
            assert forces_saved > 0, mix
            assert messages_saved > 0, mix

    def test_read_votes_only_when_enabled(self, result):
        for mix in ("all-PrN", "all-PrA"):
            assert result.point(mix, False).read_votes == 0
            assert result.point(mix, True).read_votes > 0

    def test_prn_saves_acks(self, result):
        assert result.point("all-PrN", True).acks < result.point("all-PrN", False).acks

    def test_render(self, result):
        assert "C4" in result.render()
