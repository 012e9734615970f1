"""Open-loop generator unit tests: determinism, rate-independent
bodies, arrival processes, and the curve/knee arithmetic.

Everything here is cluster-free — the sweep itself runs real clusters
in the live bench and the CLI smoke job.
"""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.mdbs.placement import HashPlacement
from repro.workloads.openloop import (
    OpenLoopSpec,
    generate_open_loop,
    offered_load_row,
    saturation_knee,
)

SITES = ["site0_prn", "site1_pra", "site2_prc", "site3_prn"]


def spec(**kw):
    defaults = dict(rate=50.0, n_transactions=24, clients=4, seed=11)
    defaults.update(kw)
    return OpenLoopSpec(**defaults)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"rate": 0.0},
            {"rate": -5.0},
            {"clients": 0},
            {"arrival": "uniform"},
            {"burst_mean": 0.5},
            {"participants_min": 0},
            {"participants_min": 3, "participants_max": 2},
            {"hot_fraction": 1.5},
            {"abort_fraction": -0.1},
            {"read_only_fraction": 2.0},
        ],
    )
    def test_bad_specs_rejected(self, kw):
        with pytest.raises(WorkloadError):
            spec(**kw)

    def test_at_rate_changes_only_the_rate(self):
        base = spec(rate=25.0)
        fast = base.at_rate(400.0)
        assert fast.rate == 400.0
        assert fast.seed == base.seed
        assert fast.n_transactions == base.n_transactions


class TestDeterminism:
    def test_same_spec_same_stream(self):
        a = generate_open_loop(spec(), SITES)
        b = generate_open_loop(spec(), SITES)
        assert [t.to_dict() for t in a] == [t.to_dict() for t in b]

    def test_seed_changes_the_stream(self):
        a = generate_open_loop(spec(seed=1), SITES)
        b = generate_open_loop(spec(seed=2), SITES)
        assert [t.submit_at for t in a] != [t.submit_at for t in b]

    def test_site_order_is_irrelevant(self):
        a = generate_open_loop(spec(), SITES)
        b = generate_open_loop(spec(), list(reversed(SITES)))
        assert [t.to_dict() for t in a] == [t.to_dict() for t in b]


class TestRateIndependentBodies:
    def test_sweeping_the_rate_replays_identical_work(self):
        """The differential-sweep property: two rates must yield the
        same transactions — participants, keys, abort plan, read sets —
        differing only in their arrival clocks."""
        slow = generate_open_loop(spec(rate=10.0, hot_keys=4,
                                       hot_fraction=0.5, abort_fraction=0.25,
                                       read_only_fraction=0.25), SITES)
        fast = generate_open_loop(spec(rate=500.0, hot_keys=4,
                                       hot_fraction=0.5, abort_fraction=0.25,
                                       read_only_fraction=0.25), SITES)
        for a, b in zip(slow, fast):
            assert a.txn_id == b.txn_id
            assert a.writes == b.writes
            assert a.reads == b.reads
            assert a.force_no_vote_at == b.force_no_vote_at
            assert a.coordinator == b.coordinator
        # The clocks DO differ — 50x the rate compresses the schedule.
        assert slow[-1].submit_at > fast[-1].submit_at

    def test_rate_scales_the_mean_gap(self):
        slow = generate_open_loop(spec(rate=10.0, n_transactions=64), SITES)
        fast = generate_open_loop(spec(rate=100.0, n_transactions=64), SITES)
        assert slow[-1].submit_at / fast[-1].submit_at == pytest.approx(10.0)


class TestArrivals:
    def test_arrivals_are_sorted_and_sized(self):
        txns = generate_open_loop(spec(n_transactions=30), SITES)
        ats = [t.submit_at for t in txns]
        assert len(txns) == 30
        assert ats == sorted(ats)

    def test_offered_rate_is_approximately_held(self):
        # 400 Poisson arrivals at 50 txn/s (time_scale 0.01): the span
        # should be ~8 wall-seconds = ~800 virtual units, well within
        # 4 sigma for a Poisson process.
        txns = generate_open_loop(
            spec(rate=50.0, n_transactions=400, seed=3), SITES
        )
        span_wall = txns[-1].submit_at * 0.01
        assert 5.0 < span_wall < 12.0

    def test_bursty_arrivals_batch(self):
        txns = generate_open_loop(
            spec(arrival="bursty", burst_mean=4.0, n_transactions=64, seed=5),
            SITES,
        )
        ats = [t.submit_at for t in txns]
        batches = len(set(ats))
        # Mean batch ~4 => far fewer distinct instants than arrivals.
        assert batches < len(ats) / 2

    def test_bursty_preserves_the_offered_rate(self):
        poisson = generate_open_loop(
            spec(rate=50.0, n_transactions=400, seed=9), SITES
        )
        bursty = generate_open_loop(
            spec(rate=50.0, n_transactions=400, seed=9, arrival="bursty",
                 burst_mean=4.0),
            SITES,
        )
        # Same offered rate: total spans agree within Poisson noise.
        ratio = bursty[-1].submit_at / poisson[-1].submit_at
        assert 0.5 < ratio < 2.0


class TestBodies:
    def test_participant_counts_respect_the_range(self):
        for txn in generate_open_loop(
            spec(participants_min=2, participants_max=3), SITES
        ):
            assert 2 <= len(txn.writes) + len(txn.reads) <= 3

    def test_private_keys_by_default(self):
        txns = generate_open_loop(spec(n_transactions=16), SITES)
        keys = [op.key for t in txns for ops in t.writes.values() for op in ops]
        assert len(keys) == len(set(keys))

    def test_hot_keys_collide(self):
        txns = generate_open_loop(
            spec(n_transactions=48, hot_keys=2, hot_fraction=1.0), SITES
        )
        keys = {op.key for t in txns for ops in t.writes.values() for op in ops}
        assert keys <= {"hot0", "hot1"}

    def test_read_only_transactions_carry_reads_not_writes(self):
        txns = generate_open_loop(
            spec(n_transactions=48, read_only_fraction=1.0), SITES
        )
        assert all(t.reads and not t.writes for t in txns)
        # Read-only transactions are never forced to abort.
        assert all(not t.force_no_vote_at for t in txns)

    def test_abort_fraction_forces_no_votes(self):
        txns = generate_open_loop(
            spec(n_transactions=48, abort_fraction=1.0), SITES
        )
        assert all(t.force_no_vote_at for t in txns)
        for txn in txns:
            assert txn.force_no_vote_at <= set(txn.writes)

    def test_sharded_placement_picks_non_participants(self):
        placement = HashPlacement()
        txns = generate_open_loop(
            spec(participants_min=2, participants_max=3),
            SITES,
            placement=placement,
        )
        for txn in txns:
            assert txn.coordinator in SITES
            assert txn.coordinator not in txn.writes
            assert txn.coordinator not in txn.reads

    def test_sharded_placement_needs_spare_sites(self):
        with pytest.raises(WorkloadError, match="non-participant coordinator"):
            generate_open_loop(
                spec(participants_min=2, participants_max=4),
                SITES,
                placement=HashPlacement(),
            )

    def test_empty_site_list_rejected(self):
        with pytest.raises(WorkloadError, match="at least one participant"):
            generate_open_loop(spec(), [])


class TestCurveArithmetic:
    def row(self, **kw):
        defaults = dict(
            rate=50.0, transactions=10, decided=10, undecided=0,
            achieved=50.0, p50_ms=5.0, p95_ms=10.0, p99_ms=12.0,
        )
        defaults.update(kw)
        return defaults

    def test_offered_load_row_percentiles(self):
        txns = generate_open_loop(spec(n_transactions=4, rate=100.0), SITES)
        latencies = {t.txn_id: 0.010 * (i + 1) for i, t in enumerate(txns)}
        row = offered_load_row(spec(n_transactions=4, rate=100.0), txns, latencies)
        assert row["decided"] == 4
        assert row["undecided"] == 0
        assert row["p50_ms"] == 30.0  # nearest-rank of [10,20,30,40] at q=.5
        assert row["p99_ms"] == 40.0
        assert row["achieved"] > 0

    def test_offered_load_row_counts_undecided(self):
        txns = generate_open_loop(spec(n_transactions=4), SITES)
        row = offered_load_row(spec(n_transactions=4), txns, {})
        assert row["decided"] == 0
        assert row["undecided"] == 4
        assert row["p95_ms"] == 0.0
        assert row["achieved"] == 0.0

    def test_knee_none_when_every_rate_holds(self):
        rows = [self.row(rate=r, achieved=r) for r in (25, 50, 100)]
        assert saturation_knee(rows) is None

    def test_knee_on_undecided(self):
        rows = [
            self.row(rate=25, achieved=25),
            self.row(rate=50, achieved=48, undecided=2),
        ]
        assert saturation_knee(rows) == 50

    def test_knee_on_achieved_shortfall(self):
        rows = [
            self.row(rate=25, achieved=25),
            self.row(rate=100, achieved=60),  # < 0.9 * 100
        ]
        assert saturation_knee(rows) == 100

    def test_knee_on_p95_blowup(self):
        rows = [
            self.row(rate=25, p95_ms=10.0, achieved=25),
            self.row(rate=50, p95_ms=50.0, achieved=50),  # > 3x base
        ]
        assert saturation_knee(rows) == 50

    def test_p95_blowup_never_fires_on_the_first_row(self):
        rows = [self.row(rate=25, p95_ms=1000.0, achieved=25)]
        assert saturation_knee(rows) is None

    def test_empty_curve_has_no_knee(self):
        assert saturation_knee([]) is None
