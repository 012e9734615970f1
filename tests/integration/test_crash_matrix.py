"""The crash matrix: every crash point × every mix × both outcomes.

This is the test-suite twin of experiment T3: it pins down that the
full PrAny stack stays correct under every single-site crash at every
protocol step. Failures here point at the exact (mix, outcome, crash
point, victim) combination that broke.

The U2PC and C2PC matrices below are the twin of experiments T1/T2:
they iterate the same catalogue under the paper's two naive fixes and
assert the *expected* failures — Theorem 1's atomicity violations at
exactly the cells where a participant whose native presumption
disagrees with the decision crashes inside its decision window, and
Theorem 2's unforgettable transactions (a protocol-table entry the
coordinator retains forever) at every cell where the decision is not
already implied by the C2PC coordinator's own presumption.
"""

import pytest

from repro.mdbs.transaction import GlobalTransaction, WriteOp
from repro.workloads.failure_schedules import (
    coordinator_crash_points,
    participant_crash_points,
)
from repro.workloads.generator import COORDINATOR_ID, build_mdbs
from repro.workloads.mixes import MIXES

MATRIX_MIXES = ("PrA+PrC", "PrN+PrA+PrC")
POINTS = {p.name: p for p in coordinator_crash_points() + participant_crash_points()}


def run_matrix_case(coordinator, mix_name, outcome, point_name, victim):
    """One crash-matrix cell: a single transaction, a single crash."""
    mix = MIXES[mix_name]
    mdbs = build_mdbs(mix, coordinator=coordinator, seed=31)
    participants = sorted(mix.site_protocols())
    point = POINTS[point_name]
    txn = GlobalTransaction(
        txn_id="tx",
        coordinator=COORDINATOR_ID,
        writes={site: [WriteOp(f"k@{site}", 1)] for site in participants},
        coordinator_abort=outcome == "abort",
    )
    trigger = mdbs.failures.crash_when(
        victim, point.make_predicate(victim, "tx"), down_for=60.0
    )
    mdbs.submit(txn)
    mdbs.run(until=800)
    mdbs.finalize()
    # The trigger, armed before the run, crashed the victim once, right
    # after the first event its predicate matches (none: no crash).
    trace = mdbs.sim.trace
    first = next((e for e in trace if trigger.predicate(e)), None)
    assert mdbs.failures.crashes_injected == (first is not None)
    if first is not None:
        crash = trace.first("site", "crash", site=victim)
        assert crash.time == first.time and crash.seq > first.seq
    return mdbs.check()


def run_case(mix_name, outcome, point_name, victim_role):
    mix = MIXES[mix_name]
    participants = sorted(mix.site_protocols())
    victim = COORDINATOR_ID if victim_role == "coordinator" else participants[0]
    return run_matrix_case("dynamic", mix_name, outcome, point_name, victim)


@pytest.mark.parametrize("mix_name", MATRIX_MIXES)
@pytest.mark.parametrize("outcome", ["commit", "abort"])
@pytest.mark.parametrize(
    "point_name",
    [p.name for p in coordinator_crash_points()],
)
def test_coordinator_crashes(mix_name, outcome, point_name):
    reports = run_case(mix_name, outcome, point_name, "coordinator")
    assert reports.all_hold, str(reports)


@pytest.mark.parametrize("mix_name", MATRIX_MIXES)
@pytest.mark.parametrize("outcome", ["commit", "abort"])
@pytest.mark.parametrize(
    "point_name",
    [p.name for p in participant_crash_points()],
)
def test_participant_crashes(mix_name, outcome, point_name):
    reports = run_case(mix_name, outcome, point_name, "participant")
    assert reports.all_hold, str(reports)


# ---------------------------------------------------------------------------
# U2PC and C2PC over the same catalogue: assert the *expected* failures.
# ---------------------------------------------------------------------------

NAIVE_MIX = "PrA+PrC"
NAIVE_PARTICIPANTS = sorted(MIXES[NAIVE_MIX].site_protocols())

# Every (outcome, crash point, victim) cell of the single-crash matrix.
MATRIX_CELLS = [
    (outcome, point.name, victim)
    for outcome in ("commit", "abort")
    for point in coordinator_crash_points() + participant_crash_points()
    for victim in (
        [COORDINATOR_ID] if point.role == "coordinator" else NAIVE_PARTICIPANTS
    )
]

# Theorem 1: U2PC breaks atomicity exactly when the participant whose
# native presumption contradicts the decision crashes inside its
# decision window (prepared → decision durably enforced).  Under the
# uniform PrN/PrA tables the endangered participant is the PrC site on
# commits (its commit record is lazy, so a crash loses it and recovery
# resolves to the uniform presumed/explicit *abort*); under the uniform
# PrC table it is the PrA site on aborts (its abort is lazy, and the
# uniform table presumes *commit*).  Every other cell must stay clean.
U2PC_EXPECTED_VIOLATIONS = {
    "U2PC(PrN)": {
        ("commit", "part-after-prepared", "site1_prc"),
        ("commit", "part-before-decision-commit", "site1_prc"),
        ("commit", "part-after-enforce-commit", "site1_prc"),
    },
    "U2PC(PrA)": {
        ("commit", "part-after-prepared", "site1_prc"),
        ("commit", "part-before-decision-commit", "site1_prc"),
        ("commit", "part-after-enforce-commit", "site1_prc"),
    },
    "U2PC(PrC)": {
        ("abort", "part-after-prepared", "site0_pra"),
        ("abort", "part-before-decision-abort", "site0_pra"),
        ("abort", "part-after-enforce-abort", "site0_pra"),
    },
}

# Theorem 2: C2PC keeps every terminated transaction in the
# coordinator's protocol table forever (operationally incorrect), in
# every cell except where the decision is already implied by the C2PC
# coordinator's own presumption, so there is nothing to retain: a
# pre-decision coordinator crash resolves to presumed abort under PrN
# and PrA, and a PrA coordinator never needs to remember aborts at all.
C2PC_EXPECTED_CLEAN = {
    "C2PC(PrN)": {
        ("commit", "coord-after-prepare-sent", COORDINATOR_ID),
        ("abort", "coord-after-prepare-sent", COORDINATOR_ID),
    },
    "C2PC(PrA)": {
        ("commit", "coord-after-prepare-sent", COORDINATOR_ID),
        ("abort", "coord-after-prepare-sent", COORDINATOR_ID),
        ("abort", "coord-after-decide", COORDINATOR_ID),
        ("abort", "coord-after-decision-sent-abort", COORDINATOR_ID),
    },
    "C2PC(PrC)": set(),
}


@pytest.mark.parametrize("outcome,point_name,victim", MATRIX_CELLS)
@pytest.mark.parametrize("policy", sorted(U2PC_EXPECTED_VIOLATIONS))
def test_u2pc_matrix(policy, outcome, point_name, victim):
    reports = run_matrix_case(policy, NAIVE_MIX, outcome, point_name, victim)
    cell = (outcome, point_name, victim)
    if cell in U2PC_EXPECTED_VIOLATIONS[policy]:
        assert reports.atomicity.violations, (
            f"{policy} {cell}: expected a Theorem 1 atomicity violation"
        )
        # The divergence is also visible to the other two checkers: the
        # mis-resolved participant answered an inquiry contra the
        # decision and ends in a state nobody will ever clean up.
        assert reports.safe_state.violations
        assert not reports.operational.holds
    else:
        assert reports.all_hold, f"{policy} {cell}: unexpected {reports}"


@pytest.mark.parametrize("outcome,point_name,victim", MATRIX_CELLS)
@pytest.mark.parametrize("policy", sorted(C2PC_EXPECTED_CLEAN))
def test_c2pc_matrix(policy, outcome, point_name, victim):
    reports = run_matrix_case(policy, NAIVE_MIX, outcome, point_name, victim)
    # C2PC never breaks atomicity — that is the whole point of the fix.
    assert not reports.atomicity.violations, f"{policy}: {reports}"
    assert not reports.safe_state.violations, f"{policy}: {reports}"
    cell = (outcome, point_name, victim)
    if cell in C2PC_EXPECTED_CLEAN[policy]:
        assert reports.all_hold, f"{policy} {cell}: unexpected {reports}"
    else:
        assert not reports.operational.holds, (
            f"{policy} {cell}: expected an unforgettable transaction"
        )
        assert COORDINATOR_ID in reports.operational.retained_entries, (
            f"{policy} {cell}: {reports.operational.retained_entries}"
        )


@pytest.mark.parametrize("outcome", ["commit", "abort"])
def test_double_crash_coordinator_then_participant(outcome):
    """Two overlapping outages: coordinator at decide, participant at
    enforcement."""
    mix = MIXES["PrA+PrC"]
    mdbs = build_mdbs(mix, coordinator="dynamic", seed=32)
    participants = sorted(mix.site_protocols())
    txn = GlobalTransaction(
        txn_id="tx",
        coordinator=COORDINATOR_ID,
        writes={site: [WriteOp(f"k@{site}", 1)] for site in participants},
        coordinator_abort=outcome == "abort",
    )
    mdbs.failures.crash_when(
        COORDINATOR_ID,
        lambda e: e.matches("protocol", "decide", site=COORDINATOR_ID),
        down_for=50.0,
    )
    mdbs.failures.crash_when(
        participants[0],
        lambda e: e.matches("db", outcome, site=participants[0], txn="tx"),
        down_for=70.0,
    )
    mdbs.submit(txn)
    mdbs.run(until=1000)
    mdbs.finalize()
    assert mdbs.check().all_hold


def test_repeated_coordinator_crashes():
    """The coordinator crashes twice during one transaction's life."""
    mix = MIXES["PrA+PrC"]
    mdbs = build_mdbs(mix, coordinator="dynamic", seed=33)
    participants = sorted(mix.site_protocols())
    txn = GlobalTransaction(
        txn_id="tx",
        coordinator=COORDINATOR_ID,
        writes={site: [WriteOp(f"k@{site}", 1)] for site in participants},
    )
    mdbs.failures.crash_when(
        COORDINATOR_ID,
        lambda e: e.matches("log", "append", site=COORDINATOR_ID, type="initiation"),
        down_for=30.0,
    )
    # Second crash mid-recovery, triggered by the recovered decide.
    mdbs.failures.crash_when(
        COORDINATOR_ID,
        lambda e: e.matches("protocol", "decide", site=COORDINATOR_ID, recovered=True),
        down_for=30.0,
    )
    mdbs.submit(txn)
    mdbs.run(until=1200)
    mdbs.finalize()
    assert mdbs.check().all_hold
