"""Shared machinery for the differential conformance suite.

The suite's claim: switching on the group-commit engine (log-force
coalescing and/or network message batching) changes *when* work
happens, never *what* happens. Concretely, for failure-free workloads
with private keys, a grouped run and its ungrouped twin must have:

* identical per-transaction outcomes — the coordinator's decision and
  every site's enforcement (Definition 1 operational correctness);
* identical per-transaction log-record *sets* appended at each site
  (batching may reorder interleavings across transactions and change
  LSNs, but never which records a transaction writes where);
* identical forget/garbage-collection behavior — the same protocol
  table deletions and the same log-GC sets — and an identical stable
  residue after ``finalize``;
* identical final committed store state, and the same verdicts from
  all three correctness checkers.

:func:`equivalence_summary` extracts exactly that observable footprint
as a canonical JSON string, so "equivalent" is literally byte equality.
Timing-dependent observables (message counts, inquiry retries, event
counts, LSNs) are deliberately excluded — those are the things batching
is *allowed* to change.

Preconditions for twin-hood, baked into :func:`conformance_spec`:
``hot_keys=0`` (no lock conflicts, so outcomes cannot depend on
scheduling) and batch windows small relative to the protocol timeouts.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.mdbs.system import MDBS
from repro.mdbs.topology import Topology
from repro.net.batching import NetBatchConfig
from repro.protocols.base import RELAXED_TIMEOUTS
from repro.storage.group_commit import GroupCommitConfig
from repro.workloads import generator
from repro.workloads.generator import COORDINATOR_ID, WorkloadSpec
from repro.workloads.mixes import ProtocolMix, homogeneous, three_way

#: The six protocols of the paper, as (participant mix, coordinator)
#: setups. PrN/PrA/PrC run homogeneous under their own fixed
#: coordinator; PrAny is the dynamic coordinator over the heterogeneous
#: mix; IYV and CL are the extension protocols under the dynamic
#: coordinator (the only one that integrates them).
PROTOCOL_SETUPS: dict[str, tuple[ProtocolMix, str]] = {
    "PrN": (homogeneous("PrN", 3), "PrN"),
    "PrA": (homogeneous("PrA", 3), "PrA"),
    "PrC": (homogeneous("PrC", 3), "PrC"),
    "PrAny": (three_way(3), "dynamic"),
    "IYV": (homogeneous("IYV", 3), "dynamic"),
    "CL": (homogeneous("CL", 3), "dynamic"),
}

#: Window settings the differential suite sweeps: max-delay-bound
#: coalescing, tight windows, and max-batch-bound closing.
BATCH_SETTINGS: dict[str, tuple[GroupCommitConfig, NetBatchConfig]] = {
    "wide-window": (
        GroupCommitConfig(max_delay=2.0, max_batch=64),
        NetBatchConfig(window=1.0, max_batch=64),
    ),
    "tight-window": (
        GroupCommitConfig(max_delay=0.25, max_batch=64),
        NetBatchConfig(window=0.25, max_batch=64),
    ),
    "batch-bound": (
        GroupCommitConfig(max_delay=5.0, max_batch=2),
        NetBatchConfig(window=2.0, max_batch=3),
    ),
}


#: Timeouts relaxed so no batch window can race a protocol timer: the
#: widest setting above adds at most ~5 time units per force and ~2 per
#: delivery, far below every margin here. Both twins run with the SAME
#: timeouts, so this changes the comparison's preconditions, not its
#: strength — a vote timeout firing in one mode but not the other would
#: be a (correct but) schedule-dependent outcome, exactly what the
#: private-keys/failure-free setup exists to exclude.
CONFORMANCE_TIMEOUTS = RELAXED_TIMEOUTS


def conformance_spec(
    seed: int,
    n_transactions: int = 24,
    abort_fraction: float = 0.3,
    inter_arrival: float = 2.0,
) -> WorkloadSpec:
    """A workload whose outcome is schedule-independent (private keys)."""
    return WorkloadSpec(
        n_transactions=n_transactions,
        abort_fraction=abort_fraction,
        participants_min=2,
        participants_max=3,
        inter_arrival=inter_arrival,
        hot_keys=0,
        seed=seed,
    )


def run_workload(
    mix: ProtocolMix,
    coordinator: str,
    spec: WorkloadSpec,
    group_commit: Optional[GroupCommitConfig] = None,
    net_batching: Optional[NetBatchConfig] = None,
    sharded: bool = False,
    replicated: int = 0,
) -> MDBS:
    """Run ``spec`` over the given topology to quiescence.

    With ``sharded=True`` there is no ``tm`` site: every mix site hosts
    a coordinator engine and each transaction is hash-placed on a
    non-participant (the workload stream itself is placement-invariant,
    so the sharded run is a byte-identical workload to the single one).
    With ``replicated=N`` the ``tm`` coordinator's decisions go through
    a Paxos quorum of ``N`` acceptor sites (the workload stream is
    again untouched — acceptors never participate).
    """
    mdbs, _ = generator.run_workload(
        mix,
        coordinator,
        spec,
        drain=500.0,
        timeouts=CONFORMANCE_TIMEOUTS,
        group_commit=group_commit,
        net_batching=net_batching,
        topology=Topology.from_flags(sharded, replicated),
    )
    return mdbs


def equivalence_summary(mdbs: MDBS) -> dict[str, Any]:
    """The batching-invariant observable footprint of a finished run."""
    trace = mdbs.sim.trace

    decisions: dict[str, str] = {}
    for event in trace.select(category="protocol", name="decide"):
        decisions[event.details["txn"]] = event.details["decision"]

    enforcements: dict[str, dict[str, str]] = {}
    for name in ("commit", "abort"):
        for event in trace.select(category="db", name=name):
            txn = event.details.get("txn")
            if txn:
                enforcements.setdefault(txn, {})[event.site] = name

    appended: dict[str, list[list[str]]] = {}
    for event in trace.select(category="log", name="append"):
        txn = event.details.get("txn")
        if not txn:
            continue
        if event.site == COORDINATOR_ID and event.details["type"] == "update":
            # CL redo records piggybacked on Yes votes are cached at the
            # coordinator only while it is still VOTING, so whether a
            # Yes vote racing a No vote gets its updates cached is
            # schedule-dependent even on the unbatched stack. The cache
            # is protocol-dead on abort (CL recovery only ships updates
            # of *committed* decisions), so it is excluded here; on
            # commit every vote necessarily preceded the decision and
            # the sets match anyway.
            continue
        appended.setdefault(txn, []).append([event.site, event.details["type"]])
    for records in appended.values():
        records.sort()

    forgotten: dict[str, list[list[str]]] = {}
    for event in trace.select(category="protocol", name="forget"):
        txn = event.details.get("txn")
        if txn:
            forgotten.setdefault(txn, []).append(
                [event.site, event.details.get("role", "")]
            )
    for entries in forgotten.values():
        entries.sort()

    # Which sites collected each txn's records (counts would differ by
    # the excluded coordinator-side vote cache; emptiness of the stable
    # residue below proves nothing escaped collection either way).
    collected: dict[str, list[str]] = {}
    for event in trace.select(category="log", name="gc"):
        txn = event.details.get("txn")
        if txn:
            collected.setdefault(txn, []).append(event.site)
    for entries in collected.values():
        entries.sort()

    stable_residue = {
        site_id: sorted(
            [record.type.value, record.txn_id]
            for record in site.log.stable_records()
        )
        for site_id, site in sorted(mdbs.sites.items())
    }
    stores = {
        site_id: dict(sorted(site.store.snapshot().items()))
        for site_id, site in sorted(mdbs.sites.items())
    }

    reports = mdbs.check()
    return {
        "decisions": dict(sorted(decisions.items())),
        "enforcements": {
            txn: dict(sorted(sites.items()))
            for txn, sites in sorted(enforcements.items())
        },
        "appended_records": dict(sorted(appended.items())),
        "forgotten": dict(sorted(forgotten.items())),
        "gc": dict(sorted(collected.items())),
        "stable_residue": stable_residue,
        "stores": stores,
        "checks": {
            "atomicity": reports.atomicity.holds,
            "safe_state": reports.safe_state.holds,
            "operational": reports.operational.holds,
        },
    }


def summary_bytes(mdbs: MDBS) -> bytes:
    """Canonical byte encoding of :func:`equivalence_summary`."""
    return json.dumps(
        equivalence_summary(mdbs), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def coordinator_normalized_summary(mdbs: MDBS) -> dict[str, Any]:
    """:func:`equivalence_summary` with coordinator placement erased.

    Sharding moves each transaction's coordinator-side work from the
    central ``tm`` site to the transaction's hash-placed owner — the
    *location* of that work is exactly what sharding is allowed to
    change, and nothing else. This view renames each transaction's
    coordinator site to the ``"@coord"`` token wherever the footprint
    is keyed per transaction, so a sharded run and its
    single-coordinator twin compare byte-equal. Participant-side
    entries are untouched (an owner never participates in its own
    transactions), so any leak of sharding into participant behavior
    still breaks equality.
    """
    summary = equivalence_summary(mdbs)
    owner = {txn.txn_id: txn.coordinator for txn in mdbs.submitted}

    def norm(txn: str, site: str) -> str:
        return "@coord" if site == owner.get(txn) else site

    summary["appended_records"] = {
        txn: sorted([norm(txn, site), record_type] for site, record_type in records)
        for txn, records in summary["appended_records"].items()
    }
    summary["forgotten"] = {
        txn: sorted([norm(txn, site), role] for site, role in entries)
        for txn, entries in summary["forgotten"].items()
    }
    summary["gc"] = {
        txn: sorted(norm(txn, site) for site in sites)
        for txn, sites in summary["gc"].items()
    }
    # Residue records carry their txn id, so they re-key per record; a
    # forgetful run leaves this empty in both modes either way.
    residue: dict[str, list[list[str]]] = {}
    for site, records in summary["stable_residue"].items():
        for record_type, txn in records:
            residue.setdefault(norm(txn, site), []).append([record_type, txn])
    summary["stable_residue"] = {
        site: sorted(records) for site, records in sorted(residue.items())
    }
    # The tm site exists only in single mode and never participates;
    # empty stores carry no observable state in either topology.
    summary["stores"] = {
        site: data for site, data in summary["stores"].items() if data
    }
    return summary


def normalized_summary_bytes(mdbs: MDBS) -> bytes:
    """Canonical byte encoding of :func:`coordinator_normalized_summary`."""
    return json.dumps(
        coordinator_normalized_summary(mdbs), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def replication_normalized_summary(mdbs: MDBS) -> dict[str, Any]:
    """:func:`equivalence_summary` with the replication machinery erased.

    Replicating the coordinator is allowed to change exactly two things
    about the observable footprint: (a) the acceptor sites exist and
    hold Paxos state, and (b) the *coordinator's own* log discipline
    changes — every transaction registers with the quorum by forcing an
    initiation record (so PrN/PrA lose their initiation-skipping
    optimization), and the quorum's acceptance stands in for decisions
    the plain coordinator would have forced locally. Everything the
    paper's presumptions actually govern — the decisions themselves,
    every participant's records, enforcement, forgetting, GC and final
    store state — must be untouched.

    This view therefore drops the ``acc*`` sites everywhere, drops the
    coordinator's initiation/end bookkeeping appends (keeping its
    decision records, which both modes write identically), and drops
    the coordinator from the GC site lists (the replicated coordinator
    collects registration records the plain one never wrote). Applied
    to BOTH twins, byte equality then says: replication changed the
    coordinator's durability mechanism and nothing else.
    """
    summary = equivalence_summary(mdbs)

    def dropped_site(site: str) -> bool:
        return site.startswith("acc")

    def dropped_append(site: str, record_type: str) -> bool:
        if dropped_site(site):
            return True
        return site == COORDINATOR_ID and record_type in ("initiation", "end")

    summary["appended_records"] = {
        txn: records
        for txn, records in (
            (
                txn,
                sorted(
                    [site, record_type]
                    for site, record_type in records
                    if not dropped_append(site, record_type)
                ),
            )
            for txn, records in summary["appended_records"].items()
        )
        if records
    }
    summary["forgotten"] = {
        txn: entries
        for txn, entries in (
            (
                txn,
                sorted(
                    [site, role]
                    for site, role in entries
                    if not dropped_site(site)
                ),
            )
            for txn, entries in summary["forgotten"].items()
        )
        if entries
    }
    summary["gc"] = {
        txn: sites
        for txn, sites in (
            (
                txn,
                sorted(
                    site
                    for site in sites
                    if not dropped_site(site) and site != COORDINATOR_ID
                ),
            )
            for txn, sites in summary["gc"].items()
        )
        if sites
    }
    summary["stable_residue"] = {
        site: records
        for site, records in summary["stable_residue"].items()
        if not dropped_site(site)
    }
    # Acceptor stores are always empty (acceptors never participate);
    # dropping all empty stores keeps the site sets comparable.
    summary["stores"] = {
        site: data for site, data in summary["stores"].items() if data
    }
    return summary


def replication_summary_bytes(mdbs: MDBS) -> bytes:
    """Canonical byte encoding of :func:`replication_normalized_summary`."""
    return json.dumps(
        replication_normalized_summary(mdbs), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
