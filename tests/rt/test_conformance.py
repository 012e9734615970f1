"""Sim/live differential conformance: the headline claim of the live
runtime.

For each protocol of the paper, the same workload run (a) in the
deterministic simulator and (b) over real TCP sockets with the
*unmodified* engines must produce the identical observable footprint:
per-transaction decisions and enforcements, per-site stable-record
sets, forget/GC behavior, final stores and checker verdicts.
:func:`tests.conformance.harness.equivalence_summary` already excludes
everything a transport is allowed to change (message counts, LSNs,
interleavings), so equality here is the precise statement that the
asyncio runtime preserves protocol behavior.

The workload preconditions mirror the simulator conformance suites:
private keys (``hot_keys=0``), failure-free, relaxed timeouts so no
localhost hiccup can race a protocol timer.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.rt import cluster as live
from tests.conformance.harness import (
    CONFORMANCE_TIMEOUTS,
    PROTOCOL_SETUPS,
    conformance_spec,
    equivalence_summary,
    run_workload,
)

#: Pinned seed: the CI live-smoke job replays this exact comparison.
CONFORMANCE_SEED = 1303

#: Kept modest — each live case runs a real cluster for a few wall
#: seconds; the sim twin is instant.
N_TRANSACTIONS = 10

#: All six protocols of the paper. CL is the one mix whose GC sweeps
#: send messages (``announce_checkpoint``), so its cases are the ones
#: that take ``finalize()``'s network drain.
PROTOCOLS = ("PrN", "PrA", "PrC", "PrAny", "IYV", "CL")


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_live_run_matches_simulator(protocol, tmp_path):
    mix, coordinator = PROTOCOL_SETUPS[protocol]
    spec = conformance_spec(
        CONFORMANCE_SEED, n_transactions=N_TRANSACTIONS, inter_arrival=1.0
    )

    sim_summary = equivalence_summary(run_workload(mix, coordinator, spec))

    cluster = asyncio.run(
        live.run_workload(
            live.LiveCluster,
            mix,
            coordinator,
            spec,
            str(tmp_path),
            fsync=False,
            timeouts=CONFORMANCE_TIMEOUTS,
        )
    )
    live_summary = equivalence_summary(cluster)

    assert live_summary == sim_summary
    # Every submitted transaction terminated and nothing is retained.
    assert len(live_summary["decisions"]) == N_TRANSACTIONS
    assert live_summary["checks"] == {
        "atomicity": True,
        "safe_state": True,
        "operational": True,
    }


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_live_pipelined_run_matches_simulator(protocol, tmp_path):
    """The throughput path changes nothing observable: socket write
    batching (always on) and pipelined open-loop arrival must leave the
    equivalence footprint identical to the plain simulator run —
    batching moves bytes, not protocol behavior."""
    mix, coordinator = PROTOCOL_SETUPS[protocol]
    spec = conformance_spec(
        CONFORMANCE_SEED, n_transactions=N_TRANSACTIONS, inter_arrival=1.0
    )

    sim_summary = equivalence_summary(run_workload(mix, coordinator, spec))

    cluster = asyncio.run(
        live.run_workload(
            live.LiveCluster,
            mix,
            coordinator,
            spec,
            str(tmp_path),
            fsync=False,
            timeouts=CONFORMANCE_TIMEOUTS,
            pipeline=4,
        )
    )
    live_summary = equivalence_summary(cluster)

    assert live_summary == sim_summary
    assert len(live_summary["decisions"]) == N_TRANSACTIONS


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_live_binary_codec_run_matches_simulator(protocol, tmp_path):
    """The binary wire/WAL codec is observationally invisible: the same
    workload over struct-packed frames and a binary WAL must produce a
    footprint byte-equal to the simulator's — and therefore byte-equal
    to the json-codec live run, which the sibling test pins to the same
    sim summary. Only the bytes on the wire and on disk change."""
    mix, coordinator = PROTOCOL_SETUPS[protocol]
    spec = conformance_spec(
        CONFORMANCE_SEED, n_transactions=N_TRANSACTIONS, inter_arrival=1.0
    )

    sim_summary = equivalence_summary(run_workload(mix, coordinator, spec))

    cluster = asyncio.run(
        live.run_workload(
            live.LiveCluster,
            mix,
            coordinator,
            spec,
            str(tmp_path),
            fsync=False,
            timeouts=CONFORMANCE_TIMEOUTS,
            codec="binary",
        )
    )
    live_summary = equivalence_summary(cluster)

    assert live_summary == sim_summary
    assert len(live_summary["decisions"]) == N_TRANSACTIONS
    assert live_summary["checks"] == {
        "atomicity": True,
        "safe_state": True,
        "operational": True,
    }
    # The WALs really are binary: every non-empty site log leads with
    # the magic (the file keeps its wal.jsonl name; codec is content).
    from repro.storage.file_log import WAL_MAGIC

    wal_files = sorted(tmp_path.rglob("wal.jsonl"))
    assert wal_files, "expected WAL files under the data dir"
    for wal in wal_files:
        raw = wal.read_bytes()
        if raw:
            assert raw.startswith(WAL_MAGIC), wal
