"""Process-per-site supervisor: lifecycle, liveness, conformance.

The crash matrix (``test_process_recovery.py``) exercises *protocol*
behavior under SIGKILL; this module covers the supervisor machinery
itself — spawn/teardown hygiene, heartbeat detection of a wedged (not
dead) child, no task per control connection — plus the headline conformance claim
for the multi-process deployment: a pinned-seed failure-free workload
over real OS processes produces the byte-identical equivalence
footprint of the deterministic simulator.
"""

from __future__ import annotations

import asyncio
import errno
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import SiteDownError
from repro.rt import cluster as live
from repro.rt.proc import KillSpec, ProcessCluster
from repro.rt.proc.control import ProcessControlError
from repro.rt.proc import supervisor
from repro.rt.proc.supervisor import HELLO_TIMEOUT
from tests.conformance.harness import (
    CONFORMANCE_TIMEOUTS,
    PROTOCOL_SETUPS,
    conformance_spec,
    equivalence_summary,
    run_workload,
)

SRC = Path(__file__).resolve().parents[2] / "src"

#: Pinned seed: the CI multiproc-smoke job replays this comparison.
CONFORMANCE_SEED = 1303

#: Each live case boots a real 4-process cluster; keep the workload
#: small enough that a full case stays in single-digit wall seconds.
N_TRANSACTIONS = 6

#: Wall seconds per virtual unit for the lifecycle tests (they drive
#: few transactions, so a fast clock keeps them snappy).
TIME_SCALE = 0.005


def _cluster(tmp_path, **kw):
    mix, coordinator = PROTOCOL_SETUPS["PrAny"]
    kw.setdefault("coordinator", coordinator)
    kw.setdefault("seed", CONFORMANCE_SEED)
    kw.setdefault("timeouts", CONFORMANCE_TIMEOUTS)
    kw.setdefault("time_scale", TIME_SCALE)
    kw.setdefault("fsync", False)
    return ProcessCluster(mix, str(tmp_path), **kw)


@pytest.mark.parametrize("protocol", ("PrN", "PrAny", "CL"))
def test_multiprocess_run_matches_simulator(protocol, tmp_path):
    """The conformance claim across a real process boundary: same
    workload, same seed, one OS process per site, fsync on — identical
    equivalence footprint to the simulator."""
    mix, coordinator = PROTOCOL_SETUPS[protocol]
    spec = conformance_spec(
        CONFORMANCE_SEED, n_transactions=N_TRANSACTIONS, inter_arrival=1.0
    )

    sim_summary = equivalence_summary(run_workload(mix, coordinator, spec))

    cluster = asyncio.run(
        live.run_workload(
            ProcessCluster,
            mix,
            coordinator,
            spec,
            str(tmp_path),
            time_scale=TIME_SCALE,
            fsync=True,
            timeouts=CONFORMANCE_TIMEOUTS,
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


def test_multiprocess_pipelined_matches_simulator(tmp_path):
    """The throughput path (open-loop pipelining over fsync'd WALs)
    is footprint-invariant across processes too."""
    mix, coordinator = PROTOCOL_SETUPS["PrAny"]
    spec = conformance_spec(
        CONFORMANCE_SEED, n_transactions=N_TRANSACTIONS, inter_arrival=1.0
    )

    sim_summary = equivalence_summary(run_workload(mix, coordinator, spec))

    cluster = asyncio.run(
        live.run_workload(
            ProcessCluster,
            mix,
            coordinator,
            spec,
            str(tmp_path),
            time_scale=TIME_SCALE,
            fsync=True,
            timeouts=CONFORMANCE_TIMEOUTS,
            pipeline=4,
        )
    )
    live_summary = equivalence_summary(cluster)

    assert live_summary == sim_summary
    assert len(live_summary["decisions"]) == N_TRANSACTIONS


def test_spawn_and_clean_teardown(tmp_path):
    """Every site becomes its own OS process (distinct pids, pidfiles
    on disk), and shutdown reaps them all without SIGKILL races."""

    async def go():
        cluster = _cluster(tmp_path)
        await cluster.start()
        handles = cluster._children
        pids = {h.pid for h in handles.values()}
        assert len(pids) == len(handles)  # one real process per site
        assert os.getpid() not in pids
        for site_id, handle in handles.items():
            pidfile = tmp_path / site_id / "site.pid"
            assert pidfile.exists()
            assert int(pidfile.read_text()) == handle.pid
            assert handle.alive
        await cluster.shutdown()
        for site_id, handle in handles.items():
            # The shutdown op ran to completion (transport stopped, WAL
            # closed): exit 0, not the SIGKILL escalation, and nothing
            # the child's teardown had to complain about.
            assert handle.popen.poll() == 0
            assert "Traceback" not in (tmp_path / site_id / "child.log").read_text()
        # No control-connection handler is left for asyncio.run() to
        # cancel (each would log a CancelledError traceback).
        return asyncio.all_tasks() - {asyncio.current_task()}

    assert asyncio.run(go()) == set()


def test_a_started_cluster_runs_no_task_per_control_connection(tmp_path):
    """Each control connection is a protocol the event loop calls, not
    a task: the only tasks a started cluster adds are the heartbeat
    monitors, one per child."""

    async def go():
        cluster = _cluster(tmp_path)
        await cluster.start()
        try:
            tasks = asyncio.all_tasks() - {asyncio.current_task()}
            assert len(cluster._children) == len(cluster._monitors) > 0
            assert tasks == set(cluster._monitors)
        finally:
            await cluster.shutdown()
        return True

    assert asyncio.run(go())


def test_workload_teardown_leaves_no_traceback_on_stderr(tmp_path):
    # Several clusters in one interpreter, the way `repro bench --suite
    # live` runs its rows: that is where shutdown() used to return with
    # handlers still blocked on their control streams.
    script = (
        "import asyncio, sys\n"
        "from repro.mdbs.topology import Topology\n"
        "from repro.rt.cluster import run_workload\n"
        "from repro.rt.proc import ProcessCluster\n"
        "from repro.workloads.generator import WorkloadSpec\n"
        "from repro.workloads.mixes import three_way\n"
        "spec = WorkloadSpec(n_transactions=4, inter_arrival=1.0, seed=7)\n"
        "for rep in range(3):\n"
        "    cluster = asyncio.run(run_workload(ProcessCluster, three_way(3), "
        "'dynamic', spec, f'{sys.argv[1]}/{rep}', pipeline=4, "
        "topology=Topology.replicated(3)))\n"
        "    print(len(cluster.outcomes()))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["4", "4", "4"]
    assert "Traceback" not in result.stderr


def test_kill_requires_running_child_and_restart_requires_dead(tmp_path):
    async def go():
        cluster = _cluster(tmp_path)
        await cluster.start()
        try:
            victim = sorted(cluster._children)[0]
            with pytest.raises(SiteDownError):
                await cluster.restart(victim)  # still running
            await cluster.kill(victim)
            with pytest.raises(SiteDownError):
                await cluster.kill(victim)  # already dead
            report = await cluster.restart(victim)
            assert report is not None
            assert cluster._children[victim].alive
        finally:
            await cluster.shutdown()
        return True

    assert asyncio.run(go())


def test_a_killed_sites_data_port_stays_reserved(tmp_path):
    """While a site process is dead no other socket can bind its data
    port, with or without ``SO_REUSEADDR``; a connect is refused, as
    with nothing bound; and the restarted site binds it again."""

    async def go():
        cluster = _cluster(tmp_path)
        await cluster.start()
        try:
            victim = sorted(cluster._children)[0]
            _, port = cluster._children[victim].config.directory[victim]
            await cluster.kill(victim)
            for reuse_address in (0, 1):
                with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
                    sock.setsockopt(
                        socket.SOL_SOCKET, socket.SO_REUSEADDR, reuse_address
                    )
                    with pytest.raises(OSError) as failure:
                        sock.bind(("127.0.0.1", port))
                    assert failure.value.errno == errno.EADDRINUSE
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(("127.0.0.1", port), timeout=5.0).close()
            await cluster.restart(victim)
            socket.create_connection(("127.0.0.1", port), timeout=5.0).close()
        finally:
            await cluster.shutdown()
        return True

    assert asyncio.run(go())


def test_heartbeat_kills_wedged_child(tmp_path, monkeypatch):
    """Liveness is more than process-exists: a SIGSTOPped child holds
    its control socket open but answers nothing. The heartbeat monitor
    must notice the silence and put it out of its misery."""
    monkeypatch.setattr(supervisor, "HEARTBEAT_INTERVAL", 0.2)
    monkeypatch.setattr(supervisor, "HEARTBEAT_MISSES", 2)

    async def go():
        cluster = _cluster(tmp_path)
        await cluster.start()
        try:
            victim = sorted(cluster._children)[0]
            handle = cluster._children[victim]
            os.kill(handle.pid, signal.SIGSTOP)
            try:
                await cluster.wait_for_crash(victim, timeout=15.0)
            finally:
                # SIGKILL on a stopped process only takes effect once
                # it is continued; make sure it can die either way.
                try:
                    os.kill(handle.pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            assert not handle.alive
        finally:
            await cluster.shutdown()
        return True

    assert asyncio.run(go())


def test_a_child_that_dies_at_boot_fails_fast_with_its_log(tmp_path):
    """A child that exits before reporting in fails ``start()`` as soon
    as it is gone, naming the site, its exit code and the end of its
    ``child.log`` — not after ``HELLO_TIMEOUT``."""
    victim = sorted(PROTOCOL_SETUPS["PrAny"][0].site_protocols())[0]

    async def go():
        # An unknown crash point: the child raises while booting.
        cluster = _cluster(tmp_path, kills={victim: KillSpec("no-such-point", "t1")})
        started = time.monotonic()
        try:
            with pytest.raises(ProcessControlError) as failure:
                await cluster.start()
            elapsed = time.monotonic() - started
        finally:
            await cluster.shutdown()
        return elapsed, str(failure.value)

    elapsed, message = asyncio.run(go())
    assert elapsed < HELLO_TIMEOUT / 3
    assert f"site process {victim!r} exited with code 1" in message
    assert "KeyError: 'no-such-point'" in message
