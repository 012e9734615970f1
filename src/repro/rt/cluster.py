"""Live MDBS drivers: coordinator + participants over real sockets.

:class:`ClusterDriver` holds what every live driver does the same way:
the constructor arguments and their validation, the site layout (from
:class:`~repro.mdbs.topology.Topology`), decision tracking off the
trace, submit admission and latency stamping, the pipelined arrival
driver, and the read-side surface (``outcomes``, ``history``,
``message_counts``). A runtime subclasses it with how sites are hosted:
:class:`LiveCluster` (below) runs one :class:`~repro.rt.host.SiteHost`
per site in the caller's loop;
:class:`~repro.rt.proc.supervisor.ProcessCluster` runs one OS process
per site.

:class:`LiveCluster` is the live counterpart of
:class:`~repro.mdbs.system.MDBS` as
:func:`~repro.workloads.generator.build_mdbs` lays it out, all hosts
sharing one :class:`~repro.rt.runtime.LiveRuntime` (virtual clock +
trace) and one commit-protocol directory. The sim/live conformance
suite (``tests/rt/``) asserts that the two runtimes produce identical
observable footprints, so any divergence here is a bug by definition.

Duck-typing contract: a finished cluster satisfies the surface that
``tests/conformance/harness.equivalence_summary`` consumes — ``.sim``
(with ``.trace``), ``.sites`` and ``.check()``.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.core.history import History
from repro.db.recovery import LocalRecoveryReport
from repro.errors import ProtocolError, WorkloadError
from repro.mdbs.site import Site
from repro.mdbs.system import RunReports, start_transaction
from repro.mdbs.topology import Topology
from repro.mdbs.transaction import GlobalTransaction
from repro.protocols.base import RELAXED_TIMEOUTS, TimeoutConfig
from repro.rt.codec import WIRE_CODECS, wire_codec
from repro.rt.host import SiteConfig, SiteHost
from repro.rt.runtime import LiveRuntime
from repro.sim.tracing import TraceEvent
from repro.storage.pcp import CommitProtocolDirectory
from repro.workloads.generator import WorkloadSpec, generate_transactions
from repro.workloads.mixes import ProtocolMix

#: Safety margin appended to a workload's span when computing the run
#: deadline, matching the ``+ 500.0`` the conformance harness uses.
RUN_MARGIN = 500.0

#: Default live timeouts: generous against wall-clock jitter, the same
#: values the differential conformance suite uses, so sim and live runs
#: of a pinned workload are schedule-independent twins.
LIVE_TIMEOUTS = RELAXED_TIMEOUTS


class ClusterDriver:
    """What the live cluster drivers share; see the module docstring.

    Args:
        mix: participant protocol mix (same type the simulator uses).
        data_dir: root directory; each site gets ``data_dir/<site_id>/``
            for its WAL and store snapshot.
        coordinator: the policy every coordinator engine runs
            (``"dynamic"`` = PrAny, or a fixed policy name).
        seed: seeds the runtime's random streams (API parity; live
            nondeterminism comes from the network itself).
        time_scale: wall-clock seconds per virtual time unit.
        fsync: whether site logs/stores fsync (tests may disable).
        topology: where the coordinator engines live
            (:class:`~repro.mdbs.topology.Topology`): the ``tm`` site,
            every mix site, or ``tm`` over an acceptor group whose
            members log their Paxos state in their own WALs.
        codec: ``"json"`` (default) or ``"binary"`` — one encoding for
            the whole deployment: wire framing (:mod:`repro.rt.codec`)
            and WALs (:mod:`repro.storage.file_log`). A mixed-codec
            connection fails loudly on its first frame.
    """

    def __init__(
        self,
        mix: ProtocolMix,
        data_dir: Path | str,
        coordinator: str = "dynamic",
        seed: int = 0,
        timeouts: Optional[TimeoutConfig] = None,
        time_scale: float = 0.01,
        fsync: bool = True,
        read_only_optimization: bool = True,
        topology: Topology = Topology(),
        codec: str = "json",
    ) -> None:
        topology.validate(mix)
        if codec not in WIRE_CODECS:
            raise WorkloadError(
                f"unknown codec {codec!r}: expected one of {WIRE_CODECS}"
            )
        self.topology = topology
        self.codec = codec
        self.data_dir = Path(data_dir)
        #: What each site is made of, derived once; every runtime hosts
        #: its sites from these values.
        self._layout: dict[str, SiteConfig] = {
            spec.site_id: SiteConfig(
                spec.site_id,
                spec.protocol,
                str(self.data_dir / spec.site_id),
                coordinator=spec.coordinator,
                replication=spec.replication,
                timeouts=timeouts,
                read_only_optimization=read_only_optimization,
                fsync=fsync,
                codec=codec,
            )
            for spec in topology.sites(mix, coordinator)
        }
        self._seed = seed
        self._time_scale = time_scale
        self.sim: Optional[LiveRuntime] = None
        self.submitted: list[GlobalTransaction] = []
        # Event-driven completion state, installed by _start_runtime():
        # per-transaction decision events plus one "anything happened"
        # event that run()/finalize() wait on instead of polling.
        self._decision_events: dict[str, asyncio.Event] = {}
        self._terminated: set[str] = set()
        self._submitted_at: dict[str, float] = {}
        self._decided_at: dict[str, float] = {}
        self._activity: Optional[asyncio.Event] = None

    def _pcp_listing(self) -> tuple[dict[str, str], list[str]]:
        """What the commit-protocol directory registers: each site's
        protocol, and the sites that host a coordinator engine."""
        return (
            {site_id: site.protocol for site_id, site in self._layout.items()},
            [
                site_id
                for site_id, site in self._layout.items()
                if site.coordinator is not None
            ],
        )

    def _start_runtime(self, **runtime_options: Any) -> LiveRuntime:
        """Create the shared clock + trace and start tracking decisions
        (must run inside an event loop)."""
        if self.sim is not None:
            raise WorkloadError("cluster already started")
        self.sim = LiveRuntime(
            time_scale=self._time_scale, seed=self._seed, **runtime_options
        )
        self._activity = asyncio.Event()
        self.sim.trace.subscribe(self._on_trace_event)
        return self.sim

    # -- event-driven completion ---------------------------------------------

    def _on_trace_event(self, event: TraceEvent) -> None:
        """Trace subscriber: resolve per-transaction decision events and
        wake anything blocked on cluster activity. Runs synchronously
        with ``trace.record`` inside the event loop, so waiters observe
        decisions with no polling delay."""
        if event.category == "protocol" and event.name == "decide":
            txn = event.details.get("txn")
            if txn is not None:
                self._decided_at.setdefault(txn, event.time)
                self._terminate(txn)
        elif event.category == "system" and event.name == "txn_not_started":
            txn = event.details.get("txn")
            if txn is not None:
                self._terminate(txn)
        if self._activity is not None:
            self._activity.set()

    def _terminate(self, txn_id: str) -> None:
        self._terminated.add(txn_id)
        decision_event = self._decision_events.get(txn_id)
        if decision_event is not None:
            decision_event.set()

    async def _await_activity(self, max_wait: float) -> None:
        """Sleep until the next trace event, bounded by ``max_wait``
        wall seconds (the fallback heartbeat for conditions no trace
        event announces). Callers must clear ``_activity`` *before*
        checking their condition, so a wakeup can never be lost."""
        assert self._activity is not None
        try:
            await asyncio.wait_for(self._activity.wait(), timeout=max_wait)
        except asyncio.TimeoutError:
            pass

    async def _quiescent(self) -> bool:
        """All submitted work decided, delivered and forgotten."""
        raise NotImplementedError

    async def _run_until_quiescent(self, until: float, heartbeat: float) -> None:
        """The ``run()`` loop: return at quiescence or once virtual time
        reaches ``until``, waking on trace activity with ``heartbeat``
        wall seconds as the fallback poll for anything no event
        announces."""
        assert self.sim is not None and self._activity is not None
        while self.sim.now < until:
            # Clear-before-check: an event recorded after the check
            # re-sets the flag, so the wait below cannot miss it.
            self._activity.clear()
            if await self._quiescent():
                return
            remaining = self.sim.to_seconds(until - self.sim.now)
            await self._await_activity(min(remaining, heartbeat))

    async def _sweep(self) -> tuple[int, bool]:
        """One flush+GC round over the live sites: transactions
        collected, and whether messages are queued anywhere.

        The backlog is read in the same loop tick as the sweep, with no
        await in between, so every message the sweep sent (a CL
        participant's ``announce_checkpoint``, say) is still in a peer
        link's pending list or the local self-delivery count: a False
        reading means the sweep sent nothing that is still on its way.
        """
        raise NotImplementedError

    async def _network_busy(self) -> bool:
        """Messages still queued or pending local delivery anywhere."""
        raise NotImplementedError

    async def _finalize_rounds(self, max_rounds: int) -> None:
        """The ``finalize()`` loop, with ``MDBS.finalize``'s stop rule.

        Each round sweeps, then drains the network (bounded by 10
        virtual units) only when the sweep left messages queued: the
        simulator runs 10 units after every sweep, but a sweep that
        queued nothing has nothing in flight to let land, so the next
        sweep follows at once. The loop stops after the first sweep
        past round 0 that collects nothing, as ``MDBS.finalize`` does,
        and already after round 0 when that sweep neither collects nor
        queues anything: an already-quiet cluster finalizes in one
        sweep.
        """
        for round_index in range(max_rounds):
            collected, busy = await self._sweep()
            if busy:
                await self._drain_network(bound_units=10.0)
            if collected == 0 and (round_index > 0 or not busy):
                return

    async def _drain_network(self, bound_units: float) -> None:
        """Wait (event-driven, bounded) for in-flight messages to land.

        Called only after a sweep that queued messages. The backlog
        counts queued frames, not bytes mid-socket, so after it empties
        one extra virtual unit of grace lets a just-written frame reach
        its peer before we conclude quiet.
        """
        assert self.sim is not None and self._activity is not None
        deadline = self.sim.now + bound_units
        while self.sim.now < deadline:
            self._activity.clear()
            if not await self._network_busy():
                await asyncio.sleep(self.sim.to_seconds(1.0))
                if not await self._network_busy():
                    return
                continue
            remaining = self.sim.to_seconds(deadline - self.sim.now)
            await self._await_activity(min(remaining, 0.25))

    def _all_terminated(self) -> bool:
        """Every submitted transaction decided or refused."""
        terminated = self._terminated
        return all(txn.txn_id in terminated for txn in self.submitted)

    def decision_latencies(self) -> dict[str, float]:
        """Wall-clock seconds from submission to the decide trace event,
        for every decided transaction (the bench percentile source)."""
        return {
            txn_id: (decided - self._submitted_at[txn_id]) * self._time_scale
            for txn_id, decided in self._decided_at.items()
            if txn_id in self._submitted_at
        }

    async def wait_decided(
        self, txn_id: str, timeout: float = 60.0
    ) -> None:
        """Block until ``txn_id`` has a decision (or was never started)."""
        event = self._decision_events.get(txn_id)
        if event is None:
            raise WorkloadError(f"transaction {txn_id!r} was never submitted")
        await asyncio.wait_for(event.wait(), timeout)

    # -- submission ----------------------------------------------------------

    def _admit(
        self,
        txn: GlobalTransaction,
        immediate: bool,
        start: Callable[[], object],
    ) -> None:
        """Validate ``txn`` against the layout, stamp its latency clock
        and schedule ``start`` at its arrival instant (``immediate``:
        the next loop tick, ignoring ``txn.submit_at``)."""
        assert self.sim is not None, "cluster not started"
        coordinator = self._layout.get(txn.coordinator)
        if coordinator is None:
            raise WorkloadError(f"unknown coordinator site {txn.coordinator!r}")
        if coordinator.coordinator is None:
            raise ProtocolError(
                f"site {txn.coordinator!r} cannot coordinate (no engine)"
            )
        unknown = (set(txn.writes) | set(txn.reads)) - self._layout.keys()
        if unknown:
            raise WorkloadError(
                f"transaction {txn.txn_id!r} references unknown sites "
                f"{sorted(unknown)}"
            )
        self.submitted.append(txn)
        self._decision_events.setdefault(txn.txn_id, asyncio.Event())
        # Latency clocks start at the *intended* arrival instant, not
        # the call instant: an open-loop generator hands the whole
        # schedule over up front, and charging the wait-for-arrival to
        # the transaction would hide queueing delay behind submission
        # time (coordinated omission). ``immediate`` submissions arrive
        # now by definition.
        now = self.sim.now
        self._submitted_at[txn.txn_id] = (
            now if immediate else max(now, txn.submit_at)
        )
        self.sim.schedule(
            0.0 if immediate else max(0.0, txn.submit_at - now),
            start,
            label=f"start {txn.txn_id}",
        )

    def submit(self, txn: GlobalTransaction, immediate: bool = False) -> None:
        raise NotImplementedError

    async def run_pipelined(
        self,
        transactions: Iterable[GlobalTransaction],
        max_in_flight: int = 8,
        decision_timeout: float = 120.0,
    ) -> dict[str, float]:
        """Open-loop arrival driver with a concurrency cap.

        Submits each transaction the moment a slot frees instead of
        pacing by ``submit_at``: up to ``max_in_flight`` transactions
        stay outstanding, each slot released by that transaction's
        decision event. Throughput is then bounded by fsync windows and
        RTTs, not by arrival pacing or poll intervals.

        Returns per-transaction decision latency in wall-clock seconds
        (:meth:`decision_latencies` of the driven transactions).

        Raises:
            asyncio.TimeoutError: if any transaction's decision takes
                longer than ``decision_timeout`` wall seconds.
        """
        assert self.sim is not None, "cluster not started"
        if max_in_flight < 1:
            raise WorkloadError(
                f"max_in_flight must be >= 1: {max_in_flight!r}"
            )
        slots = asyncio.Semaphore(max_in_flight)
        driven: list[str] = []

        async def drive(txn: GlobalTransaction) -> None:
            try:
                self.submit(txn, immediate=True)
                await asyncio.wait_for(
                    self._decision_events[txn.txn_id].wait(),
                    timeout=decision_timeout,
                )
            finally:
                slots.release()

        waiters: list[asyncio.Task] = []
        try:
            for txn in transactions:
                await slots.acquire()
                driven.append(txn.txn_id)
                waiters.append(asyncio.create_task(drive(txn)))
            await asyncio.gather(*waiters)
        except BaseException:
            for waiter in waiters:
                waiter.cancel()
            await asyncio.gather(*waiters, return_exceptions=True)
            raise
        latencies = self.decision_latencies()
        return {txn_id: latencies[txn_id] for txn_id in driven if txn_id in latencies}

    # -- reading a run -------------------------------------------------------

    def outcomes(self) -> dict[str, str]:
        """Per-transaction decision (``commit``/``abort``) from the trace."""
        assert self.sim is not None
        return {
            event.details["txn"]: event.details["decision"]
            for event in self.sim.trace.select(
                category="protocol", name="decide"
            )
        }

    def history(self) -> History:
        assert self.sim is not None
        return History.from_trace(self.sim.trace)

    def _transport_counters(self) -> Iterator[tuple[int, int, int]]:
        """``(sent, delivered, dropped)`` of each site's transport."""
        raise NotImplementedError

    def message_counts(self) -> dict[str, int]:
        """Cluster-wide data-plane totals: ``sent`` counts every
        protocol frame any site handed its transport;
        ``delivered``/``dropped`` partition the receive side. Control
        frames between processes are not counted."""
        totals = {"sent": 0, "delivered": 0, "dropped": 0}
        for sent, delivered, dropped in self._transport_counters():
            totals["sent"] += sent
            totals["delivered"] += delivered
            totals["dropped"] += dropped
        return totals


class LiveCluster(ClusterDriver):
    """A set of live site hosts executing global transactions.

    Usage (inside a running event loop)::

        cluster = LiveCluster(mix, coordinator="dynamic", data_dir=tmp)
        await cluster.start()
        for txn in transactions:
            cluster.submit(txn)
        await cluster.run(until=deadline_units)
        await cluster.finalize()
        reports = cluster.check()
        await cluster.shutdown()

    Constructor arguments: see :class:`ClusterDriver`.
    """

    def __init__(
        self, mix: ProtocolMix, data_dir: Path | str, **options: Any
    ) -> None:
        super().__init__(mix, data_dir, **options)
        self.pcp = CommitProtocolDirectory.listing(*self._pcp_listing())
        self.directory: dict[str, tuple[str, int]] = {}
        self.hosts: dict[str, SiteHost] = {}

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bring up every site host (must run inside an event loop)."""
        sim = self._start_runtime()
        shared_codec = wire_codec(self.codec, intern=sorted(self._layout))
        for config in self._layout.values():
            self.hosts[config.site_id] = SiteHost(
                sim, self.directory, self.pcp, config, wire_codec=shared_codec
            )
        # Publish every address before any site boots: a site recovering
        # from an earlier run's WAL inquires about what it finds in doubt.
        for host in self.hosts.values():
            await host.transport.start()
        for host in self.hosts.values():
            await host.start()

    async def shutdown(self) -> None:
        """Orderly teardown: close every port and log file. All
        in-memory state (sites, traces) stays inspectable."""
        for host in self.hosts.values():
            await host.close()

    # -- the MDBS surface ----------------------------------------------------

    @property
    def sites(self) -> dict[str, Site]:
        """Live ``Site`` objects, keyed by id (``MDBS.sites`` shape)."""
        return {
            site_id: host.site
            for site_id, host in self.hosts.items()
            if host.site is not None
        }

    def submit(
        self, txn: GlobalTransaction, immediate: bool = False
    ) -> None:
        """Schedule a global transaction (mirrors ``MDBS.submit``).

        ``immediate`` ignores ``txn.submit_at`` and starts the
        transaction on the next loop tick — the open-loop arrival mode
        :meth:`run_pipelined` drives.
        """
        self._admit(
            txn,
            immediate,
            lambda: start_transaction(self.sim, self.sites, txn),
        )

    async def run(self, until: float, heartbeat: float = 0.25) -> None:
        """Advance wall-clock time until quiescence or ``until`` (virtual
        units). Unlike ``Simulator.run`` there is no event queue to
        drain, so quiescence is detected from the system state: every
        submitted transaction terminated and every protocol table entry
        forgotten."""
        await self._run_until_quiescent(until, heartbeat)

    def quiescent(self) -> bool:
        """All submitted work decided, delivered and forgotten."""
        assert self.sim is not None
        if self._backlog() or not self._all_terminated():
            return False
        return all(
            not site.retained_transactions()
            for site in self.sites.values()
            if site.is_up
        )

    async def _quiescent(self) -> bool:
        return self.quiescent()

    async def finalize(self, max_rounds: int = 5) -> None:
        """Flush and GC to a stable residue, stopping where
        ``MDBS.finalize`` stops: after the first sweep past the first
        that collects nothing. The network is drained only after a
        sweep that left messages queued (see :meth:`_finalize_rounds`)."""
        await self._finalize_rounds(max_rounds)

    async def _sweep(self) -> tuple[int, bool]:
        collected = sum(
            site.flush_and_gc() for site in self.sites.values() if site.is_up
        )
        return collected, await self._network_busy()

    def _backlog(self) -> int:
        return sum(host.transport.backlog for host in self.hosts.values())

    async def _network_busy(self) -> bool:
        return bool(self._backlog())

    # -- failures ------------------------------------------------------------

    async def kill(self, site_id: str) -> None:
        """Kill one site (process death: volatile state + port lost)."""
        await self.hosts[site_id].kill()

    async def restart(self, site_id: str) -> LocalRecoveryReport:
        """Restart a killed site from its on-disk log and snapshot."""
        return await self.hosts[site_id].restart()

    # -- checking ------------------------------------------------------------

    def _transport_counters(self) -> Iterator[tuple[int, int, int]]:
        for host in self.hosts.values():
            transport = host.transport
            yield (
                transport.sent_count,
                transport.delivered_count,
                transport.dropped_count,
            )

    def check(self) -> RunReports:
        """The three correctness checkers (mirrors ``MDBS.check``)."""
        assert self.sim is not None
        return RunReports.of(self.sim.trace, self.sites.values())

    def __repr__(self) -> str:
        now = f"{self.sim.now:.1f}" if self.sim is not None else "unstarted"
        return (
            f"LiveCluster(sites={len(self.hosts)}, "
            f"txns={len(self.submitted)}, now={now})"
        )


async def run_workload(
    cluster_cls: type[ClusterDriver],
    mix: ProtocolMix,
    coordinator: str,
    spec: WorkloadSpec,
    data_dir: Path | str,
    pipeline: Optional[int] = None,
    timeouts: Optional[TimeoutConfig] = None,
    **cluster_options: Any,
) -> Any:
    """Run a generated workload over a ``cluster_cls`` cluster
    (:class:`LiveCluster` or
    :class:`~repro.rt.proc.supervisor.ProcessCluster`) to quiescence.

    The live twin of ``tests/conformance/harness.run_workload``: same
    topology, same transaction stream, same finalize — the returned
    (shut-down) cluster is ready for ``equivalence_summary``-style
    inspection. ``pipeline`` (a concurrency cap) switches the arrival
    driver to :meth:`ClusterDriver.run_pipelined` instead of
    ``submit_at`` pacing; ``timeouts`` defaults to
    :data:`LIVE_TIMEOUTS`; ``cluster_options`` (``topology``,
    ``codec``, ``kills``, ...) go to the cluster's constructor.
    """
    cluster = cluster_cls(
        mix,
        data_dir,
        coordinator=coordinator,
        seed=spec.seed,
        timeouts=timeouts if timeouts is not None else LIVE_TIMEOUTS,
        **cluster_options,
    )
    await cluster.start()
    try:
        transactions = generate_transactions(
            spec,
            sorted(mix.site_protocols()),
            placement=cluster.topology.placement,
        )
        if pipeline is not None:
            await cluster.run_pipelined(transactions, max_in_flight=pipeline)
            assert cluster.sim is not None
            await cluster.run(until=cluster.sim.now + RUN_MARGIN)
        else:
            for txn in transactions:
                cluster.submit(txn)
            await cluster.run(
                until=spec.inter_arrival * spec.n_transactions + RUN_MARGIN
            )
        await cluster.finalize()
    finally:
        await cluster.shutdown()
    return cluster
