"""The simulated multidatabase system.

:class:`MDBS` wires together the simulator, network, failure injector,
PCP directory and sites, executes global transactions end to end, and
exposes the paper's correctness checks over the finished run:

    >>> mdbs = MDBS(seed=42)
    >>> _ = mdbs.add_site("alpha", protocol="PrA")
    >>> _ = mdbs.add_site("beta", protocol="PrC")
    >>> _ = mdbs.add_site("tm", protocol="PrN", coordinator="dynamic")
    >>> from repro.mdbs.transaction import simple_transaction
    >>> mdbs.submit(simple_transaction("t1", "tm", ["alpha", "beta"]))
    >>> mdbs.run(until=200)
    >>> reports = mdbs.check()
    >>> reports.all_hold
    True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.correctness import (
    AtomicityReport,
    OperationalReport,
    SiteView,
    check_atomicity,
    check_operational_correctness,
)
from repro.core.history import History
from repro.core.safe_state import SafeStateReport, check_safe_state
from repro.errors import LockError, ProtocolError, WorkloadError
from repro.mdbs.site import Site
from repro.mdbs.transaction import GlobalTransaction
from repro.net.batching import BatchingNetwork, NetBatchConfig
from repro.net.failures import FailureInjector
from repro.net.network import LatencyModel, Network, ServiceTimeNetwork
from repro.protocols.base import TimeoutConfig, participant_spec
from repro.protocols.registry import selector_for
from repro.replication import ReplicationConfig
from repro.sim.kernel import Simulator
from repro.sim.tracing import TraceRecorder
from repro.storage.group_commit import GroupCommitConfig
from repro.storage.pcp import CommitProtocolDirectory


@dataclass
class RunReports:
    """Bundle of the three correctness reports for one run."""

    atomicity: AtomicityReport
    safe_state: SafeStateReport
    operational: OperationalReport

    @classmethod
    def of(cls, trace: TraceRecorder, sites: Iterable[SiteView]) -> "RunReports":
        """Run all three checkers over a run's trace and its sites
        (whatever runtime produced them)."""
        history = History.from_trace(trace)
        return cls(
            atomicity=check_atomicity(history, trace),
            safe_state=check_safe_state(history),
            operational=check_operational_correctness(sites, history, trace),
        )

    @property
    def all_hold(self) -> bool:
        return (
            self.atomicity.holds
            and self.safe_state.holds
            and self.operational.holds
        )

    def __str__(self) -> str:
        return "\n".join(
            [str(self.atomicity), str(self.safe_state), str(self.operational)]
        )


def begin_participant_work(site: Site, txn: GlobalTransaction) -> bool:
    """Run ``txn``'s local work (reads, writes, unilateral aborts) at
    one participant site.

    Returns True when a local failure *dooms* the transaction: an
    implicitly prepared (IYV) site has no No-vote channel, so the
    coordinator itself must be told to decide abort. Explicit voters
    handle their own failures by unilateral abort and return False.

    Extracted from :func:`start_transaction` so the multi-process
    cluster (``repro.rt.proc``) can run exactly this logic inside the
    participant's own process and ship only the doomed bit back.
    """
    site_id = site.site_id
    implicitly_prepared = participant_spec(site.protocol).implicitly_prepared
    site.participant.begin_work(txn.txn_id, txn.coordinator)
    try:
        for key in txn.reads.get(site_id, []):
            site.tm.read(txn.txn_id, key)
        for op in txn.writes.get(site_id, []):
            site.tm.write(txn.txn_id, op.key, op.value)
    except LockError:
        if implicitly_prepared:
            return True
        site.participant.unilateral_abort(txn.txn_id)
        return False
    if site_id in txn.force_no_vote_at:
        if implicitly_prepared:
            return True
        site.participant.unilateral_abort(txn.txn_id)
    return False


def start_transaction(
    sim, sites: dict[str, Site], txn: GlobalTransaction
) -> None:
    """Begin one global transaction: local work, then the commit protocol.

    Shared by the simulated :class:`MDBS` and the live cluster
    (``repro.rt.cluster``) so both runtimes submit work identically;
    ``sim`` is anything with ``record`` (a ``Simulator`` or a
    ``LiveRuntime``).
    """
    coordinator_site = sites[txn.coordinator]
    if not coordinator_site.is_up:
        sim.record(txn.coordinator, "system", "txn_not_started", txn=txn.txn_id)
        return
    # An execution failure at an implicitly prepared (IYV) site has
    # no No-vote channel — the coordinator itself must decide abort.
    doomed = False
    for site_id in txn.participants:
        site = sites[site_id]
        if not site.is_up:
            # Explicit voters: the missing vote times out into an
            # abort. Implicit voters cast no vote, so the failure to
            # even start the work must doom the transaction here.
            if participant_spec(site.protocol).implicitly_prepared:
                doomed = True
            continue
        doomed = begin_participant_work(site, txn) or doomed
    assert coordinator_site.coordinator is not None
    coordinator_site.coordinator.begin_commit(
        txn.txn_id,
        txn.participants,
        abort_override=txn.coordinator_abort or doomed,
    )


class MDBS:
    """A multidatabase system under simulation."""

    def __init__(
        self,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        timeouts: Optional[TimeoutConfig] = None,
        group_commit: Optional[GroupCommitConfig] = None,
        net_batching: Optional[NetBatchConfig] = None,
        service_time: Optional[float] = None,
        replication: Optional[ReplicationConfig] = None,
    ) -> None:
        """Args beyond the obvious:

        group_commit: when given, every site's log coalesces forces
            into batched group commits (see ``repro.storage.group_commit``).
        net_batching: when given, same-destination messages piggyback
            into batched delivery events (see ``repro.net.batching``).
            Both default to off, which preserves the paper's
            one-force-per-record / one-event-per-message accounting.
        service_time: when given, each receiver processes deliveries one
            at a time, each taking this many units
            (:class:`~repro.net.network.ServiceTimeNetwork`) — the knob
            that makes receiver-side queuing (a single coordinator's
            contention) visible in virtual time. Mutually exclusive
            with ``net_batching``.
        replication: when given, the sites it involves (leader +
            acceptors) are built with the Paxos Commit layer attached
            (see ``repro.replication``); the acceptor sites themselves
            must still be added via :meth:`add_site`.
        """
        if net_batching is not None and service_time is not None:
            raise WorkloadError(
                "net_batching and service_time are mutually exclusive"
            )
        self.sim = Simulator(seed)
        self.network: Network
        if net_batching is not None:
            self.network = BatchingNetwork(self.sim, latency, net_batching)
        elif service_time is not None:
            self.network = ServiceTimeNetwork(
                self.sim, latency, service_time=service_time
            )
        else:
            self.network = Network(self.sim, latency)
        self.pcp = CommitProtocolDirectory()
        self.failures = FailureInjector(self.sim)
        self.timeouts = timeouts if timeouts is not None else TimeoutConfig()
        self.group_commit = group_commit
        self.replication = replication
        self.sites: dict[str, Site] = {}
        self.submitted: list[GlobalTransaction] = []

    # -- topology ------------------------------------------------------------

    def add_site(
        self,
        site_id: str,
        protocol: str = "PrN",
        coordinator: Optional[str] = None,
        read_only_optimization: bool = True,
    ) -> Site:
        """Create a site.

        Args:
            protocol: the 2PC variant the site employs as a participant
                (``"PrN"``, ``"PrA"`` or ``"PrC"``).
            coordinator: if given, the site can coordinate transactions;
                ``"dynamic"`` selects §4.1's PrAny rule, any policy name
                (``"PrN"``, ``"PrAny"``, ``"U2PC(PrC)"``, ...) fixes it.
            read_only_optimization: whether this site's participant
                engine uses the READ vote for read-only subtransactions
                (on by default; off reproduces unoptimized 2PC).
        """
        if site_id in self.sites:
            raise WorkloadError(f"site {site_id!r} already exists")
        selector = selector_for(coordinator) if coordinator is not None else None
        site = Site(
            self.sim,
            self.network,
            self.pcp,
            site_id,
            protocol,
            selector,
            self.timeouts,
            read_only_optimization=read_only_optimization,
            group_commit=self.group_commit,
            replication=self.replication,
        )
        self.sites[site_id] = site
        self.pcp.register_site(site_id, protocol)
        if coordinator is not None:
            self.pcp.register_coordinator(site_id)
        self.failures.manage(site)
        return site

    def site(self, site_id: str) -> Site:
        return self.sites[site_id]

    # -- execution ------------------------------------------------------------

    def submit(self, txn: GlobalTransaction) -> None:
        """Schedule a global transaction for execution."""
        coordinator_site = self.sites.get(txn.coordinator)
        if coordinator_site is None:
            raise WorkloadError(f"unknown coordinator site {txn.coordinator!r}")
        if coordinator_site.coordinator is None:
            raise ProtocolError(
                f"site {txn.coordinator!r} cannot coordinate (no engine); "
                f"pass coordinator=... to add_site"
            )
        unknown = (set(txn.writes) | set(txn.reads)) - set(self.sites)
        if unknown:
            raise WorkloadError(
                f"transaction {txn.txn_id!r} references unknown sites "
                f"{sorted(unknown)}"
            )
        self.submitted.append(txn)
        self.sim.schedule_at(
            txn.submit_at,
            lambda: self._start(txn),
            label=f"start {txn.txn_id}",
        )

    def _start(self, txn: GlobalTransaction) -> None:
        start_transaction(self.sim, self.sites, txn)

    def enable_periodic_flush(self, interval: float, until: float) -> None:
        """Flush every site's log buffer periodically (background I/O).

        Disabled by default so the adversarial lazy-record-loss windows
        of Theorem 1 are reachable deterministically (DESIGN.md §5.3);
        the vulnerability-window ablation turns it on to show how the
        window narrows. Flushing stops at ``until`` so the simulation
        can still quiesce.
        """
        if interval <= 0:
            raise WorkloadError(f"flush interval must be positive: {interval!r}")

        def flush_all(at: float) -> None:
            for site in self.sites.values():
                if site.is_up:
                    site.log.flush()
            next_at = at + interval
            if next_at <= until:
                self.sim.schedule_at(
                    next_at, lambda: flush_all(next_at), label="periodic flush"
                )

        self.sim.schedule_at(
            interval, lambda: flush_all(interval), label="periodic flush"
        )

    def run(self, until: Optional[float] = None, max_steps: int = 10_000_000) -> None:
        """Advance the simulation (see :meth:`Simulator.run`)."""
        self.sim.run(until=until, max_steps=max_steps)

    def finalize(self, max_rounds: int = 5) -> None:
        """Flush logs and sweep GC until no further progress.

        Models "eventually": background flushes make lazy records
        stable, which licenses the pending garbage collection. Does not
        advance the simulation — protocols with undying retry timers
        (C2PC waiting for acks that never come) would otherwise spin.
        """
        for round_index in range(max_rounds):
            collected = sum(
                site.flush_and_gc() for site in self.sites.values() if site.is_up
            )
            # Let checkpoint/GC coordination messages (coordinator log)
            # flow — bounded, so undying retry timers (C2PC) can't spin.
            self.run(until=self.sim.now + 10.0)
            if collected == 0 and round_index > 0:
                break

    # -- checking ----------------------------------------------------------------

    def history(self) -> History:
        return History.from_trace(self.sim.trace)

    def check(self) -> RunReports:
        """Run all three checkers over the current run state."""
        return RunReports.of(self.sim.trace, self.sites.values())

    def __repr__(self) -> str:
        return (
            f"MDBS(sites={len(self.sites)}, txns={len(self.submitted)}, "
            f"now={self.sim.now})"
        )
