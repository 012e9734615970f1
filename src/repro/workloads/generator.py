"""Topology building and transaction-stream generation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import WorkloadError
from repro.mdbs.placement import PlacementPolicy
from repro.mdbs.system import MDBS
from repro.mdbs.topology import COORDINATOR_ID, Topology
from repro.mdbs.transaction import GlobalTransaction, WriteOp
from repro.net.batching import NetBatchConfig
from repro.net.network import LatencyModel
from repro.protocols.base import TimeoutConfig
from repro.sim.rng import RandomStreams
from repro.storage.group_commit import GroupCommitConfig
from repro.workloads.mixes import ProtocolMix


def build_mdbs(
    mix: ProtocolMix,
    coordinator: str = "dynamic",
    seed: int = 0,
    latency: Optional[LatencyModel] = None,
    timeouts: Optional[TimeoutConfig] = None,
    read_only_optimization: bool = True,
    group_commit: Optional[GroupCommitConfig] = None,
    net_batching: Optional[NetBatchConfig] = None,
    topology: Topology = Topology(),
    service_time: Optional[float] = None,
) -> MDBS:
    """Build an MDBS with one participant site per mix entry.

    ``topology`` (:class:`~repro.mdbs.topology.Topology`) says where the
    coordinator engines running ``coordinator``'s policy live: at the
    ``"tm"`` site (the default), at every mix site, or at ``tm``
    replicated over an acceptor group. Under a sharded topology the
    workload generator places each transaction
    (``generate_transactions(placement=topology.placement)``).
    ``group_commit`` / ``net_batching`` switch on the group-commit
    engine (off by default).
    """
    topology.validate(mix)
    mdbs = MDBS(
        seed=seed,
        latency=latency,
        timeouts=timeouts,
        group_commit=group_commit,
        net_batching=net_batching,
        service_time=service_time,
        replication=topology.replication,
    )
    for site in topology.sites(mix, coordinator):
        mdbs.add_site(
            site.site_id,
            protocol=site.protocol,
            coordinator=site.coordinator,
            read_only_optimization=read_only_optimization,
        )
    return mdbs


@dataclass(frozen=True)
class WorkloadSpec:
    """A stream of generated transactions.

    Attributes:
        n_transactions: how many transactions to generate.
        abort_fraction: probability that a transaction is forced to
            abort via a No-voting participant.
        participants_min/max: each transaction touches a uniform-random
            number of participants in this range (bounded by the site
            pool size).
        inter_arrival: mean time between submissions (exponential).
        hot_keys: number of shared keys contended across transactions;
            0 gives every transaction private keys (no lock conflicts).
        seed: workload randomness, independent of the simulator seed.
    """

    n_transactions: int = 20
    abort_fraction: float = 0.25
    participants_min: int = 2
    participants_max: int = 3
    inter_arrival: float = 25.0
    hot_keys: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_transactions < 0:
            raise WorkloadError("n_transactions must be non-negative")
        if not 0.0 <= self.abort_fraction <= 1.0:
            raise WorkloadError("abort_fraction must be within [0, 1]")
        if self.participants_min < 1 or self.participants_max < self.participants_min:
            raise WorkloadError(
                f"invalid participant range "
                f"[{self.participants_min}, {self.participants_max}]"
            )


def generate_transactions(
    spec: WorkloadSpec,
    sites: list[str],
    coordinator: str = COORDINATOR_ID,
    placement: Optional[PlacementPolicy] = None,
) -> list[GlobalTransaction]:
    """Generate the transaction stream described by ``spec``.

    Deterministic in ``spec.seed``: the same spec over the same site
    list always yields the same stream.

    With ``placement`` given (sharded coordinators), each transaction's
    coordinator is chosen by the policy from the sites that are *not*
    its participants, instead of the fixed ``coordinator`` id. The RNG
    stream is untouched by placement — participants, keys, arrival
    times and abort decisions are byte-identical to the
    single-coordinator stream for the same spec and site list, which is
    what makes sharded-vs-single runs differential twins.
    """
    if not sites:
        raise WorkloadError("need at least one participant site")
    if placement is not None and spec.participants_max >= len(sites):
        raise WorkloadError(
            f"sharded placement needs a non-participant coordinator for "
            f"every transaction: participants_max={spec.participants_max} "
            f"must be < {len(sites)} sites"
        )
    rng = RandomStreams(spec.seed).stream("workload")
    transactions: list[GlobalTransaction] = []
    now = 0.0
    for index in range(spec.n_transactions):
        now += rng.expovariate(1.0 / spec.inter_arrival)
        count = rng.randint(
            min(spec.participants_min, len(sites)),
            min(spec.participants_max, len(sites)),
        )
        chosen = sorted(rng.sample(sites, count))
        txn_id = f"t{index:04d}"
        writes: dict[str, list[WriteOp]] = {}
        for site_id in chosen:
            if spec.hot_keys > 0:
                key = f"hot{rng.randrange(spec.hot_keys)}"
            else:
                key = f"{txn_id}@{site_id}"
            writes[site_id] = [WriteOp(key=key, value=txn_id)]
        abort = rng.random() < spec.abort_fraction
        if placement is not None:
            # Placement happens *after* the RNG draws so the stream
            # stays identical to the single-coordinator twin's.
            eligible = [site for site in sites if site not in chosen]
            owner = placement.choose(txn_id, eligible)
        else:
            owner = coordinator
        transactions.append(
            GlobalTransaction(
                txn_id=txn_id,
                coordinator=owner,
                writes=writes,
                submit_at=now,
                force_no_vote_at=frozenset({chosen[0]}) if abort else frozenset(),
            )
        )
    return transactions


def run_workload(
    mix: ProtocolMix,
    coordinator: str,
    spec: WorkloadSpec,
    drain: float,
    timeouts: Optional[TimeoutConfig] = None,
    prepare: Optional[Callable[[MDBS, list[GlobalTransaction]], None]] = None,
    topology: Topology = Topology(),
    **build_options: Any,
) -> tuple[MDBS, list[GlobalTransaction]]:
    """Run a generated workload over a simulated MDBS to quiescence.

    The simulated twin of :func:`repro.rt.cluster.run_workload`: build
    (:func:`build_mdbs`, seeded by ``spec.seed``; ``build_options`` are
    its ``group_commit`` / ``net_batching`` / ``service_time`` /
    ``latency`` arguments), generate with ``topology``'s placement,
    submit everything, run for ``drain`` virtual units past the nominal
    arrival span (``inter_arrival * n_transactions``), then
    ``finalize``. ``prepare(mdbs, transactions)`` runs after the
    submissions and before the clock starts — the place to schedule
    crashes. Returns the finished MDBS and the transactions it ran.
    """
    mdbs = build_mdbs(
        mix,
        coordinator=coordinator,
        seed=spec.seed,
        timeouts=timeouts,
        topology=topology,
        **build_options,
    )
    transactions = generate_transactions(
        spec, sorted(mix.site_protocols()), placement=topology.placement
    )
    for txn in transactions:
        mdbs.submit(txn)
    if prepare is not None:
        prepare(mdbs, transactions)
    mdbs.run(until=spec.inter_arrival * spec.n_transactions + drain)
    mdbs.finalize()
    return mdbs, transactions
