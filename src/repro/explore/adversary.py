"""Adversary composition: actions, scenario specs and their generator.

A :class:`ScenarioSpec` is a complete, JSON-serializable description of
one fuzzed run: the topology (protocol mix + coordinator policy), the
workload knobs, the latency model and an ordered tuple of adversary
*actions*. Specs are the unit of everything downstream — running,
shrinking, exporting, replaying — so they carry no live objects, only
plain data.

The :class:`AdversaryGenerator` samples specs deterministically from a
seed: ``generate(seed)`` called twice (in any process) yields equal
specs, which is what makes parallel sweeps and later replays exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from typing import Any, Optional

from repro.errors import WorkloadError
from repro.mdbs.topology import COORDINATOR_ID, Topology
from repro.mdbs.transaction import GlobalTransaction
from repro.workloads.failure_schedules import (
    acceptor_crash_points,
    coordinator_crash_points,
    participant_crash_points,
)
from repro.workloads.generator import WorkloadSpec, generate_transactions
from repro.workloads.mixes import MIXES

#: Message kinds a targeted omission may filter on (``None`` = any).
_DROPPABLE_KINDS: tuple[Optional[str], ...] = (
    None,
    "PREPARE",
    "VOTE_YES",
    "COMMIT",
    "ABORT",
    "ACK",
    "INQUIRY",
)

_CRASH_POINTS = {
    point.name: point
    for point in (
        coordinator_crash_points()
        + participant_crash_points()
        + acceptor_crash_points()
    )
}


def participant_bounds(n_sites: int, topology: Topology) -> tuple[int, int]:
    """Participant count range for a scenario workload over ``n_sites``
    mix sites (see :meth:`Topology.participant_pool`)."""
    upper = topology.participant_pool(n_sites)
    return min(2, upper), upper


# -- actions -----------------------------------------------------------------


@dataclass(frozen=True)
class CrashAt:
    """Crash ``site`` at absolute virtual time ``at``; recover later."""

    site: str
    at: float
    down_for: float


@dataclass(frozen=True)
class CrashWhen:
    """Crash ``site`` when the named catalogue crash point fires for ``txn``."""

    site: str
    point: str
    txn: str
    down_for: float
    delay: float = 0.0


@dataclass(frozen=True)
class PartitionWindow:
    """Block the ``a``/``b`` link during ``[at, heal_at)``."""

    a: str
    b: str
    at: float
    heal_at: float


@dataclass(frozen=True)
class DropNext:
    """At time ``at``, arm a budget dropping the next ``count`` messages
    from ``sender`` to ``receiver`` (optionally only of kind ``kind``)."""

    sender: str
    receiver: str
    at: float
    count: int = 1
    kind: Optional[str] = None


@dataclass(frozen=True)
class LossWindow:
    """Independent per-message loss with ``probability`` during
    ``[at, until)``."""

    probability: float
    at: float
    until: float


AdversaryAction = CrashAt | CrashWhen | PartitionWindow | DropNext | LossWindow

_ACTION_TYPES: dict[str, type] = {
    "crash_at": CrashAt,
    "crash_when": CrashWhen,
    "partition": PartitionWindow,
    "drop_next": DropNext,
    "loss": LossWindow,
}
_TYPE_NAMES = {cls: name for name, cls in _ACTION_TYPES.items()}


def action_to_dict(action: AdversaryAction) -> dict[str, Any]:
    """Serialize one action to a plain JSON-safe dict."""
    payload: dict[str, Any] = {"type": _TYPE_NAMES[type(action)]}
    for spec_field in fields(action):
        payload[spec_field.name] = getattr(action, spec_field.name)
    return payload


def action_from_dict(payload: dict[str, Any]) -> AdversaryAction:
    """Inverse of :func:`action_to_dict`."""
    data = dict(payload)
    type_name = data.pop("type", None)
    cls = _ACTION_TYPES.get(type_name)
    if cls is None:
        raise WorkloadError(f"unknown adversary action type {type_name!r}")
    return cls(**data)


# -- scenario specs ----------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one fuzzed run exactly.

    Attributes:
        seed: master seed for the simulator (and hence all random
            streams: latency jitter, probabilistic loss) *and* the
            workload stream.
        mix: name of a :data:`repro.workloads.mixes.MIXES` entry.
        coordinator: coordinator policy (``"dynamic"`` for PrAny
            selection, or a fixed policy such as ``"U2PC(PrN)"``).
        n_transactions / abort_fraction / inter_arrival / hot_keys:
            workload-generator knobs (see
            :class:`repro.workloads.generator.WorkloadSpec`).
        latency_low / latency_high: per-message latency range; equal
            values select a constant-latency network.
        horizon: virtual time up to which the adversary is active.
        settle: failure-free virtual time granted (in repair rounds)
            after ``horizon`` so "eventually" can happen before the
            oracle judges the run.
        group_commit: run on the group-commit engine (log-force
            coalescing + message batching, default configs) instead of
            the plain synchronous stack.
        topology: where the coordinator engines live
            (:class:`~repro.mdbs.topology.Topology`); serialised as the
            ``sharded`` / ``replicated`` keys.
        actions: the adversary schedule.
    """

    seed: int
    mix: str
    coordinator: str
    n_transactions: int = 2
    abort_fraction: float = 0.25
    inter_arrival: float = 25.0
    hot_keys: int = 0
    latency_low: float = 1.0
    latency_high: float = 1.0
    horizon: float = 400.0
    settle: float = 200.0
    group_commit: bool = False
    topology: Topology = Topology()
    actions: tuple[AdversaryAction, ...] = ()

    def __post_init__(self) -> None:
        if self.mix not in MIXES:
            raise WorkloadError(f"unknown mix {self.mix!r}")
        if self.latency_low < 0 or self.latency_high < self.latency_low:
            raise WorkloadError(
                f"invalid latency range "
                f"[{self.latency_low!r}, {self.latency_high!r}]"
            )
        for action in self.actions:
            if isinstance(action, CrashWhen) and action.point not in _CRASH_POINTS:
                raise WorkloadError(f"unknown crash point {action.point!r}")

    @property
    def txn_ids(self) -> tuple[str, ...]:
        """The workload's transaction ids (fixed by the generator)."""
        return tuple(f"t{i:04d}" for i in range(self.n_transactions))

    def transactions(self) -> list[GlobalTransaction]:
        """The scenario's workload stream (a pure function of the spec)."""
        mix = MIXES[self.mix]
        pmin, pmax = participant_bounds(len(mix), self.topology)
        workload = WorkloadSpec(
            n_transactions=self.n_transactions,
            abort_fraction=self.abort_fraction,
            participants_min=pmin,
            participants_max=pmax,
            inter_arrival=self.inter_arrival,
            hot_keys=self.hot_keys,
            seed=self.seed,
        )
        return generate_transactions(
            workload,
            sorted(mix.site_protocols()),
            placement=self.topology.placement,
        )

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "seed": self.seed,
            "mix": self.mix,
            "coordinator": self.coordinator,
            "n_transactions": self.n_transactions,
            "abort_fraction": self.abort_fraction,
            "inter_arrival": self.inter_arrival,
            "hot_keys": self.hot_keys,
            "latency_low": self.latency_low,
            "latency_high": self.latency_high,
            "horizon": self.horizon,
            "settle": self.settle,
            "actions": [action_to_dict(a) for a in self.actions],
        }
        if self.group_commit:
            # Emitted only when set, so pinned pre-group-commit artifacts
            # stay byte-identical (and replay cleanly via from_dict).
            payload["group_commit"] = True
        # Same rule: absent in every pre-sharding/-replication artifact.
        payload.update(self.topology.flags())
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ScenarioSpec":
        data = dict(payload)
        actions = tuple(action_from_dict(a) for a in data.pop("actions", []))
        topology = Topology.from_flags(
            data.pop("sharded", False), data.pop("replicated", 0)
        )
        return cls(actions=actions, topology=topology, **data)

    def with_actions(self, actions: tuple[AdversaryAction, ...]) -> "ScenarioSpec":
        return replace(self, actions=actions)


# -- the generator -----------------------------------------------------------


#: Protocol families the CLI exposes; each maps to the coordinator
#: policies the generator samples from (``"dynamic"`` = §4.1 PrAny).
PROTOCOL_FAMILIES: dict[str, tuple[str, ...]] = {
    "prany": ("dynamic",),
    "u2pc": ("U2PC(PrN)", "U2PC(PrA)", "U2PC(PrC)"),
    "c2pc": ("C2PC(PrN)", "C2PC(PrA)", "C2PC(PrC)"),
    "prn": ("PrN",),
    "pra": ("PrA",),
    "prc": ("PrC",),
}

#: Mixes the generator samples when none is pinned. Weighted toward the
#: adversarial PrA+PrC shapes of Theorems 1 and 2 — the interesting
#: region of the schedule space.
_DEFAULT_MIXES: tuple[str, ...] = (
    "PrA+PrC",
    "PrA+PrC",
    "PrN+PrA+PrC",
    "PrN+PrA+PrC",
    "all-PrN",
    "all-PrA",
    "all-PrC",
    "PrN+PrA",
    "PrN+PrC",
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs bounding what the generator may compose.

    Attributes:
        protocol: a family name from :data:`PROTOCOL_FAMILIES` or a
            literal coordinator policy (``"U2PC(PrC)"``).
        mix: pin every scenario to one mix, or ``None`` to sample.
        max_actions: upper bound on adversary actions per scenario.
        max_transactions: upper bound on workload size per scenario.
        salt: folded into every seed, so differently-salted sweeps
            explore different schedules for the same seed range.
        group_commit: generate every scenario on the group-commit
            engine (log-force coalescing + message batching).
        topology: generate every scenario on this topology. Sharded:
            coordinator-role crash points target the victim
            transaction's *actual* hash-placed coordinator (resolved at
            generation time — placement is deterministic), so
            coordinator kills land on every shard over a sweep.
            Replicated: the adversary's victim pool includes the
            acceptor sites, the acceptor-role crash points become
            sampleable, and leader kills exercise the failover path
            instead of blocking.
    """

    protocol: str = "prany"
    mix: Optional[str] = None
    max_actions: int = 4
    max_transactions: int = 4
    salt: int = 0
    group_commit: bool = False
    topology: Topology = Topology()

    def __post_init__(self) -> None:
        if self.mix is not None and self.mix not in MIXES:
            raise WorkloadError(f"unknown mix {self.mix!r}")
        if self.max_actions < 1 or self.max_transactions < 1:
            raise WorkloadError("max_actions and max_transactions must be >= 1")

    @property
    def coordinator_choices(self) -> tuple[str, ...]:
        return PROTOCOL_FAMILIES.get(self.protocol, (self.protocol,))


class AdversaryGenerator:
    """Samples :class:`ScenarioSpec` deterministically from a seed."""

    def __init__(self, config: GeneratorConfig = GeneratorConfig()) -> None:
        self.config = config

    def generate(self, seed: int) -> ScenarioSpec:
        """The scenario for ``seed`` — a pure function of (config, seed)."""
        cfg = self.config
        # The sampling stream is salted so it stays independent of the
        # simulator streams (which are seeded with the bare seed).
        rng = random.Random(f"explore:{cfg.salt}:{seed}")
        mix_name = cfg.mix or rng.choice(_DEFAULT_MIXES)
        coordinator = rng.choice(cfg.coordinator_choices)
        n_transactions = rng.randint(1, cfg.max_transactions)
        abort_fraction = rng.choice((0.0, 0.25, 0.5))
        inter_arrival = rng.choice((15.0, 25.0, 40.0))
        hot_keys = rng.choice((0, 0, 0, 2))
        if rng.random() < 0.3:
            latency_low, latency_high = 0.5, rng.choice((2.0, 4.0))
        else:
            latency_low = latency_high = 1.0

        active_until = n_transactions * inter_arrival + 120.0
        spec = ScenarioSpec(
            seed=seed,
            mix=mix_name,
            coordinator=coordinator,
            n_transactions=n_transactions,
            abort_fraction=abort_fraction,
            inter_arrival=inter_arrival,
            hot_keys=hot_keys,
            latency_low=latency_low,
            latency_high=latency_high,
            horizon=active_until + 180.0,
            settle=200.0,
            group_commit=cfg.group_commit,
            topology=cfg.topology,
        )
        mix = MIXES[mix_name]
        sites = sorted(mix.site_protocols())
        # Victim/endpoint pool: every site of the layout (the mix sites,
        # then tm and the acceptors where the topology has them).
        every = [site.site_id for site in cfg.topology.sites(mix, coordinator)]
        # Sharded topologies have no fixed coordinator site: resolve
        # each transaction's hash-placed owner now (the workload stream
        # is a pure function of the spec, so this matches the run
        # exactly) and aim coordinator-role crashes at it. Uses the
        # workload's own RNG, so the sampling stream here is untouched.
        coordinator_of: dict[str, str] = {}
        if cfg.topology.coordinator_per_site:
            coordinator_of = {
                txn.txn_id: txn.coordinator for txn in spec.transactions()
            }
        actions = tuple(
            self._sample_action(
                rng, sites, every, spec.txn_ids, active_until, coordinator_of
            )
            for _ in range(rng.randint(1, cfg.max_actions))
        )
        return spec.with_actions(actions)

    def _sample_action(
        self,
        rng: random.Random,
        sites: list[str],
        every: list[str],
        txn_ids: tuple[str, ...],
        active_until: float,
        coordinator_of: dict[str, str],
    ) -> AdversaryAction:
        topology = self.config.topology
        sharded = topology.coordinator_per_site
        acceptors = (
            list(topology.replication.acceptors) if topology.replication else []
        )
        kind = rng.choices(
            ("crash_when", "crash_at", "partition", "drop_next", "loss"),
            weights=(40, 15, 15, 15, 15),
        )[0]
        if kind == "crash_when":
            # Acceptor-role points can only ever fire when the
            # replication layer exists to send them traffic.
            samplable = sorted(
                name
                for name, p in _CRASH_POINTS.items()
                if p.role != "acceptor" or acceptors
            )
            point = rng.choice(samplable)
            crash_point = _CRASH_POINTS[point]
            if crash_point.role == "acceptor":
                return CrashWhen(
                    site=rng.choice(acceptors),
                    point=point,
                    txn=rng.choice(txn_ids),
                    down_for=rng.uniform(20.0, 120.0),
                    delay=rng.choice((0.0, 0.0, 0.5, 2.0)),
                )
            if sharded:
                # Draw the transaction first: a coordinator-role crash
                # must land on *that* transaction's hash-placed owner
                # or its predicate can never fire.
                txn = rng.choice(txn_ids)
                if crash_point.role == "coordinator":
                    victim = coordinator_of.get(txn) or rng.choice(sites)
                else:
                    victim = rng.choice(sites)
                return CrashWhen(
                    site=victim,
                    point=point,
                    txn=txn,
                    down_for=rng.uniform(20.0, 120.0),
                    delay=rng.choice((0.0, 0.0, 0.5, 2.0)),
                )
            victim = (
                COORDINATOR_ID
                if crash_point.role == "coordinator"
                else rng.choice(sites)
            )
            return CrashWhen(
                site=victim,
                point=point,
                txn=rng.choice(txn_ids),
                down_for=rng.uniform(20.0, 120.0),
                delay=rng.choice((0.0, 0.0, 0.5, 2.0)),
            )
        if kind == "crash_at":
            return CrashAt(
                site=rng.choice(every),
                at=rng.uniform(0.0, active_until),
                down_for=rng.uniform(20.0, 120.0),
            )
        if kind == "partition":
            a = rng.choice(every)
            b = rng.choice([s for s in every if s != a])
            at = rng.uniform(0.0, active_until)
            return PartitionWindow(a=a, b=b, at=at, heal_at=at + rng.uniform(10.0, 80.0))
        if kind == "drop_next":
            sender = rng.choice(every)
            receiver = rng.choice([s for s in every if s != sender])
            return DropNext(
                sender=sender,
                receiver=receiver,
                at=rng.uniform(0.0, active_until),
                count=rng.randint(1, 3),
                kind=rng.choice(_DROPPABLE_KINDS),
            )
        at = rng.uniform(0.0, active_until * 0.8)
        return LossWindow(
            probability=rng.uniform(0.05, 0.3),
            at=at,
            until=at + rng.uniform(20.0, 100.0),
        )
