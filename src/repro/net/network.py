"""Simulated network: registration, latency, delivery and loss.

The network delivers :class:`~repro.net.message.Message` objects between
registered nodes through the simulator's event queue. Delivery honours:

* a pluggable latency model,
* per-link omission failures (deterministic drop of the next N messages
  or probabilistic loss),
* partitions (a blocked pair drops everything until healed),
* receiver liveness — a message arriving at a crashed node is lost,
  which models the paper's omission-failure assumption.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from repro.errors import NetworkError, UnknownNodeError
from repro.net.message import Message
from repro.sim.kernel import Simulator


class LatencyModel(Protocol):
    """Computes the one-way delay for a message between two sites."""

    def delay(self, sender: str, receiver: str) -> float:
        """One-way latency in virtual time units."""


class ConstantLatency:
    """Every message takes exactly ``value`` time units."""

    def __init__(self, value: float = 1.0) -> None:
        if value < 0:
            raise NetworkError(f"latency cannot be negative: {value!r}")
        self.value = value

    def delay(self, sender: str, receiver: str) -> float:
        return self.value


class UniformLatency:
    """Latency drawn uniformly from ``[low, high]`` per message.

    Draws come from the simulator's dedicated ``"net.latency"`` random
    stream so network jitter never perturbs workload randomness.
    """

    def __init__(self, sim: Simulator, low: float = 0.5, high: float = 2.0) -> None:
        if low < 0 or high < low:
            raise NetworkError(f"invalid latency range [{low!r}, {high!r}]")
        self._rng = sim.random.stream("net.latency")
        self.low = low
        self.high = high

    def delay(self, sender: str, receiver: str) -> float:
        return self._rng.uniform(self.low, self.high)


class _NodeEntry:
    """Registration record for one network endpoint."""

    __slots__ = ("handler", "is_up")

    def __init__(
        self,
        handler: Callable[[Message], None],
        is_up: Callable[[], bool],
    ) -> None:
        self.handler = handler
        self.is_up = is_up


class Network:
    """Message fabric connecting the sites of a simulated MDBS."""

    def __init__(self, sim: Simulator, latency: LatencyModel | None = None) -> None:
        self._sim = sim
        self._latency = latency if latency is not None else ConstantLatency(1.0)
        self._nodes: dict[str, _NodeEntry] = {}
        self._partitioned: set[frozenset[str]] = set()
        # Keyed by (sender, receiver, kind); kind=None budgets match any
        # message on the link.
        self._omission_budget: dict[tuple[str, str, Optional[str]], int] = {}
        self._loss_probability = 0.0
        self._loss_rng = sim.random.stream("net.loss")
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        self.in_flight = 0

    def set_latency(self, model: LatencyModel) -> None:
        """Replace the latency model (affects subsequently sent messages)."""
        self._latency = model

    # -- registration ------------------------------------------------------

    def register(
        self,
        node_id: str,
        handler: Callable[[Message], None],
        is_up: Callable[[], bool] = lambda: True,
        peer_down: Optional[Callable[[str], None]] = None,
        peer_up: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Attach a node. ``handler`` is invoked on each delivery.
        ``peer_down``/``peer_up`` are never called: a simulated network
        has no connections to lose (the live transport calls them)."""
        if node_id in self._nodes:
            raise NetworkError(f"node {node_id!r} is already registered")
        self._nodes[node_id] = _NodeEntry(handler, is_up)

    def knows(self, node_id: str) -> bool:
        return node_id in self._nodes

    # -- failure controls --------------------------------------------------

    def partition(self, a: str, b: str) -> None:
        """Block all traffic between ``a`` and ``b`` until healed."""
        self._partitioned.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        """Remove the partition between ``a`` and ``b`` (if any)."""
        self._partitioned.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        self._partitioned.clear()

    def drop_next(
        self,
        sender: str,
        receiver: str,
        count: int = 1,
        kind: Optional[str] = None,
    ) -> None:
        """Deterministically drop the next ``count`` messages on a link.

        Args:
            kind: when given, only messages of this kind are dropped
                (others pass through without consuming the budget).
        """
        key = (sender, receiver, kind)
        self._omission_budget[key] = self._omission_budget.get(key, 0) + count

    def set_loss_probability(self, probability: float) -> None:
        """Drop each message independently with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise NetworkError(f"loss probability out of range: {probability!r}")
        self._loss_probability = probability

    # -- sending -----------------------------------------------------------

    def send(self, message: Message) -> None:
        """Send ``message``; it is delivered later via the event queue."""
        if message.receiver not in self._nodes:
            raise UnknownNodeError(f"unknown receiver {message.receiver!r}")
        self.sent_count += 1
        self._sim.record(
            message.sender,
            "msg",
            "send",
            kind=message.kind,
            to=message.receiver,
            txn=message.txn_id,
            **message.payload,
        )
        if self._should_drop(message):
            self.dropped_count += 1
            self._sim.record(
                message.sender,
                "msg",
                "dropped",
                kind=message.kind,
                to=message.receiver,
                txn=message.txn_id,
            )
            return
        delay = self._latency.delay(message.sender, message.receiver)
        self.in_flight += 1
        self._schedule_delivery(message, delay)

    def _schedule_delivery(self, message: Message, delay: float) -> None:
        """Queue one accepted message for delivery after ``delay``.

        Subclasses may override to change *when* delivery happens (see
        :class:`ServiceTimeNetwork`); every accepted message must still
        reach :meth:`_deliver` exactly once so the per-message traces,
        counters and liveness checks are preserved.
        """
        self._sim.schedule(
            delay,
            lambda: self._deliver(message),
            label=f"deliver {message.kind} to {message.receiver}",
        )

    def _should_drop(self, message: Message) -> bool:
        for kind in (message.kind, None):
            link = (message.sender, message.receiver, kind)
            budget = self._omission_budget.get(link, 0)
            if budget > 0:
                self._omission_budget[link] = budget - 1
                return True
        if frozenset((message.sender, message.receiver)) in self._partitioned:
            return True
        if self._loss_probability > 0.0:
            return self._loss_rng.random() < self._loss_probability
        return False

    def _deliver(self, message: Message) -> None:
        self.in_flight -= 1
        entry = self._nodes[message.receiver]
        if not entry.is_up():
            # Receiver crashed while the message was in flight: the
            # message is lost, matching the omission-failure model.
            self.dropped_count += 1
            self._sim.record(
                message.receiver,
                "msg",
                "lost_receiver_down",
                kind=message.kind,
                sender=message.sender,
                txn=message.txn_id,
            )
            return
        self.delivered_count += 1
        self._sim.record(
            message.receiver,
            "msg",
            "deliver",
            kind=message.kind,
            sender=message.sender,
            txn=message.txn_id,
            **message.payload,
        )
        entry.handler(message)


class ServiceTimeNetwork(Network):
    """A network whose receivers take time to process each delivery.

    The plain :class:`Network` delivers after link latency with no
    receiver-side queuing, so a site can absorb any number of
    simultaneous arrivals for free — under that model a single
    coordinator is never a contention point and sharding the
    coordinator role cannot show up in virtual-time latency. This
    subclass adds the standard single-server queue at each receiver:
    every delivery occupies its receiver for ``service_time`` units, and
    a message arriving while the receiver is busy waits its turn
    (deterministically, in arrival order — the override changes *when*
    deliveries happen, never whether or to whom).

    Off by default everywhere; the sharded-coordinator bench pair
    (``commit-storm-single-prany`` / ``commit-storm-sharded-prany``)
    switches it on for both twins so the coordinator's queue is the only
    variable between them.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
        service_time: float = 0.05,
    ) -> None:
        super().__init__(sim, latency)
        if service_time < 0:
            raise NetworkError(
                f"service time cannot be negative: {service_time!r}"
            )
        self.service_time = service_time
        self._busy_until: dict[str, float] = {}

    def _schedule_delivery(self, message: Message, delay: float) -> None:
        now = self._sim.now
        arrival = now + delay
        start = max(arrival, self._busy_until.get(message.receiver, 0.0))
        done = start + self.service_time
        self._busy_until[message.receiver] = done
        self._sim.schedule(
            done - now,
            lambda: self._deliver(message),
            label=f"deliver {message.kind} to {message.receiver}",
        )
