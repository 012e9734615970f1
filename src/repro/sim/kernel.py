"""The discrete-event simulator kernel.

:class:`Simulator` ties together the virtual clock, the event queue,
the random streams and the trace recorder. All higher layers schedule
work through :meth:`Simulator.schedule` / :meth:`Simulator.set_timer`
and never sleep or touch wall-clock time, which makes every run a pure
function of ``(code, seed, schedule)``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.event_queue import EventQueue, ScheduledEvent
from repro.sim.rng import RandomStreams
from repro.sim.tracing import TraceRecorder


class Timer:
    """A cancellable timer handle returned by :meth:`Simulator.set_timer`."""

    __slots__ = ("_event",)

    def __init__(self, event: ScheduledEvent) -> None:
        self._event = event

    @property
    def deadline(self) -> float:
        return self._event.time

    @property
    def active(self) -> bool:
        return not self._event.cancelled

    def cancel(self) -> None:
        self._event.cancel()

    def __repr__(self) -> str:
        state = "active" if self.active else "cancelled"
        return f"Timer(deadline={self.deadline!r}, {state})"


class Simulator:
    """Deterministic discrete-event simulator.

    Example:
        >>> sim = Simulator(seed=7)
        >>> fired = []
        >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [5.0]
    """

    def __init__(self, seed: int = 0) -> None:
        self.clock = VirtualClock()
        self.queue = EventQueue()
        self.random = RandomStreams(seed)
        self.trace = TraceRecorder()
        self._steps_executed = 0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.clock._now

    @property
    def steps_executed(self) -> int:
        """Number of events the kernel has fired so far."""
        return self._steps_executed

    def record(self, site: str, category: str, name: str, **details: Any):
        """Record a trace event stamped with the current virtual time;
        this call's ``details`` dict becomes its payload, uncopied."""
        return self.trace.record(self.clock._now, site, category, name, details)

    def schedule(
        self,
        delay: float,
        action: Callable[[], Any],
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``action`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        return self.queue.push(self.clock._now + delay, action, label)

    def schedule_at(
        self,
        when: float,
        action: Callable[[], Any],
        label: str = "",
    ) -> ScheduledEvent:
        """Schedule ``action`` to run at absolute virtual time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when!r}, which is before now ({self.now!r})"
            )
        return self.queue.push(when, action, label)

    def set_timer(
        self,
        delay: float,
        action: Callable[[], Any],
        label: str = "timer",
    ) -> Timer:
        """Like :meth:`schedule`, but returns a cancellable :class:`Timer`."""
        return Timer(self.schedule(delay, action, label))

    def after_tick(self, action: Callable[[], Any]) -> None:
        """Run ``action`` once the work of the current tick is done.

        A simulator step is instantaneous and nothing else can run
        inside it, so ``action`` runs at once. The live runtime defers
        it to the end of the event-loop iteration, which is what lets a
        file log share one fsync among the forces of one tick.
        """
        action()

    def run(
        self,
        until: Optional[float] = None,
        max_steps: int = 10_000_000,
    ) -> None:
        """Run events until the queue drains or ``until`` is reached.

        Args:
            until: stop once the next event would fire after this time;
                the clock is then advanced exactly to ``until``.
            max_steps: safety valve against runaway schedules.

        Raises:
            SimulationError: if ``max_steps`` events fire without the
                queue draining, which indicates a scheduling loop.
        """
        # This loop dispatches every event of every run, so it is the
        # hottest few lines in the repository (see the kernel-dispatch
        # scenario in BENCH_sim.json). It reaches into the queue's heap
        # directly — fusing peek/reap/pop into one heap access per
        # event — and advances the clock without the per-event
        # property/validation hops: heap order plus the monotonicity
        # checks at scheduling time already guarantee popped times are
        # non-decreasing, and `EventQueue.push` coerces times to float.
        heap = self.queue._heap
        clock = self.clock
        heappop = heapq.heappop
        steps = 0
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                heappop(heap)
                continue
            event_time = entry[0]
            if until is not None and event_time > until:
                break
            heappop(heap)
            clock._now = event_time
            self._steps_executed += 1
            event.action()
            steps += 1
            if steps >= max_steps:
                raise SimulationError(
                    f"simulation did not quiesce within {max_steps} steps"
                )
        if until is not None and until > clock._now:
            clock.advance_to(until)

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now!r}, pending={len(self.queue)}, "
            f"steps={self._steps_executed})"
        )
