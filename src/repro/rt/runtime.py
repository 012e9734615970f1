"""Wall-clock runtime facade: the simulator API over asyncio.

The protocol engines, local TM, stable log and protocol tables never
import wall-clock time directly — they go through the ``Simulator``
surface: ``now``, ``record``, ``schedule``, ``set_timer`` and
``after_tick``. That is the whole seam the live runtime needs:
:class:`LiveRuntime` implements the same five members on top of a
running asyncio event loop, so the *unmodified* engines execute over
real time and real sockets. ``after_tick`` is the one end of each
event-loop iteration: one ``loop.call_soon`` drains the file logs'
fsyncs, the peer links' writes and a site process's flush, in order,
so a frame a force's completion sends leaves in its fsync's drain.

Virtual-time contract: the engines think in the paper's abstract time
units (a network hop ~ 1 unit, timeouts in tens of units — see
:class:`repro.protocols.base.TimeoutConfig`). ``time_scale`` maps one
unit to a number of wall-clock seconds; ``now`` reports elapsed wall
time converted back to units, so traces from simulator and live runs
are directly comparable.

Timers (the *TimerService*) mirror ``Simulator.set_timer`` exactly:
they return a handle with ``deadline``/``active``/``cancel()``, and a
cancelled timer never fires — the engines' crash/epoch guards rely on
both properties.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.rng import RandomStreams
from repro.sim.tracing import TraceRecorder


class LiveTimer:
    """A cancellable wall-clock timer, API-compatible with
    :class:`repro.sim.kernel.Timer`."""

    __slots__ = ("_handle", "_deadline", "_fired")

    def __init__(self, handle: asyncio.TimerHandle, deadline: float) -> None:
        self._handle = handle
        self._deadline = deadline
        self._fired = False

    @property
    def deadline(self) -> float:
        """Virtual-time deadline (units, not seconds)."""
        return self._deadline

    @property
    def active(self) -> bool:
        return not (self._fired or self._handle.cancelled())

    def cancel(self) -> None:
        self._handle.cancel()

    def _mark_fired(self) -> None:
        self._fired = True

    def __repr__(self) -> str:
        state = "active" if self.active else "done"
        return f"LiveTimer(deadline={self._deadline!r}, {state})"


class LiveRuntime:
    """Drop-in ``Simulator`` replacement driven by the asyncio loop.

    Must be constructed inside a running event loop (it anchors its
    virtual-time origin to ``loop.time()`` at construction).

    Args:
        time_scale: wall-clock seconds per virtual time unit. The
            default (10 ms/unit) keeps the engines' default timeouts in
            the hundreds of milliseconds while leaving localhost round
            trips far below one unit, mirroring the simulator's
            latency/timeout proportions.
        seed: seeds the ``random`` streams, present only for API
            compatibility with code that draws jitter from the
            simulator (live runs take their nondeterminism from the
            network itself).
        wall_epoch: optional ``time.time()`` instant to anchor virtual
            time zero at. Processes that share an epoch (the
            multi-process cluster: supervisor and every
            ``SiteProcess``) report mutually comparable ``now`` values,
            so trace events merged across processes order sensibly.
            ``None`` keeps the single-process behaviour: the origin is
            construction time.
    """

    def __init__(
        self,
        time_scale: float = 0.01,
        seed: int = 0,
        wall_epoch: Optional[float] = None,
    ) -> None:
        if time_scale <= 0:
            raise SimulationError(f"time_scale must be positive: {time_scale!r}")
        self._loop = asyncio.get_running_loop()
        self._time_scale = time_scale
        if wall_epoch is None:
            self._origin = self._loop.time()
        else:
            # loop.time() and time.time() tick at the same rate but from
            # different zeros; shift the loop clock so virtual zero
            # lands on the shared wall-clock epoch.
            self._origin = self._loop.time() - (time.time() - wall_epoch)
        self.trace = TraceRecorder()
        self.random = RandomStreams(seed)
        self._timers_fired = 0
        #: This tick's end: its actions, each keyed by itself, and its callback.
        self._end_of_tick: dict[Callable[[], Any], Callable[[], Any]] = {}
        self._end_handle: Optional[asyncio.Handle] = None

    # -- time ----------------------------------------------------------------

    @property
    def time_scale(self) -> float:
        return self._time_scale

    @property
    def now(self) -> float:
        """Elapsed wall time since construction, in virtual units."""
        return (self._loop.time() - self._origin) / self._time_scale

    @property
    def steps_executed(self) -> int:
        """Timer callbacks fired so far (the live analogue of kernel steps)."""
        return self._timers_fired

    # -- tracing -------------------------------------------------------------

    def record(self, site: str, category: str, name: str, **details: Any):
        """Record a trace event stamped with the current virtual time;
        this call's ``details`` dict becomes its payload, uncopied."""
        return self.trace.record(self.now, site, category, name, details)

    # -- scheduling (the TimerService) ----------------------------------------

    def schedule(
        self,
        delay: float,
        action: Callable[[], Any],
        label: str = "",
    ) -> LiveTimer:
        """Run ``action`` ``delay`` virtual units from now (cancellable)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        deadline = self.now + delay
        timer: Optional[LiveTimer] = None

        def fire() -> None:
            self._timers_fired += 1
            assert timer is not None
            timer._mark_fired()
            action()

        handle = self._loop.call_later(delay * self._time_scale, fire)
        timer = LiveTimer(handle, deadline)
        return timer

    def schedule_at(
        self,
        when: float,
        action: Callable[[], Any],
        label: str = "",
    ) -> LiveTimer:
        """Run ``action`` at absolute virtual time ``when``."""
        delay = when - self.now
        if delay < 0:
            raise SimulationError(
                f"cannot schedule at {when!r}, which is before now ({self.now!r})"
            )
        return self.schedule(delay, action, label)

    def set_timer(
        self,
        delay: float,
        action: Callable[[], Any],
        label: str = "timer",
    ) -> LiveTimer:
        """Like :meth:`schedule`; named to match ``Simulator.set_timer``."""
        return self.schedule(delay, action, label)

    def after_tick(self, action: Callable[[], Any]) -> None:
        """Run ``action`` at the end of this tick, once however often
        it is added; one added while the end runs joins it. Not a
        timer: no :attr:`steps_executed` count, no virtual delay."""
        if self._end_handle is None:
            self._end_handle = self._loop.call_soon(self._end_tick)
        self._end_of_tick[action] = action

    def _end_tick(self) -> None:
        """Run the actions, first added first, until none is left. One
        that raises loses only its own work: the exception goes to the
        loop's handler and the rest run in the next iteration."""
        actions = self._end_of_tick
        try:
            while actions:
                actions.pop(next(iter(actions)))()
        finally:
            self._end_handle = self._loop.call_soon(self._end_tick) if actions else None

    # -- conversions -----------------------------------------------------------

    def to_seconds(self, units: float) -> float:
        """Virtual units → wall-clock seconds."""
        return units * self._time_scale

    def __repr__(self) -> str:
        return (
            f"LiveRuntime(now={self.now:.3f}, scale={self._time_scale}, "
            f"timers_fired={self._timers_fired})"
        )
