"""Failure injection.

Two mechanisms are provided:

* :class:`CrashSchedule` — crash a site at an absolute virtual time and
  (optionally) recover it after a fixed outage.
* :class:`TriggeredCrash` — crash a site the moment a trace event
  matching a predicate is recorded. This is how the adversarial
  schedules of Theorems 1 and 2 are reproduced deterministically:
  e.g. "crash the PrC participant right after the coordinator sends the
  commit decision, before that decision is delivered".

Both operate on any object satisfying :class:`Crashable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol

from repro.sim.kernel import Simulator
from repro.sim.tracing import TraceEvent


class Crashable(Protocol):
    """Anything the failure injector can crash and recover."""

    @property
    def site_id(self) -> str: ...

    def crash(self) -> None: ...

    def recover(self) -> None: ...

    @property
    def is_up(self) -> bool: ...


@dataclass(frozen=True)
class CrashSchedule:
    """Crash ``site_id`` at ``at`` and recover ``down_for`` later.

    ``down_for=None`` means the site stays down for the rest of the run.
    """

    site_id: str
    at: float
    down_for: Optional[float] = None


class TriggeredCrash:
    """Crash a site when a trace event satisfies ``predicate``.

    The crash is scheduled ``delay`` time units after the triggering
    event (default zero — but even then the triggering event completes
    first); messages already in flight with positive latency are lost
    if they arrive while the site is down. A positive ``delay`` models
    a crash *near* a protocol step rather than exactly at it — used by
    the vulnerability-window ablation to show how background flushing
    narrows the lazy-record loss window.
    """

    def __init__(
        self,
        site_id: str,
        predicate: Callable[[TraceEvent], bool],
        down_for: Optional[float] = None,
        label: str = "",
        delay: float = 0.0,
    ) -> None:
        self.site_id = site_id
        self.predicate = predicate
        self.down_for = down_for
        self.label = label or f"triggered-crash:{site_id}"
        self.delay = delay
        self.fired = False


class FailureInjector:
    """Applies crash schedules and triggered crashes to a set of sites.

    It listens to the trace only once its first trigger is installed
    (timed crashes never read it), so arm triggers before running.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._sites: dict[str, Crashable] = {}
        self._triggers: list[TriggeredCrash] = []
        self.crashes_injected = 0

    def manage(self, site: Crashable) -> None:
        """Put ``site`` under this injector's control."""
        self._sites[site.site_id] = site

    def schedule(self, schedule: CrashSchedule) -> None:
        """Install a timed crash (and optional timed recovery)."""
        self._sim.schedule_at(
            schedule.at,
            lambda: self._crash(schedule.site_id, schedule.down_for),
            label=f"crash {schedule.site_id}",
        )

    def add_trigger(self, trigger: TriggeredCrash) -> None:
        """Install a trace-predicate-triggered crash."""
        if not self._triggers:
            self._sim.trace.subscribe(self._on_trace_event)
        self._triggers.append(trigger)

    def crash_when(
        self,
        site_id: str,
        predicate: Callable[[TraceEvent], bool],
        down_for: Optional[float] = None,
        label: str = "",
        delay: float = 0.0,
    ) -> TriggeredCrash:
        """Convenience wrapper building and installing a trigger."""
        trigger = TriggeredCrash(site_id, predicate, down_for, label, delay)
        self.add_trigger(trigger)
        return trigger

    def recover_at(self, site_id: str, when: float) -> None:
        """Schedule an explicit recovery for a down site."""
        self._sim.schedule_at(
            when,
            lambda: self._recover(site_id),
            label=f"recover {site_id}",
        )

    # -- internals ----------------------------------------------------------

    def _on_trace_event(self, event: TraceEvent) -> None:
        for trigger in self._triggers:
            if trigger.fired or not trigger.predicate(event):
                continue
            trigger.fired = True
            self._sim.schedule(
                trigger.delay,
                lambda t=trigger: self._crash(t.site_id, t.down_for),
                label=trigger.label,
            )

    def _crash(self, site_id: str, down_for: Optional[float]) -> None:
        site = self._sites.get(site_id)
        if site is None or not site.is_up:
            return
        self.crashes_injected += 1
        site.crash()
        if down_for is not None:
            self._sim.schedule(
                down_for,
                lambda: self._recover(site_id),
                label=f"recover {site_id}",
            )

    def _recover(self, site_id: str) -> None:
        site = self._sites.get(site_id)
        if site is None or site.is_up:
            return
        site.recover()
