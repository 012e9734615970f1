"""Run tracing.

Every observable action in a simulation — a log write, a message send
or delivery, a protocol decision, a crash, a recovery step — is recorded
as a :class:`TraceEvent`. The trace is the raw material for:

* the executable ACTA history (``repro.core.history``),
* the correctness checkers (``repro.core.correctness``),
* the figure-flow renderers (``repro.experiments.flows``).

:meth:`TraceRecorder.record` is on the hot path of every simulation
(``perf/``'s ``tracing.record_us`` times it), so :class:`TraceEvent` is
a slotted plain class rather than a dataclass, the ``details`` dict is
adopted rather than copied (the runtimes' ``record`` hands over the
keyword dict its own ``**details`` already made fresh), and the
site/category/name strings are interned so the equality tests in
:meth:`TraceEvent.matches` hit CPython's pointer fast path.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Iterable, Iterator, Optional

_intern = sys.intern


class TraceEvent:
    """A single recorded occurrence in a simulation run.

    Treat instances as immutable: they are shared by every consumer of
    the trace (checkers, histories, exports, subscribers). Only
    :meth:`TraceRecorder.replace` renumbers them.

    Attributes:
        time: virtual time at which the event occurred.
        seq: global sequence number; totally orders the trace, including
            events that share a timestamp.
        site: identifier of the site where the event happened, or ``""``
            for system-level events.
        category: coarse event class, e.g. ``"log"``, ``"msg"``,
            ``"protocol"``, ``"crash"``, ``"recovery"``, ``"db"``.
        name: event name within the category, e.g. ``"force_write"``,
            ``"send"``, ``"decide"``.
        details: free-form payload (transaction id, record type, ...).
    """

    __slots__ = ("time", "seq", "site", "category", "name", "details")

    def __init__(
        self,
        time: float,
        seq: int,
        site: str,
        category: str,
        name: str,
        details: Optional[dict[str, Any]] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.site = site
        self.category = category
        self.name = name
        self.details = {} if details is None else details

    def matches(
        self,
        category: Optional[str] = None,
        name: Optional[str] = None,
        site: Optional[str] = None,
        **details: Any,
    ) -> bool:
        """True if this event matches every given criterion."""
        if category is not None and self.category != category:
            return False
        if name is not None and self.name != name:
            return False
        if site is not None and self.site != site:
            return False
        for key, value in details.items():
            if self.details.get(key) != value:
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (
            self.time == other.time
            and self.seq == other.seq
            and self.site == other.site
            and self.category == other.category
            and self.name == other.name
            and self.details == other.details
        )

    def __repr__(self) -> str:
        return (
            f"TraceEvent(time={self.time!r}, seq={self.seq!r}, "
            f"site={self.site!r}, category={self.category!r}, "
            f"name={self.name!r}, details={self.details!r})"
        )

    def __str__(self) -> str:
        payload = ", ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        where = self.site or "<system>"
        return f"[{self.time:10.3f} #{self.seq:>6}] {where}: {self.category}.{self.name} ({payload})"


class TraceRecorder:
    """Append-only store of :class:`TraceEvent` for one simulation run."""

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []
        self._next_seq = 0
        self._subscribers: list[Callable[[TraceEvent], None]] = []
        self._enabled_categories: Optional[frozenset[str]] = None

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """Immutable snapshot of the trace so far."""
        return tuple(self._events)

    def set_category_filter(
        self, categories: Optional[Iterable[str]]
    ) -> None:
        """Record only events whose category is in ``categories``.

        ``None`` removes the filter (the default: record everything).
        Filtered events are dropped entirely — they consume no sequence
        number, reach no subscriber and never allocate a
        :class:`TraceEvent`; :meth:`record` returns ``None`` for them.

        This is a throughput lever for trace-heavy callers that only
        consume a known slice of the trace. It changes what the trace
        *is*: never enable it where the full trace is load-bearing —
        checkers that read filtered-out categories, trace digests or
        exported artifacts (``repro.explore`` replays assert byte-exact
        digests of *full* traces), or crash injection triggered on
        filtered-out events.
        """
        if categories is None:
            self._enabled_categories = None
        else:
            self._enabled_categories = frozenset(
                _intern(category) for category in categories
            )

    @property
    def category_filter(self) -> Optional[frozenset[str]]:
        """The enabled categories, or ``None`` when unfiltered."""
        return self._enabled_categories

    def record(
        self,
        time: float,
        site: str,
        category: str,
        name: str,
        details: Optional[dict[str, Any]] = None,
        /,
        **more: Any,
    ) -> Optional[TraceEvent]:
        """Append an event to the trace and notify subscribers.

        The payload is the dict ``details`` the caller hands over, or
        else the keywords ``more`` (a detail named ``details`` is one of
        them), never both. It is adopted, not copied.

        Returns the recorded event, or ``None`` when a category filter
        dropped it.
        """
        enabled = self._enabled_categories
        if enabled is not None and category not in enabled:
            return None
        if details is None:
            details = more
        elif more:
            raise TypeError("pass details as one dict or as keywords, not both")
        event = TraceEvent(
            time,
            self._next_seq,
            _intern(site),
            _intern(category),
            _intern(name),
            details,
        )
        self._next_seq += 1
        self._events.append(event)
        if self._subscribers:
            for subscriber in self._subscribers:
                subscriber(event)
        return event

    def replace(self, events: Iterable[TraceEvent]) -> None:
        """Make ``events`` the whole trace, rewriting their ``seq`` to
        the order given; subscribers are not called.

        For a trace assembled after the fact from several recorders (a
        process cluster merging its sites' trace files). ``events`` is
        consumed after the old trace is dropped, so it must not be
        drawn from this recorder.
        """
        self._events = []
        append = self._events.append
        for seq, event in enumerate(events):
            event.seq = seq
            append(event)
        self._next_seq = len(self._events)

    def subscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Invoke ``callback`` for every subsequently recorded event (not
        the one being dispatched: the list :meth:`record` iterates is
        replaced, never appended to)."""
        self._subscribers = [*self._subscribers, callback]

    def select(
        self,
        category: Optional[str] = None,
        name: Optional[str] = None,
        site: Optional[str] = None,
        **details: Any,
    ) -> list[TraceEvent]:
        """All events matching the given criteria, in trace order."""
        return [
            event
            for event in self._events
            if event.matches(category=category, name=name, site=site, **details)
        ]

    def first(
        self,
        category: Optional[str] = None,
        name: Optional[str] = None,
        site: Optional[str] = None,
        **details: Any,
    ) -> Optional[TraceEvent]:
        """First matching event, or ``None``."""
        for event in self._events:
            if event.matches(category=category, name=name, site=site, **details):
                return event
        return None

    def render(self, limit: Optional[int] = None) -> str:
        """Human-readable multi-line rendering of the trace."""
        events = self._events if limit is None else self._events[:limit]
        return "\n".join(str(event) for event in events)
