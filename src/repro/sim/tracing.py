"""Run tracing.

Every observable action in a simulation — a log write, a message send
or delivery, a protocol decision, a crash, a recovery step — is recorded
as a :class:`TraceEvent`. The trace is the raw material for:

* the executable ACTA history (``repro.core.history``),
* the correctness checkers (``repro.core.correctness``),
* the figure-flow renderers (``repro.experiments.flows``).

:meth:`TraceRecorder.record` is on the hot path of every simulation
(``perf/``'s ``tracing.record_us`` times it), and a run keeps every
event until it is checked, so the recorder keeps rows, not objects. A
run has only a few dozen event *shapes* (site, category, name, detail
keys in order), each interned once. An event appends its time, shape id
and detail values to one flat list: ~45 B, where an event object and
its dict took ~300. Events are built on read, and for the subscribers of
``record`` when there are any. ``select`` and ``first`` read through a
per-shape index, built on the first such read, so they stop scanning.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, Optional

_intern = sys.intern


class TraceEvent:
    """A single recorded occurrence in a simulation run.

    Treat instances as immutable: the event :meth:`TraceRecorder.record`
    dispatches is shared by every subscriber. Reading a trace builds its
    events afresh.

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


def _reader(shape: tuple) -> Callable[[list, int, int], TraceEvent]:
    """Compile ``(rows, position, seq) -> TraceEvent`` for one shape: a
    dict display is several times cheaper than ``dict(zip(keys,
    values))``, and a run has a few dozen shapes (as ``namedtuple``)."""
    site, category, name, keys = shape
    payload = ", ".join(
        f"{key!r}: rows[position + {index}]" for index, key in enumerate(keys, 2)
    )
    return eval(
        "lambda rows, position, seq: TraceEvent(rows[position], seq, "
        f"site, category, name, {{{payload}}})",
        {"TraceEvent": TraceEvent, "site": site, "category": category, "name": name},
    )


class TraceRecorder:
    """Append-only store of the events of one simulation run: one flat
    list of rows, each an event's time, shape id and detail values. An
    event's ``seq`` is its position."""

    def __init__(self) -> None:
        # Per shape id: the shape, its row width and its reader.
        self._shape_ids: dict[tuple, int] = {}
        self._shapes: list[tuple[str, str, str, tuple[str, ...]]] = []
        self._widths: list[int] = []
        self._readers: list[Callable[[list, int, int], TraceEvent]] = []
        self._subscribers: list[Callable[[TraceEvent], None]] = []
        self._enabled_categories: Optional[frozenset[str]] = None
        self.replace(())

    def __len__(self) -> int:
        return self._next_seq

    def __iter__(self) -> Iterator[TraceEvent]:
        rows, widths, readers = self._rows, self._widths, self._readers
        position = seq = 0
        while position < len(rows):
            shape = rows[position + 1]
            yield readers[shape](rows, position, seq)
            position += widths[shape]
            seq += 1

    def __getitem__(self, index: int) -> TraceEvent:
        """The event at ``index`` (negative counts from the end)."""
        seq = range(self._next_seq)[index]
        self._index()
        position = self._offsets[seq]
        return self._readers[self._rows[position + 1]](self._rows, position, seq)

    def set_category_filter(self, categories: Optional[Iterable[str]]) -> None:
        """Record only events whose category is in ``categories``.

        ``None`` removes the filter (the default: record everything).
        Filtered events are dropped entirely — they consume no sequence
        number, reach no subscriber and leave no row; :meth:`record`
        returns ``None`` for them.

        This is a throughput lever for trace-heavy callers that only
        consume a known slice of the trace. It changes what the trace
        *is*: never enable it where the full trace is load-bearing —
        checkers that read filtered-out categories, trace digests or
        exported artifacts (``repro.explore`` replays assert byte-exact
        digests of *full* traces), or crash injection triggered on
        filtered-out events.
        """
        self._enabled_categories = (
            None if categories is None else frozenset(map(_intern, categories))
        )

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
        them), never both. Its keys are strings. The row keeps its
        values; the event the subscribers get adopts the dict uncopied.
        That event is returned: ``None`` when nobody subscribes
        (``trace[-1]`` builds it) or a category filter dropped it.
        """
        enabled = self._enabled_categories
        if enabled is not None and category not in enabled:
            return None
        if details is None:
            details = more
        elif more:
            raise TypeError("pass details as one dict or as keywords, not both")
        shape = self._shape_ids.get((site, category, name, *details))
        if shape is None:
            shape = self._add_shape(site, category, name, tuple(details))
        self._rows += (time, shape, *details.values())
        seq = self._next_seq
        self._next_seq = seq + 1
        if self._subscribers:
            site, category, name, _ = self._shapes[shape]
            event = TraceEvent(time, seq, site, category, name, details)
            for subscriber in self._subscribers:
                subscriber(event)
            return event
        return None

    def _add_shape(self, site: str, category: str, name: str, keys: tuple) -> int:
        shape = (_intern(site), _intern(category), _intern(name), tuple(map(_intern, keys)))
        self._shape_ids[(site, category, name, *keys)] = len(self._shapes)
        self._shapes.append(shape)
        self._widths.append(2 + len(keys))
        self._readers.append(_reader(shape))
        return len(self._shapes) - 1

    def replace(self, events: Iterable[TraceEvent]) -> None:
        """Make ``events`` the whole trace, numbered in the order given;
        subscribers are not called and no category filter applies.

        For a trace assembled after the fact from several recorders (a
        process cluster merging its sites' trace files). ``events`` is
        consumed after the old trace is dropped, so it must not be
        drawn from this recorder.
        """
        self._rows: list[Any] = []
        self._next_seq = 0
        # Built on read up to row position ``_indexed_to``: where each
        # event's row starts, and the seqs of each shape's events.
        self._offsets = array("q")
        self._by_shape: list[array] = []
        self._indexed_to = 0
        kept = self._subscribers, self._enabled_categories
        self._subscribers, self._enabled_categories = [], None
        try:
            for event in events:
                self.record(event.time, event.site, event.category, event.name, event.details)
        finally:
            self._subscribers, self._enabled_categories = kept

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
        return list(self.iter_select(category, name, site, **details))

    def first(
        self,
        category: Optional[str] = None,
        name: Optional[str] = None,
        site: Optional[str] = None,
        **details: Any,
    ) -> Optional[TraceEvent]:
        """First matching event, or ``None``."""
        return next(self.iter_select(category, name, site, **details), None)

    def render(self, limit: Optional[int] = None) -> str:
        """Human-readable multi-line rendering of the trace."""
        return "\n".join(str(event) for event in islice(self, limit))

    def _index(self) -> None:
        """Extend the index over the rows recorded since the last read."""
        rows, position = self._rows, self._indexed_to
        by_shape = self._by_shape
        by_shape += [array("q") for _ in range(len(self._shapes) - len(by_shape))]
        add_seq = [seqs.append for seqs in by_shape]
        add_offset, widths = self._offsets.append, self._widths
        for seq in range(len(self._offsets), self._next_seq):
            shape = rows[position + 1]
            add_offset(position)
            add_seq[shape](seq)
            position += widths[shape]
        self._indexed_to = position

    def iter_select(
        self,
        category: Optional[str] = None,
        name: Optional[str] = None,
        site: Optional[str] = None,
        **details: Any,
    ) -> Iterator[TraceEvent]:
        """:meth:`select`, lazily: an event is built when it is reached.
        Only the shapes that can match are visited, and of their events
        only the detail values filtered on are compared; a detail a
        shape lacks reads as ``None``, as in :meth:`TraceEvent.matches`."""
        self._index()
        checks: dict[int, list[tuple[int, Any]]] = {}
        for shape, (s_site, s_category, s_name, keys) in enumerate(self._shapes):
            if TraceEvent(0, 0, s_site, s_category, s_name).matches(
                category, name, site
            ) and all(key in keys or value is None for key, value in details.items()):
                checks[shape] = [(2 + keys.index(k), v) for k, v in details.items() if k in keys]
        seqs = [self._by_shape[shape] for shape in checks]
        rows, offsets, readers = self._rows, self._offsets, self._readers
        for seq in seqs[0] if len(seqs) == 1 else sorted(chain(*seqs)):
            position = offsets[seq]
            shape = rows[position + 1]
            compare = checks[shape]
            if not compare or all(rows[position + at] == value for at, value in compare):
                yield readers[shape](rows, position, seq)
