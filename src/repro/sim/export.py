"""Trace export, import and diffing.

Runs are deterministic, so a trace file is a complete, replayable
record of an experiment: dump it next to results, reload it later to
re-run the correctness checkers or the history extraction without
re-simulating, and diff two traces to pin down where runs diverge.

Format: JSON Lines — one event object per line, in sequence order.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Union

from repro.errors import SimulationError
from repro.sim.tracing import TraceEvent, TraceRecorder

PathLike = Union[str, Path]


def canonical_lines(trace: Iterable[TraceEvent]) -> Iterator[str]:
    """Each event as one JSON object with sorted keys: the lines of a
    trace file, and what :func:`repro.explore.runner.trace_digest`
    hashes."""
    dumps = json.dumps
    for event in trace:
        yield dumps(
            {
                "time": event.time,
                "seq": event.seq,
                "site": event.site,
                "category": event.category,
                "name": event.name,
                "details": event.details,
            },
            sort_keys=True,
        )


def dump_trace(trace: TraceRecorder, path: PathLike) -> int:
    """Write the trace to ``path`` as JSON Lines.

    Returns:
        The number of events written.
    """
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.writelines(line + "\n" for line in canonical_lines(trace))
    return len(trace)


def load_trace(path: PathLike) -> TraceRecorder:
    """Load a JSON Lines trace file back into a :class:`TraceRecorder`.

    Raises:
        SimulationError: if the file's sequence numbers are not the
            contiguous run ``0..n-1`` (a corrupted or truncated file).
    """
    recorder = TraceRecorder()
    source = Path(path)
    with source.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            if payload["seq"] != line_number:
                raise SimulationError(
                    f"{source}: event at line {line_number + 1} has "
                    f"seq={payload['seq']}; trace files must be contiguous"
                )
            recorder.record(
                payload["time"],
                payload["site"],
                payload["category"],
                payload["name"],
                payload["details"],
            )
    return recorder


def event_key(event: TraceEvent) -> tuple:
    """The comparable identity of an event (everything but nothing)."""
    return (
        event.seq,
        event.time,
        event.site,
        event.category,
        event.name,
        tuple(sorted(event.details.items())),
    )


def diff_traces(
    a: Iterable[TraceEvent], b: Iterable[TraceEvent]
) -> list[tuple[int, str, str]]:
    """First-divergence-oriented diff of two traces.

    Returns:
        ``(index, left, right)`` triples for every position where the
        traces disagree; ``"<missing>"`` marks a shorter trace's end.
        An empty list means the runs were identical.
    """
    left = list(a)
    right = list(b)
    differences: list[tuple[int, str, str]] = []
    for index in range(max(len(left), len(right))):
        left_event = left[index] if index < len(left) else None
        right_event = right[index] if index < len(right) else None
        if (
            left_event is not None
            and right_event is not None
            and event_key(left_event) == event_key(right_event)
        ):
            continue
        differences.append(
            (
                index,
                str(left_event) if left_event is not None else "<missing>",
                str(right_event) if right_event is not None else "<missing>",
            )
        )
    return differences
