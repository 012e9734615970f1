"""The supervisor <-> site-process control protocol.

One TCP connection per child, initiated by the child against the
supervisor's control server. Frames are newline-delimited JSON: small,
line-oriented, trivially inspectable in a post-mortem capture. That is
the only control format: a deployment's json-or-binary choice covers
the data plane's wire framing and the WAL, not this side channel,
which carries no protocol message and no forced write.

Child -> supervisor frames (``kind``):

* ``hello`` — first frame after boot: pid, bound data port, the
  boot-recovery report (``null`` on a fresh WAL) and the name of the
  child's trace file. Doubles as the liveness announcement the
  supervisor's spawn/respawn paths await.
* ``event`` — one trace event, streamed as it is recorded, with the
  child's own trace ``seq``: every category a live reader may wait on
  (decisions, forgets, peer and recovery events). ``msg`` events stay
  in the child (the equivalence footprint excludes them), and ``log``
  and ``db`` events go to the child's trace file. The supervisor
  merges stream and file by ``seq`` after the run, which restores the
  child's full trace order; the checkers need no more, since every
  order-sensitive relation they query is same-site.
* ``reply`` — response to a command, echoing its ``id``. Replies share
  the event stream, and the child writes its buffered trace-file rows
  before any frame leaves, so all events a command caused are on the
  wire or in the file before its reply.

Supervisor -> child frames: ``cmd`` with an ``id`` and an ``op`` (see
``repro.rt.proc.site_process.SiteProcess`` for the op table).

The child's trace file holds the rest of its trace: each line one JSON
array of ``[seq, time, category, name, details]`` rows.

Everything here is a tiny helper over those formats so both sides
agree on one encoding.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.db.recovery import LocalRecoveryReport
from repro.errors import ReproError

#: Control frame size cap — a summary of a large store is the biggest
#: legitimate frame; anything larger is a protocol bug.
MAX_CONTROL_LINE = 16 * 1024 * 1024


class ProcessControlError(ReproError):
    """A control-channel failure: child died mid-command, malformed
    frame, or an op raised inside the child."""


def encode_control(frame: dict[str, Any]) -> bytes:
    """One frame as a JSON line."""
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")


async def read_control(reader: asyncio.StreamReader) -> Optional[dict[str, Any]]:
    """Read one frame; ``None`` on EOF or a reset (peer process gone).

    Raises:
        ProcessControlError: on a malformed or oversized frame.
    """
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError) as exc:
        raise ProcessControlError(f"oversized control frame: {exc}")
    except ConnectionResetError:
        # A process SIGKILLed with control bytes still unread resets
        # its connection instead of closing it.
        return None
    if not line:
        return None
    try:
        frame = json.loads(line)
    except ValueError as exc:  # bad JSON, or bytes that are not text at all
        raise ProcessControlError(f"malformed control frame: {exc}")
    if not isinstance(frame, dict):
        raise ProcessControlError(f"control frame is not an object: {frame!r}")
    return frame


# -- the trace file -------------------------------------------------------------

#: Trace categories a site process writes to its trace file instead of
#: streaming them as ``event`` frames.
TRACE_FILE_CATEGORIES = frozenset({"log", "db"})


def encode_trace_rows(rows: list[tuple]) -> bytes:
    """One trace-file line: ``[seq, time, category, name, details]``
    rows as one JSON array."""
    return (json.dumps(rows, separators=(",", ":")) + "\n").encode("utf-8")


def read_trace_rows(path: Path) -> Iterator[list[Any]]:
    """The rows of a trace file, read one line at a time. A last line
    without its newline is a write the process's death cut short, and
    is skipped."""
    with open(path, "rb") as lines:
        for line in lines:
            if line.endswith(b"\n"):
                yield from json.loads(line)


# -- recovery-report wire form ------------------------------------------------


def recovery_to_dict(report: LocalRecoveryReport) -> dict[str, Any]:
    """JSON-safe form of a boot-recovery report (ships in ``hello``)."""
    return {
        "committed": sorted(report.committed),
        "aborted": sorted(report.aborted),
        "in_doubt": report.in_doubt,
        "implicitly_aborted": sorted(report.implicitly_aborted),
        "recovered_state": report.recovered_state,
    }


def recovery_from_dict(data: dict[str, Any]) -> LocalRecoveryReport:
    return LocalRecoveryReport(
        committed=set(data.get("committed", ())),
        aborted=set(data.get("aborted", ())),
        in_doubt=dict(data.get("in_doubt", {})),
        implicitly_aborted=set(data.get("implicitly_aborted", ())),
        recovered_state=dict(data.get("recovered_state", {})),
    )
