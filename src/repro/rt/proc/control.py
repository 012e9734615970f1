"""The supervisor <-> site-process control protocol.

One TCP connection per child, dialled by the child to the supervisor's
control server, with one :class:`asyncio.Protocol` on each end and one
:class:`ControlDecoder` in each; a decoder error ends the connection.
Frames are newline-delimited JSON: small, line-oriented, trivially
inspectable in a post-mortem capture. That is the only control format:
a deployment's json-or-binary choice covers the data plane's wire
framing and the WAL, not this side channel, which carries no protocol
message and no forced write.

Child -> supervisor frames (``kind``):

* ``hello`` — first frame after boot: pid, the boot-recovery report
  (``null`` on a fresh WAL) and the name of the child's trace file.
  Doubles as the liveness announcement the supervisor's spawn/respawn
  paths await.
* ``event`` — a notification of one trace event a live reader may wait
  on (decisions, forgets, peer and recovery events): every category but
  ``msg``, ``log`` and ``db``. The supervisor records it live and keeps
  nothing else of it; the child's trace file has the event too.
* ``reply`` — response to a command, echoing its ``id``.

Supervisor -> child frames: ``cmd`` with an ``id`` and an ``op`` (see
``repro.rt.proc.site_process.SiteProcess`` for the op table).

The child's trace file is its whole record: every event but ``msg``,
each line one JSON array of ``[seq, time, category, name, details]``
rows in ``seq`` order. Each event-loop tick's rows reach the file before
that tick's frames leave, so a reply follows every row and event its
command caused.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

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


class ControlDecoder:
    """Incremental newline-JSON parser over an arbitrary chunking of
    the control stream.

    Args:
        max_line: per-line byte ceiling, newline excluded; a line still
            open when its bytes pass it fails at once, across feeds.

    Example:
        >>> decoder = ControlDecoder()
        >>> line = encode_control({"kind": "cmd", "id": 1, "op": "ping"})
        >>> decoder.feed(line[:5]) + decoder.feed(line[5:])
        [{'kind': 'cmd', 'id': 1, 'op': 'ping'}]
    """

    def __init__(self, max_line: int = MAX_CONTROL_LINE) -> None:
        self._max = max_line
        #: The line still open: bytes after the last newline.
        self._open = bytearray()

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        """Consume a chunk; return every frame it completed.

        Raises:
            ProcessControlError: on an oversized line, malformed JSON
                or a frame that is not an object. The buffer is emptied
                and the caller must drop the connection.
        """
        try:
            end = data.rfind(b"\n")
            if end < 0:
                self._open += data
                self._check_size(len(self._open))
                return []
            lines = (self._open + data[:end]).split(b"\n")
            self._open = bytearray(data[end + 1 :])
            self._check_size(len(self._open))
            return [self._decode(line) for line in lines]
        except ProcessControlError:
            self._open = bytearray()
            raise

    def _check_size(self, size: int) -> None:
        if size > self._max:
            raise ProcessControlError(
                f"oversized control frame: {size} bytes, over {self._max}"
            )

    def _decode(self, line: bytes) -> dict[str, Any]:
        self._check_size(len(line))
        try:
            frame = json.loads(line)
        except ValueError as exc:  # bad JSON, or bytes that are not text at all
            raise ProcessControlError(f"malformed control frame: {exc}")
        if not isinstance(frame, dict):
            raise ProcessControlError(f"control frame is not an object: {frame!r}")
        return frame


# -- the trace file -------------------------------------------------------------


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
