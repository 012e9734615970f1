"""The supervisor <-> site-process control protocol.

One TCP connection per child, initiated by the child against the
supervisor's control server. Frames are newline-delimited JSON: small,
line-oriented, trivially inspectable in a post-mortem capture. That is
the only control format: a deployment's json-or-binary choice covers
the data plane's wire framing and the WAL, not this side channel,
which carries no protocol message and no forced write.

Child -> supervisor frames (``kind``):

* ``hello`` — first frame after boot: pid, bound data port, and the
  boot-recovery report (``null`` on a fresh WAL). Doubles as the
  liveness announcement the supervisor's spawn/respawn paths await.
* ``event`` — one trace event, streamed as it is recorded (every
  category except the high-volume ``msg``, which the equivalence
  footprint excludes anyway). Per-child FIFO order is preserved, which
  is all the checkers need: every order-sensitive relation they query
  is same-site.
* ``reply`` — response to a command, echoing its ``id``. Replies share
  the event stream, so all events a command caused are on the wire
  before its reply.

Supervisor -> child frames: ``cmd`` with an ``id`` and an ``op`` (see
``repro.rt.proc.site_process.SiteProcess`` for the op table).

Everything here is a tiny helper over that wire format so both sides
agree on one encoding.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Optional

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
    """Read one frame; ``None`` on EOF (peer process gone).

    Raises:
        ProcessControlError: on a malformed or oversized frame.
    """
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError) as exc:
        raise ProcessControlError(f"oversized control frame: {exc}")
    if not line:
        return None
    try:
        frame = json.loads(line)
    except ValueError as exc:  # bad JSON, or bytes that are not text at all
        raise ProcessControlError(f"malformed control frame: {exc}")
    if not isinstance(frame, dict):
        raise ProcessControlError(f"control frame is not an object: {frame!r}")
    return frame


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
