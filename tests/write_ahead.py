"""The write-ahead rule for Yes votes, checked on a trace.

A participant's Yes may leave only after its prepared record is stable:
each ``msg.send`` of ``VOTE_YES`` at site S for transaction T must
follow a ``log.append type=prepared txn=T`` at S, with a ``log.force``
or ``log.flush`` at S after that append. A ``log.force`` carries only a
count, so stability is positional: every force syncs the whole file.
"""

from __future__ import annotations

from repro.protocols import VOTE_YES
from repro.storage.log_records import RecordType


def yes_vote_violations(trace) -> tuple[int, list[str]]:
    """How many Yes votes ``trace`` holds, and a line for each one sent
    before its prepared record was stable."""
    prepared: dict[tuple[str, str], int] = {}
    last_sync: dict[str, int] = {}
    checked, violations = 0, []
    for position, event in enumerate(trace):
        site, details = event.site, event.details
        if event.category == "log":
            if event.name == "append" and details["type"] == RecordType.PREPARED.value:
                prepared[site, details["txn"]] = position
            elif event.name in ("force", "flush"):
                last_sync[site] = position
        elif event.category == "msg" and event.name == "send":
            if details["kind"] != VOTE_YES:
                continue
            checked += 1
            appended = prepared.get((site, details["txn"]))
            if appended is None or last_sync.get(site, -1) < appended:
                violations.append(
                    f"event {position}: {site} voted Yes on {details['txn']} "
                    f"before its prepared record was stable"
                )
    return checked, violations
