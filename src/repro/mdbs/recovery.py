"""Whole-system recovery helpers and recovery-cost accounting.

The per-site mechanics live in :mod:`repro.db.recovery` (local redo /
in-doubt re-adoption) and :mod:`repro.protocols.coordinator` /
:mod:`repro.protocols.recovery` (§4.2 coordinator log analysis). This
module adds what the recovery *experiment* (R1) needs: bring every
down site back, and measure how much work recovery caused.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mdbs.system import MDBS
from repro.sim.tracing import TraceRecorder


@dataclass
class RecoveryCosts:
    """Work performed between a recovery point and quiescence."""

    recovered_sites: list[str] = field(default_factory=list)
    reinitiated_decisions: int = 0
    inquiries: int = 0
    presumed_responses: int = 0
    messages_sent: int = 0
    in_doubt_resolved: int = 0

    def __str__(self) -> str:
        return (
            f"RecoveryCosts(sites={self.recovered_sites}, "
            f"reinitiated={self.reinitiated_decisions}, "
            f"inquiries={self.inquiries}, "
            f"presumed={self.presumed_responses}, "
            f"messages={self.messages_sent}, "
            f"in_doubt_resolved={self.in_doubt_resolved})"
        )


def recover_all_down_sites(mdbs: MDBS) -> list[str]:
    """Recover every crashed site now; returns the recovered site ids."""
    recovered = []
    for site in mdbs.sites.values():
        if not site.is_up:
            site.recover()
            recovered.append(site.site_id)
    return recovered


def measure_recovery(mdbs: MDBS, run_until: float) -> RecoveryCosts:
    """Recover all down sites, run to ``run_until``, and account the work.

    Only events recorded *after* the recovery point are counted, so the
    result isolates recovery-phase traffic from normal processing.
    """
    costs = RecoveryCosts()
    start_seq = len(mdbs.sim.trace)
    costs.recovered_sites = recover_all_down_sites(mdbs)
    mdbs.run(until=run_until)
    costs.reinitiated_decisions = _count_since(
        mdbs.sim.trace, start_seq, "protocol", "decide", recovered=True
    )
    costs.inquiries = _count_since(mdbs.sim.trace, start_seq, "protocol", "inquiry")
    costs.presumed_responses = _count_since(
        mdbs.sim.trace, start_seq, "protocol", "respond", presumed=True
    )
    costs.messages_sent = _count_since(mdbs.sim.trace, start_seq, "msg", "send")
    costs.in_doubt_resolved = _count_since(
        mdbs.sim.trace, start_seq, "db", "commit"
    ) + _count_since(mdbs.sim.trace, start_seq, "db", "abort")
    return costs


def _count_since(
    trace: TraceRecorder, start_seq: int, category: str, name: str, **details
) -> int:
    return sum(1 for event in trace.select(category, name, **details) if event.seq >= start_seq)
