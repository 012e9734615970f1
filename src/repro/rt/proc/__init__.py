"""Process-per-site live runtime.

Promotes the in-process :class:`~repro.rt.host.SiteHost` to a real OS
process: :mod:`~repro.rt.proc.site_process` is the child entrypoint
(the same host, booted the same recovery-first way, plus a control
connection),
:mod:`~repro.rt.proc.supervisor` spawns/monitors/respawns the children
and presents the :class:`~repro.rt.cluster.LiveCluster` surface, and
:mod:`~repro.rt.proc.config`/:mod:`~repro.rt.proc.control` carry the
boot configuration and the control-plane wire protocol. ``SIGKILL``
crash injection at the catalogued crash points runs *inside* the victim
process (``KillSpec``), so the crash-matrix tests exercise real process
death, not simulated flags.
"""

from repro.rt.proc.config import KillSpec, SiteProcessConfig
from repro.rt.proc.control import ProcessControlError
from repro.rt.proc.site_process import CRASH_POINTS, SiteProcess
from repro.rt.proc.supervisor import (
    SPAWNED_PROCESSES,
    ProcessCluster,
    RemoteSite,
)

__all__ = [
    "CRASH_POINTS",
    "KillSpec",
    "ProcessCluster",
    "ProcessControlError",
    "RemoteSite",
    "SPAWNED_PROCESSES",
    "SiteProcess",
    "SiteProcessConfig",
]
