"""Serialized boot configuration for one site process.

The supervisor (``repro.rt.proc.supervisor``) writes one
``proc.json`` per site into that site's data directory; the child
process (``repro.rt.proc.site_process``) reads it back as its complete
world view: the site it hosts (a :class:`~repro.rt.host.SiteConfig`,
the value an in-process host takes too) inside the per-process
envelope — the supervisor's control address, the address directory of
every site (its own included), the commit-protocol listing, the
shared virtual-time epoch, and (for crash-injection runs) the
catalogued instant at which it must ``SIGKILL`` itself.

The file is plain JSON on purpose: it survives the respawn path — a
restarted child boots from the *same* file, so a supervisor crash
between spawn and restart cannot change what the site believes — and a
human post-morteming a CI artifact can read it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.errors import WorkloadError
from repro.rt.host import SiteConfig


@dataclass(frozen=True)
class KillSpec:
    """A self-inflicted ``SIGKILL`` at a catalogued crash point.

    Attributes:
        point: a :class:`~repro.workloads.failure_schedules.CrashPoint`
            name (e.g. ``"part-after-prepared"``).
        txn: the transaction whose event arms the predicate.
    """

    point: str
    txn: str


@dataclass
class SiteProcessConfig:
    """Everything a :class:`~repro.rt.proc.site_process.SiteProcess`
    needs to boot (JSON-serializable): the site itself, and the
    per-process envelope around it."""

    #: What the site is made of — the same value an in-process
    #: :class:`~repro.rt.host.SiteHost` takes.
    site: SiteConfig
    #: Where to reach the supervisor's control server.
    control_host: str
    control_port: int
    #: site id -> [host, port] for every site, self included; this
    #: site's data transport binds its own entry (pre-allocated by the
    #: supervisor so the full directory is known before any child runs).
    directory: dict[str, list[Any]] = field(default_factory=dict)
    #: site id -> protocol, for the commit-protocol directory (PCP).
    site_protocols: dict[str, str] = field(default_factory=dict)
    #: Sites registered as coordinators in the PCP.
    coordinator_sites: list[str] = field(default_factory=list)
    time_scale: float = 0.01
    #: Shared ``time.time()`` epoch anchoring every process's virtual 0.
    wall_epoch: float = 0.0
    seed: int = 0
    kill: Optional[KillSpec] = None

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True),
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: Path) -> "SiteProcessConfig":
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            data["site"] = SiteConfig.from_dict(data["site"])
            if data.get("kill") is not None:
                data["kill"] = KillSpec(**data["kill"])
            return cls(**data)
        except (OSError, json.JSONDecodeError, TypeError, KeyError) as exc:
            raise WorkloadError(f"cannot load site config {path}: {exc}")
