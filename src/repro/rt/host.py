"""One live site: unmodified engines over a socket and a real log.

:class:`SiteHost` is the live counterpart of what :class:`~repro.mdbs.system.MDBS`
does per site under simulation: it builds a :class:`~repro.mdbs.site.Site`
— the *same* class, hosting the same engine code — but wires it to a
:class:`~repro.rt.transport.LiveTransport` instead of the simulated
network and to file-backed storage instead of the in-memory log/store.

There is one description of a site, :class:`SiteConfig`, and one boot
path, :meth:`SiteHost.start`: bind the port, build the site from its
data directory, and run boot-time recovery (:meth:`Site.cold_recover`:
log analysis, redo against the durable snapshot, re-adoption of
in-doubt transactions) iff a WAL was there before the build — a
previous incarnation died here, in this run or an earlier one. A site
booting on an empty directory has nothing to analyze, same as under
simulation. The in-process cluster and the out-of-process
``repro.rt.proc.site_process`` child both host their sites through
this class, so they build byte-identical sites from the same directory
and recover the same way.

Kill/restart semantics match a process death:

* :meth:`kill` crashes the site (volatile state and the unforced log
  buffer are lost; this is :meth:`Site.crash`) and closes its port —
  in-flight peers see connection resets, i.e. omission failures.
* :meth:`restart` *is* :meth:`start`: a **new** ``Site`` is loaded from
  disk. Nothing from the old object survives, exactly as nothing
  survives a real process exit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from repro.db.recovery import LocalRecoveryReport
from repro.errors import SiteDownError
from repro.mdbs.site import Site
from repro.protocols.base import TimeoutConfig
from repro.protocols.registry import selector_for
from repro.replication import ReplicationConfig
from repro.rt.runtime import LiveRuntime
from repro.rt.codec import WireCodec
from repro.rt.store import FileBackedStore
from repro.rt.transport import LiveTransport
from repro.storage.file_log import FileStableLog, GroupCommitFileLog
from repro.storage.group_commit import GroupCommitConfig
from repro.storage.pcp import CommitProtocolDirectory

#: File names inside a site's data directory.
WAL_FILE = "wal.jsonl"
STORE_FILE = "store.json"


@dataclass(frozen=True)
class SiteConfig:
    """What one live site is made of; JSON-round-trippable
    (``dataclasses.asdict`` / :meth:`from_dict`) so a child process
    boots from the same value the in-process host takes.

    Attributes:
        site_id: the site's id.
        protocol: the 2PC variant its participant engine runs.
        data_dir: directory holding its WAL and store snapshot.
        coordinator: the coordinator policy its coordinator engine
            runs, or ``None`` when the site cannot coordinate.
        replication: the acceptor group the site belongs to (as leader
            or acceptor), or ``None``; attaches the Paxos Commit layer
            exactly as under simulation — acceptor ACCEPT records land
            in the same WAL and survive a process death.
        timeouts: protocol timers (``None`` = engine defaults).
        read_only_optimization: whether read-only participants skip
            the second phase.
        fsync: whether the log and store fsync (tests may disable).
        group_commit: when set, the WAL coalesces forces into windows
            (:class:`~repro.storage.file_log.GroupCommitFileLog`).
        codec: ``"json"`` or ``"binary"``: wire framing and WAL format.
    """

    site_id: str
    protocol: str
    data_dir: str
    coordinator: Optional[str] = None
    replication: Optional[ReplicationConfig] = None
    timeouts: Optional[TimeoutConfig] = None
    read_only_optimization: bool = True
    fsync: bool = True
    group_commit: Optional[GroupCommitConfig] = None
    codec: str = "json"

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SiteConfig":
        data = dict(data)
        for key, load in (
            ("replication", ReplicationConfig.from_dict),
            ("timeouts", lambda value: TimeoutConfig(**value)),
            ("group_commit", lambda value: GroupCommitConfig(**value)),
        ):
            if data.get(key) is not None:
                data[key] = load(data[key])
        return cls(**data)


def build_site(
    rt: LiveRuntime,
    transport: LiveTransport,
    pcp: CommitProtocolDirectory,
    config: SiteConfig,
) -> Site:
    """Construct a live :class:`Site` over file-backed storage.

    The one place the live stack decides what a site is made of: a
    (group-commit) WAL at ``data_dir/wal.jsonl`` (JSONL or binary per
    ``config.codec``), a JSON store snapshot at ``data_dir/store.json``,
    and the unmodified engines wired to ``transport``.
    """
    site_id, fsync, codec = config.site_id, config.fsync, config.codec
    data_dir = Path(config.data_dir)
    wal_path = data_dir / WAL_FILE
    if config.group_commit is not None:
        log: FileStableLog = GroupCommitFileLog(
            rt, site_id, wal_path, config.group_commit, fsync=fsync, codec=codec
        )
    else:
        log = FileStableLog(rt, site_id, wal_path, fsync=fsync, codec=codec)
    store = FileBackedStore(data_dir / STORE_FILE, fsync=fsync)
    coordinator = config.coordinator
    selector = selector_for(coordinator) if coordinator is not None else None
    return Site(
        rt,
        transport,
        pcp,
        site_id,
        config.protocol,
        selector,
        config.timeouts,
        read_only_optimization=config.read_only_optimization,
        log=log,
        store=store,
        replication=config.replication,
    )


class SiteHost:
    """Hosts one protocol site as a live TCP service.

    Args:
        rt: the live runtime (clock + trace) the site runs on.
        directory: shared ``{site_id: (host, port)}`` map.
        pcp: the commit-protocol directory.
        config: what the site is made of.
        host, port: the address its transport binds (``port=0``: an
            ephemeral one, kept across restarts).
        wire_codec: the codec instance to frame messages with (a
            cluster in one process shares one); defaults to JSON.
    """

    def __init__(
        self,
        rt: LiveRuntime,
        directory: dict[str, tuple[str, int]],
        pcp: CommitProtocolDirectory,
        config: SiteConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        wire_codec: Optional[WireCodec] = None,
    ) -> None:
        self._rt = rt
        self._pcp = pcp
        self.config = config
        self.site_id = config.site_id
        self.transport = LiveTransport(
            rt, config.site_id, directory, host=host, port=port, codec=wire_codec
        )
        self.site: Optional[Site] = None

    @property
    def is_up(self) -> bool:
        return self.site is not None and self.site.is_up

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> Optional[LocalRecoveryReport]:
        """Boot from disk: bind the port (unless the cluster already
        did), build the site over the on-disk log and store snapshot,
        and run boot-time recovery iff the WAL was there before the
        build (its report is returned; ``None`` on a fresh directory)."""
        if self.is_up:
            raise SiteDownError(f"host {self.site_id!r} is still running")
        if not self.transport.is_listening:
            await self.transport.start()
        recovering = (Path(self.config.data_dir) / WAL_FILE).exists()
        self.site = build_site(self._rt, self.transport, self._pcp, self.config)
        return self.site.cold_recover() if recovering else None

    #: Coming back after :meth:`kill` is the same boot; the WAL the dead
    #: incarnation left makes it a recovering one.
    restart = start

    async def kill(self) -> None:
        """Process death: crash the site, close the port."""
        if self.site is None or not self.site.is_up:
            raise SiteDownError(f"host {self.site_id!r} is not running")
        self.site.crash()
        await self.transport.stop()

    async def close(self) -> None:
        """Orderly shutdown (end of run, not a crash)."""
        await self.transport.stop()
        if self.site is not None and self.site.is_up:
            # The replicated leader's log is the decision-log wrapper
            # around the file log; close the file underneath it.
            log = getattr(self.site.log, "inner", self.site.log)
            if isinstance(log, FileStableLog):
                log.close()

    def __repr__(self) -> str:
        state = "up" if self.is_up else "down"
        return f"SiteHost({self.site_id!r}, {self.config.protocol}, {state})"
