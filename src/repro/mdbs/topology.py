"""Cluster topology: which sites exist and what each one hosts.

A :class:`Topology` is the one value that says how the coordinator role
is laid out over a protocol mix. Three shapes exist:

* :meth:`Topology.single` — one coordinator site (``"tm"``) next to the
  mix's participant sites;
* :meth:`Topology.sharded` — no ``tm`` site: every mix site hosts a
  coordinator engine beside its participant engine, and each
  transaction is hash-placed on a site it does not touch
  (:mod:`repro.mdbs.placement`);
* :meth:`Topology.replicated` — the ``tm`` coordinator composed with a
  Paxos acceptor group ``acc0..`` (:mod:`repro.replication`), each
  acceptor also hosting a coordinator engine so a takeover can complete
  in-flight transactions.

The simulator (:func:`~repro.workloads.generator.build_mdbs`), the
in-process cluster and the process-per-site cluster all materialize
their sites from :meth:`Topology.sites`, so the three runtimes cannot
disagree about the layout. ``--sharded`` / ``--replicated N`` on the
command line and the ``sharded`` / ``replicated`` keys of an explore
artifact are the serialised form of this value
(:meth:`Topology.from_flags` / :meth:`Topology.flags`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import WorkloadError
from repro.mdbs.placement import HashPlacement, PlacementPolicy
from repro.replication.config import ReplicationConfig

if TYPE_CHECKING:
    from repro.workloads.mixes import ProtocolMix

#: Site id of the coordinating transaction manager.
COORDINATOR_ID = "tm"


def _group(group: "int | ReplicationConfig") -> ReplicationConfig:
    if isinstance(group, ReplicationConfig):
        return group
    return ReplicationConfig.for_group(group, leader=COORDINATOR_ID)


@dataclass(frozen=True)
class SiteSpec:
    """One site of a materialized topology.

    Attributes:
        site_id: the site's id.
        protocol: the 2PC variant its participant engine runs.
        coordinator: the coordinator policy its coordinator engine runs,
            or ``None`` when the site cannot coordinate.
        replication: the acceptor group the site belongs to (as leader
            or acceptor), or ``None``.
    """

    site_id: str
    protocol: str
    coordinator: Optional[str] = None
    replication: Optional[ReplicationConfig] = None


@dataclass(frozen=True)
class Topology:
    """Where coordinators live. Build one with :meth:`single`,
    :meth:`sharded`, :meth:`replicated` or :meth:`from_flags`."""

    coordinator_per_site: bool = False
    replication: Optional[ReplicationConfig] = None

    def __post_init__(self) -> None:
        if self.coordinator_per_site and self.replication is not None:
            raise WorkloadError(
                "sharded and replicated are mutually exclusive topologies: "
                "an acceptor group replicates the single-coordinator "
                "topology's tm site"
            )

    @classmethod
    def single(cls) -> "Topology":
        return cls()

    @classmethod
    def sharded(cls) -> "Topology":
        return cls(coordinator_per_site=True)

    @classmethod
    def replicated(cls, group: "int | ReplicationConfig") -> "Topology":
        """``tm`` over ``group`` acceptors; pass a
        :class:`ReplicationConfig` to override membership or liveness
        timers (a dense benchmark relaxing ``failover_timeout``)."""
        return cls(replication=_group(group))

    @classmethod
    def from_flags(cls, sharded: bool = False, replicated: int = 0) -> "Topology":
        """The topology a ``--sharded`` / ``--replicated N`` pair (or an
        artifact's ``sharded`` / ``replicated`` keys) names.

        Raises:
            WorkloadError: both are set.
        """
        return cls(bool(sharded), _group(replicated) if replicated else None)

    def flags(self) -> dict[str, Any]:
        """Inverse of :meth:`from_flags`, naming only what is set."""
        if self.coordinator_per_site:
            return {"sharded": True}
        if self.replication is not None:
            return {"replicated": len(self.replication.acceptors)}
        return {}

    @property
    def label(self) -> str:
        """Human-readable shape (empty for the single coordinator)."""
        if self.coordinator_per_site:
            return "sharded coordinators"
        if self.replication is not None:
            return (
                f"tm replicated over {len(self.replication.acceptors)} "
                "acceptors"
            )
        return ""

    @property
    def placement(self) -> Optional[PlacementPolicy]:
        """How a workload generator picks each transaction's
        coordinator; ``None`` means the fixed ``tm`` site."""
        return HashPlacement() if self.coordinator_per_site else None

    def participant_pool(self, n_sites: int) -> int:
        """How many of ``n_sites`` mix sites one transaction may touch:
        sharded placement needs one site left over to coordinate."""
        return n_sites - 1 if self.coordinator_per_site else n_sites

    def validate(self, mix: "ProtocolMix") -> None:
        """Reject a mix this topology cannot serve."""
        if self.coordinator_per_site and len(mix) < 2:
            raise WorkloadError(
                "sharded coordinators need at least 2 sites: each "
                "transaction's coordinator comes from the sites it does "
                "not touch"
            )
        if self.replication is not None:
            unsupported = {p for p in mix.protocols if p in ("IYV", "CL")}
            if unsupported:
                raise WorkloadError(
                    f"replication does not support the extension protocols "
                    f"{sorted(unsupported)} yet (coordinator-log retention "
                    f"and implicit voting are not registered with the quorum)"
                )

    def sites(self, mix: "ProtocolMix", policy: str) -> list[SiteSpec]:
        """Every site of this topology over ``mix``, coordinators
        running ``policy``: the mix sites in mix order, then ``tm``
        (``"PrN"`` as a participant protocol; it never participates),
        then the acceptors."""
        group = self.replication
        layout = [
            SiteSpec(
                site_id,
                protocol,
                coordinator=policy if self.coordinator_per_site else None,
            )
            for site_id, protocol in mix.site_protocols().items()
        ]
        if not self.coordinator_per_site:
            layout.append(SiteSpec(COORDINATOR_ID, "PrN", policy, group))
        if group is not None:
            layout += [
                SiteSpec(acceptor_id, "PrN", policy, group)
                for acceptor_id in group.acceptors
            ]
        return layout
