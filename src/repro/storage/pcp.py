"""Participants' Commit Protocol (PCP) directory and its APP view.

Section 4 of the paper: a PrAny coordinator records the 2PC variant
employed by each participant in a stable table called the
*participants' commit protocol* (PCP) table, updated when a site joins
or leaves the environment. A main-memory portion, the *active
participants' protocols* (APP) table, holds the protocols of
participants with active transactions; the coordinator consults it to
select the protocol for each transaction.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import UnknownProtocolError


class CommitProtocolDirectory:
    """Stable site → commit-protocol mapping (the PCP table).

    The directory survives crashes (it is "kept on stable storage" in
    the paper), so :meth:`crash`/:meth:`recover` do not clear it; they
    only flush the volatile APP cache.
    """

    def __init__(
        self, known_protocols: Iterable[str] = ("PrN", "PrA", "PrC", "IYV", "CL")
    ) -> None:
        self._known = set(known_protocols)
        self._pcp: dict[str, str] = {}
        self._app: dict[str, str] = {}
        self._coordinators: set[str] = set()

    @classmethod
    def listing(
        cls, protocols: Mapping[str, str], coordinators: Iterable[str]
    ) -> "CommitProtocolDirectory":
        """A directory with each site of ``protocols`` registered under
        its protocol, and each of ``coordinators`` as a coordinator."""
        pcp = cls()
        for site_id, protocol in protocols.items():
            pcp.register_site(site_id, protocol)
        for site_id in coordinators:
            pcp.register_coordinator(site_id)
        return pcp

    # -- membership ----------------------------------------------------------

    def register_site(self, site_id: str, protocol: str) -> None:
        """Record that ``site_id`` employs ``protocol`` (joins the MDBS)."""
        if protocol not in self._known:
            raise UnknownProtocolError(
                f"site {site_id!r} declares unknown protocol {protocol!r}; "
                f"known: {sorted(self._known)}"
            )
        self._pcp[site_id] = protocol

    def deregister_site(self, site_id: str) -> None:
        """Remove a site that left the distributed environment."""
        self._pcp.pop(site_id, None)
        self._app.pop(site_id, None)

    def register_coordinator(self, site_id: str) -> None:
        """Record that ``site_id`` can coordinate transactions.

        Log-less (coordinator-log) participants use this directory to
        know whom to pull redo information from after a restart.
        """
        self._coordinators.add(site_id)

    def coordinators(self) -> list[str]:
        """All coordinator-capable sites, in a stable order."""
        return sorted(self._coordinators)

    def knows(self, site_id: str) -> bool:
        return site_id in self._pcp

    def protocol_of(self, site_id: str) -> str:
        """The commit protocol ``site_id`` employs.

        Raises:
            UnknownProtocolError: if the site was never registered.
        """
        try:
            return self._pcp[site_id]
        except KeyError:
            raise UnknownProtocolError(
                f"no commit protocol registered for site {site_id!r}"
            ) from None

    def protocols_of(self, site_ids: Iterable[str]) -> dict[str, str]:
        """Mapping of each given site to its protocol."""
        return {site_id: self.protocol_of(site_id) for site_id in site_ids}

    # -- APP view --------------------------------------------------------------

    def activate(self, site_ids: Iterable[str]) -> Mapping[str, str]:
        """Load the given sites into the in-memory APP table."""
        for site_id in site_ids:
            self._app[site_id] = self.protocol_of(site_id)
        return dict(self._app)

    def deactivate(self, site_ids: Iterable[str]) -> None:
        """Drop sites with no remaining active transactions from APP."""
        for site_id in site_ids:
            self._app.pop(site_id, None)

    @property
    def app(self) -> Mapping[str, str]:
        """Read-only snapshot of the active participants' protocols."""
        return dict(self._app)

    # -- crash behaviour ---------------------------------------------------------

    def crash(self) -> None:
        """A crash loses the volatile APP view; the PCP itself is stable."""
        self._app.clear()

    def snapshot(self) -> dict[str, str]:
        """Copy of the full stable PCP table."""
        return dict(self._pcp)

    def __len__(self) -> int:
        return len(self._pcp)

    def __repr__(self) -> str:
        return f"CommitProtocolDirectory(sites={len(self._pcp)}, app={len(self._app)})"
