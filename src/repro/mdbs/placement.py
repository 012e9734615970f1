"""Coordinator placement: which site coordinates which transaction.

With sharded coordinators every site hosts both a participant engine and
a coordinator engine, and each transaction is *placed* on one of them.
A :class:`PlacementPolicy` maps a transaction id plus the set of
coordinator-capable sites eligible for it (a transaction's coordinator
must not also be one of its participants) to the owning site.

Placement must be deterministic across processes and runs: the live
cluster, the multi-process supervisor and the simulator all place the
same transaction stream independently and must agree byte for byte.
That rules out the builtin ``hash`` (salted per process via
``PYTHONHASHSEED``); :class:`HashPlacement` hashes with SHA-256 instead.
"""

from __future__ import annotations

import hashlib
from typing import Protocol, Sequence

from repro.errors import WorkloadError


class PlacementPolicy(Protocol):
    """Chooses the coordinating site for a transaction."""

    def choose(self, txn_id: str, eligible: Sequence[str]) -> str:
        """Return the owning coordinator for ``txn_id``.

        ``eligible`` is the set of coordinator-capable sites that are
        not participants of this transaction; it is never empty.
        """
        ...


class HashPlacement:
    """``sha256(txn_id) mod |eligible|`` over the sorted eligible set.

    Stateless and history-free: the same transaction id always lands on
    the same site given the same eligible set, regardless of submission
    order, process boundaries or interleaving — which is what lets the
    sharded runtimes and the simulator agree on ownership.
    """

    name = "hash"

    def choose(self, txn_id: str, eligible: Sequence[str]) -> str:
        ordered = sorted(eligible)
        if not ordered:
            raise WorkloadError(
                f"transaction {txn_id!r} has no eligible coordinator"
            )
        digest = hashlib.sha256(txn_id.encode("utf-8")).digest()
        return ordered[int.from_bytes(digest[:8], "big") % len(ordered)]
