"""The seam: a stable-log wrapper that replicates coordinator writes.

The coordinator engine is untouched — it force-appends its initiation
and decision records exactly as before. This wrapper intercepts those
two record classes on the *leader's* log:

* an INITIATION record is forced locally, then *registered* with a
  majority of acceptors before the stability callback fires (so no
  PREPARE leaves before a quorum can tell a takeover who is involved);
* a coordinator decision record is first driven through Paxos phase 2
  at the leader's fast-path ballot ``[0, leader]`` — the decision
  exists once a majority accepted it, which is exactly when the
  engine's decide-at-stability callback (``decides_at_stability``)
  fires; the local force follows the quorum. A nack (some takeover
  promised a higher ballot) demotes the leader to an ordinary
  proposer: phase 1, adopt any previously accepted value — possibly
  *flipping* the engine's own decision to the quorum's — then phase 2
  at the higher ballot.

Everything else (prepared records, updates, END, participant-side
decisions) passes straight through to the wrapped log.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.events import Outcome
from repro.net.network import Network
from repro.replication.config import ReplicationConfig
from repro.replication.messages import PX_1A, PX_2A, PX_REGISTER, ballot_key
from repro.sim.kernel import Simulator
from repro.storage.log_records import LogRecord, RecordType
from repro.storage.stable_log import StableLog


class ReplicatedDecisionLog:
    """Log wrapper replicating the leader's coordinator records."""

    def __init__(
        self,
        inner: StableLog,
        sim: Simulator,
        site_id: str,
        network: Network,
        config: ReplicationConfig,
    ) -> None:
        self.inner = inner
        self._sim = sim
        self._site_id = site_id
        self._network = network
        self._config = config
        self._runtime = None  # SiteReplication; bound by the facade
        self._engine = None  # CoordinatorEngine; bound by the facade

    def bind(self, runtime, engine) -> None:
        self._runtime = runtime
        self._engine = engine

    @property
    def decides_at_stability(self) -> bool:
        """A coordinator decision is a proposal until a quorum accepts
        it, and may come back flipped."""
        return True

    # -- the intercepted write path ------------------------------------------------

    def force_append_async(
        self,
        record: LogRecord,
        on_stable: Optional[Callable[[], None]] = None,
    ) -> LogRecord:
        if record.type is RecordType.INITIATION:
            return self.inner.force_append_async(
                record, lambda: self._register(record, on_stable)
            )
        if record.is_decision and record.get("by") == "coordinator":
            self._propose(record, on_stable)
            return record
        return self.inner.force_append_async(record, on_stable)

    def _register(
        self, record: LogRecord, on_stable: Optional[Callable[[], None]]
    ) -> None:
        txn_id = record.txn_id
        payload = {
            "participants": record.get("participants") or [],
            "protocols": record.get("protocols") or {},
        }

        def registered(acks: dict) -> None:
            self._sim.record(
                self._site_id,
                "replication",
                "registered",
                txn=txn_id,
                acks=len(acks),
            )
            if on_stable is not None:
                on_stable()

        self._runtime.call(
            PX_REGISTER, txn_id, payload, registered, label=f"reg {txn_id}"
        )

    def _propose(
        self, record: LogRecord, on_stable: Optional[Callable[[], None]]
    ) -> None:
        entry = self._engine.table.get(record.txn_id) if self._engine else None
        protocols = dict(entry.protocols) if entry is not None else {}
        self._phase2(
            record,
            on_stable,
            ballot=[0, self._site_id],
            value=record.type.value,
            participants=list(record.get("participants") or []),
            protocols=protocols,
        )

    def _phase2(
        self,
        record: LogRecord,
        on_stable: Optional[Callable[[], None]],
        ballot: list,
        value: str,
        participants: list[str],
        protocols: dict[str, str],
    ) -> None:
        payload: dict[str, Any] = {
            "ballot": ballot,
            "value": value,
            "participants": participants,
            "protocols": protocols,
        }

        def accepted(acks: dict) -> None:
            self._sim.record(
                self._site_id,
                "replication",
                "replicated",
                txn=record.txn_id,
                ballot=ballot[0],
                decision=value,
                acks=len(acks),
            )
            self._adopt(record, value, on_stable)

        def rejected(acceptor: str, info: dict) -> None:
            promised = info.get("promised") or ballot
            self._phase1(
                record,
                on_stable,
                ballot=[int(promised[0]) + 1, self._site_id],
                participants=participants,
                protocols=protocols,
            )

        self._runtime.call(
            PX_2A,
            record.txn_id,
            payload,
            accepted,
            rejected,
            label=f"2a {record.txn_id}",
        )

    def _phase1(
        self,
        record: LogRecord,
        on_stable: Optional[Callable[[], None]],
        ballot: list,
        participants: list[str],
        protocols: dict[str, str],
    ) -> None:
        """The demoted leader: someone else promised a higher ballot."""

        def promised(acks: dict) -> None:
            best_ballot: Optional[list] = None
            chosen = record.type.value
            for payload in acks.values():
                info = (payload.get("txns") or {}).get(record.txn_id)
                if not info or info.get("accepted_value") is None:
                    continue
                accepted_at = info["accepted_ballot"]
                if best_ballot is None or ballot_key(accepted_at) > ballot_key(
                    best_ballot
                ):
                    best_ballot = accepted_at
                    chosen = info["accepted_value"]
            self._phase2(record, on_stable, ballot, chosen, participants, protocols)

        def rejected(acceptor: str, info: dict) -> None:
            bumped = max(int((info.get("promised") or ballot)[0]) + 1, ballot[0] + 1)
            self._phase1(
                record,
                on_stable,
                ballot=[bumped, self._site_id],
                participants=participants,
                protocols=protocols,
            )

        self._runtime.call(
            PX_1A,
            record.txn_id,
            {"ballot": ballot, "txns": [record.txn_id]},
            promised,
            rejected,
            label=f"1a {record.txn_id}",
        )

    def _adopt(
        self,
        record: LogRecord,
        chosen: str,
        on_stable: Optional[Callable[[], None]],
    ) -> None:
        """Force the quorum-chosen decision locally, then release it."""
        if chosen != record.type.value:
            # A takeover already decided differently; the engine's
            # in-memory decision must follow the quorum before the
            # stability callback emits and sends it.
            record.type = (
                RecordType.COMMIT if chosen == "commit" else RecordType.ABORT
            )
            record.payload["adopted"] = True
            entry = self._engine.table.get(record.txn_id) if self._engine else None
            if entry is not None:
                entry.decision = (
                    Outcome.COMMIT if chosen == "commit" else Outcome.ABORT
                )
        self.inner.force_append_async(record, on_stable)

    # -- explicit lifecycle pass-throughs ------------------------------------------

    def crash(self) -> int:
        return self.inner.crash()

    def reopen(self) -> None:
        self.inner.reopen()

    def __getattr__(self, name: str):
        # Everything else (append, flush, stable_records, gc, counters,
        # site_id, ...) is the wrapped log's business.
        return getattr(self.inner, name)

    def __repr__(self) -> str:
        return f"ReplicatedDecisionLog({self.inner!r})"
