"""Per-layer spans recorded from outside the program.

A traced run wraps the layers' public methods (``HOOKS``) with timing
closures installed from here; nothing under ``src/`` knows it is being
measured. Every call becomes a span: name, start, end, the span that
was open when it began (its parent), and the transaction id or a size
where the hook can read one. Spans stay in memory (column arrays, ~32
bytes each) and are written to ``perf/out/<workload>.spans.jsonl`` when
the run has ended.

Self time of a span is its duration minus the durations of its direct
children. Two hooks may share a span name when one implementation
calls the other (``FileStableLog.force`` -> ``StableLog.force``); the
inner span then only contributes self time, so counts and busy time are
those of the outermost call.

Coroutine methods (the cluster's ``run``/``finalize``) are recorded as
root spans and never become parents: other callbacks interleave with
them on the event loop, so "child of" would mean nothing.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass(frozen=True)
class Hook:
    """One method to wrap: ``target`` is ``module:attr.path``."""

    target: str
    span: str
    txn: Optional[Callable[[tuple], Any]] = None
    size: Optional[Callable[[tuple, Any], int]] = None
    #: Wrap the callable the target *returns* (a decoder factory).
    factory: bool = False


def _message_txn(args: tuple) -> Any:
    return args[1].txn_id


def _second_arg(args: tuple) -> Any:
    return args[1]


def _result_len(args: tuple, result: Any) -> int:
    return len(result)


HOOKS: tuple[Hook, ...] = (
    # protocols
    Hook("repro.protocols.coordinator:CoordinatorEngine.begin_commit", "protocols.begin_commit", txn=_second_arg),
    Hook("repro.protocols.coordinator:CoordinatorEngine.on_vote", "protocols.on_vote", txn=_message_txn),
    Hook("repro.protocols.coordinator:CoordinatorEngine.on_ack", "protocols.on_ack", txn=_message_txn),
    Hook("repro.protocols.coordinator:CoordinatorEngine.on_inquiry", "protocols.on_inquiry", txn=_message_txn),
    Hook("repro.protocols.participant:ParticipantEngine.on_prepare", "protocols.on_prepare", txn=_message_txn),
    Hook("repro.protocols.participant:ParticipantEngine.on_decision", "protocols.on_decision", txn=_message_txn),
    # mdbs.site / db
    Hook("repro.mdbs.site:Site.deliver", "site.deliver", txn=_message_txn),
    Hook("repro.mdbs.site:Site.flush_and_gc", "site.flush_and_gc"),
    Hook("repro.mdbs.site:Site.cold_recover", "site.cold_recover"),
    Hook("repro.db.local_tm:LocalTransactionManager.prepare", "db.prepare", txn=_second_arg),
    Hook("repro.db.local_tm:LocalTransactionManager.commit", "db.commit", txn=_second_arg),
    Hook("repro.db.local_tm:LocalTransactionManager.checkpoint", "db.checkpoint"),
    # storage (in-memory base class and the file WAL share span names)
    Hook("repro.storage.stable_log:StableLog.append", "storage.append", txn=lambda a: a[1].txn_id),
    Hook("repro.storage.stable_log:StableLog.force", "storage.force"),
    Hook("repro.storage.file_log:FileStableLog.force", "storage.force"),
    Hook("repro.storage.stable_log:StableLog.flush", "storage.flush"),
    Hook("repro.storage.file_log:FileStableLog.flush", "storage.flush"),
    Hook("repro.storage.stable_log:StableLog.garbage_collect", "storage.gc", txn=_second_arg),
    Hook("repro.storage.file_log:FileStableLog.garbage_collect", "storage.gc", txn=_second_arg),
    Hook("repro.storage.file_log:encode_records", "storage.encode", size=_result_len),
    Hook("repro.storage.file_log:decode_wal", "storage.replay", size=lambda a, r: len(r[0])),
    Hook("repro.rt.proc.supervisor:load_wal_records", "storage.replay", size=_result_len),
    Hook("os:fsync", "os.fsync"),
    # rt.codec
    Hook("repro.rt.codec:JsonWireCodec.encode_frame", "codec.encode", size=_result_len),
    Hook("repro.rt.codec:BinaryWireCodec.encode_frame", "codec.encode", size=_result_len),
    Hook("repro.rt.codec:JsonWireCodec.body_decoder", "codec.decode", factory=True),
    Hook("repro.rt.codec:BinaryWireCodec.body_decoder", "codec.decode", factory=True),
    Hook("repro.rt.codec:FrameDecoder.feed", "codec.decode"),
    # rt.transport / net
    Hook("repro.rt.transport:LiveTransport.send", "transport.send", txn=_message_txn, size=lambda a, r: a[0].backlog),
    Hook("repro.net.network:Network.send", "transport.send", txn=_message_txn),
    # sim.tracing
    Hook("repro.sim.tracing:TraceRecorder.record", "tracing.record"),
    # rt.runtime
    Hook("repro.rt.runtime:LiveRuntime.schedule", "runtime.schedule"),
    Hook("repro.rt.runtime:LiveRuntime.set_timer", "runtime.schedule"),
    # cluster drivers
    Hook("repro.rt.cluster:LiveCluster.submit", "driver.submit", txn=lambda a: a[1].txn_id),
    Hook("repro.rt.cluster:LiveCluster.run", "driver.run"),
    Hook("repro.rt.cluster:LiveCluster.finalize", "driver.finalize"),
    Hook("repro.rt.cluster:LiveCluster.check", "driver.check"),
    Hook("repro.rt.proc.supervisor:ProcessCluster.submit", "driver.submit", txn=lambda a: a[1].txn_id),
    Hook("repro.rt.proc.supervisor:ProcessCluster.run", "driver.run"),
    Hook("repro.rt.proc.supervisor:ProcessCluster.finalize", "driver.finalize"),
    Hook("repro.rt.proc.supervisor:ProcessCluster.check", "driver.check"),
    Hook("repro.rt.proc.supervisor:ProcessCluster.collect", "proc.collect"),
    Hook("repro.mdbs.system:MDBS.submit", "driver.submit", txn=lambda a: a[1].txn_id),
    Hook("repro.mdbs.system:MDBS.run", "driver.run"),
    Hook("repro.mdbs.system:MDBS.finalize", "driver.finalize"),
    Hook("repro.mdbs.system:MDBS.check", "driver.check"),
    # core
    Hook("repro.core.history:History.from_trace", "core.history_build"),
)


@dataclass
class SpanStat:
    """Totals of one span name (outermost calls only, except ``self_s``)."""

    count: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    size_sum: int = 0
    size_max: int = 0

    @property
    def per_call_us(self) -> float:
        return self.busy_s / self.count * 1e6 if self.count else 0.0

    @property
    def per_call_ms(self) -> float:
        return self.busy_s / self.count * 1e3 if self.count else 0.0


class SpanRecorder:
    """Installs the hooks, collects spans, aggregates and writes them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.txn: dict[int, Any] = {}
        self.size: dict[int, int] = {}
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []

    def __len__(self) -> int:
        return len(self.name_id)

    # -- installation --------------------------------------------------------

    def install(self, hooks: tuple[Hook, ...] = HOOKS) -> None:
        """Wrap every resolvable hook target; unresolvable ones (a
        method a later change renamed or removed) are listed in
        ``missing``. The run still completes, so that the caller can
        name all of them at once, and then fails its gate: the metrics
        derived from a missing hook would silently read 0."""
        for hook in hooks:
            try:
                owner, attr, raw = _resolve(hook.target)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(hook.target)
                continue
            wrapped = self._wrap(raw, hook)
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, raw: Any, hook: Hook) -> Any:
        if isinstance(raw, classmethod):
            return classmethod(self._wrap_function(raw.__func__, hook))
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap_function(raw.__func__, hook))
        return self._wrap_function(raw, hook)

    def _wrap_function(self, fn: Callable, hook: Hook) -> Callable:
        if hook.factory:

            def factory(*args: Any, **kwargs: Any) -> Any:
                return self._wrap_sync(fn(*args, **kwargs), hook)

            return factory
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(fn, hook)
        return self._wrap_sync(fn, hook)

    def _wrap_sync(self, fn: Callable, hook: Hook) -> Callable:
        name_id = self._intern(hook.span)
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        txn_of, size_of, txns, sizes = hook.txn, hook.size, self.txn, self.size

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()
            if txn_of is not None:
                txns[index] = txn_of(args)
            if size_of is not None:
                sizes[index] = size_of(args, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def _wrap_async(self, fn: Callable, hook: Hook) -> Callable:
        name_id = self._intern(hook.span)
        clock = time.perf_counter

        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = clock()
                self.name_id.append(name_id)
                self.parent.append(-1)
                self.start.append(start)
                self.end.append(end)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- aggregation ---------------------------------------------------------

    def stats(self) -> dict[str, SpanStat]:
        """Per-name totals over every recorded span."""
        count = len(self.name_id)
        children = [0.0] * count
        parents, starts, ends, name_ids = self.parent, self.start, self.end, self.name_id
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                children[parent] += ends[index] - starts[index]
        totals = [SpanStat() for _ in self.names]
        for index in range(count):
            stat = totals[name_ids[index]]
            duration = ends[index] - starts[index]
            stat.self_s += duration - children[index]
            parent = parents[index]
            if parent >= 0 and name_ids[parent] == name_ids[index]:
                continue
            stat.count += 1
            stat.busy_s += duration
        for index, size in self.size.items():
            parent = parents[index]
            if parent >= 0 and name_ids[parent] == name_ids[index]:
                continue
            stat = totals[name_ids[index]]
            stat.size_sum += size
            stat.size_max = max(stat.size_max, size)
        return dict(zip(self.names, totals))

    def count_under(self, name: str, parents: tuple[str, ...]) -> int:
        """Spans called ``name`` whose direct parent is one of
        ``parents`` (an fsync under the WAL vs. under the store)."""
        return sum(1 for _ in self._under(name, parents))

    def size_under(self, name: str, parents: tuple[str, ...]) -> int:
        return sum(self.size.get(index, 0) for index in self._under(name, parents))

    def _under(self, name: str, parents: tuple[str, ...]):
        wanted = self._name_ids.get(name)
        accepted = {self._name_ids[p] for p in parents if p in self._name_ids}
        if wanted is None or not accepted:
            return
        for index in range(len(self.name_id)):
            if self.name_id[index] != wanted:
                continue
            parent = self.parent[index]
            if parent >= 0 and self.name_id[parent] in accepted:
                yield index

    def write_jsonl(self, path) -> None:
        """One span per line: name, start, end, parent (line index or
        -1), and ``txn`` / ``size`` where the hook could read them."""
        origin = min(self.start) if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for index in range(len(self.name_id)):
                extra = ""
                txn = self.txn.get(index)
                if txn is not None:
                    extra += f',"txn":"{txn}"'
                size = self.size.get(index)
                if size is not None:
                    extra += f',"size":{size}'
                out.write(
                    f'{{"name":"{self.names[self.name_id[index]]}",'
                    f'"start":{self.start[index] - origin:.7f},'
                    f'"end":{self.end[index] - origin:.7f},'
                    f'"parent":{self.parent[index]}{extra}}}\n'
                )


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``module:Class.attr`` -> (owner object, attribute name, raw value).

    The raw value comes from the owner's own ``__dict__`` so an
    inherited method is wrapped where it is defined, and classmethod /
    staticmethod descriptors are seen as such.
    """
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]
