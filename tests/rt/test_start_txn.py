"""``ProcessCluster._start_txn`` over a fake control plane.

The participants' ``begin_work`` calls go out together, as the
simulator begins them in one instant, and the doomed rule stays the
simulator's: an implicitly prepared (IYV) participant that is down, or
whose call fails, dooms the transaction; an explicit voter never does.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

from repro.mdbs.transaction import GlobalTransaction, WriteOp
from repro.rt.proc import ProcessCluster
from repro.rt.proc.control import ProcessControlError
from repro.workloads.mixes import homogeneous

TXN = GlobalTransaction(
    txn_id="t1",
    coordinator="tm",
    writes={site: [WriteOp(key=f"k@{site}", value=1)] for site in ("a", "b", "c")},
)


def start(tmp_path, protocols, down=(), failing=(), doomed_replies=()):
    """Run ``_start_txn(TXN)``; return the fake's log and the
    ``begin_commit`` keywords."""
    log: list[tuple[str, str, str]] = []
    commits: list[dict] = []

    async def fake_call(site_id, op, **kw):
        log.append(("write", op, site_id))
        await asyncio.sleep(0)
        log.append(("reply", op, site_id))
        if op == "begin_commit":
            commits.append(kw)
            return {}
        if site_id in failing:
            raise ProcessControlError(f"{site_id} died mid-command")
        return {"doomed": site_id in doomed_replies}

    async def scenario():
        cluster = ProcessCluster(homogeneous("PrN", 3), tmp_path)
        cluster._start_runtime()
        cluster._children = {
            site: SimpleNamespace(protocol=protocol, alive=site not in down)
            for site, protocol in {"tm": "PrN", **protocols}.items()
        }
        cluster._call = fake_call
        await cluster._start_txn(TXN)

    asyncio.run(scenario())
    assert len(commits) == 1
    return log, commits[0]


def test_every_begin_work_is_written_before_any_reply(tmp_path):
    log, commit = start(tmp_path, {"a": "PrN", "b": "PrA", "c": "PrC"})
    work = [entry for entry in log if entry[1] == "begin_work"]
    assert [entry[0] for entry in work] == ["write"] * 3 + ["reply"] * 3
    assert {entry[2] for entry in work} == {"a", "b", "c"}
    assert log[-2:] == [("write", "begin_commit", "tm"), ("reply", "begin_commit", "tm")]
    assert commit["abort_override"] is False


def test_a_down_implicit_voter_dooms_the_transaction(tmp_path):
    log, commit = start(tmp_path, {"a": "IYV", "b": "PrN", "c": "PrC"}, down={"a"})
    assert ("write", "begin_work", "a") not in log
    assert commit["abort_override"] is True


def test_a_down_explicit_voter_does_not(tmp_path):
    _, commit = start(tmp_path, {"a": "PrA", "b": "PrN", "c": "PrC"}, down={"a"})
    assert commit["abort_override"] is False


def test_a_failed_call_dooms_only_an_implicit_voter(tmp_path):
    _, commit = start(tmp_path, {"a": "IYV", "b": "PrN", "c": "PrC"}, failing={"a"})
    assert commit["abort_override"] is True
    _, commit = start(tmp_path, {"a": "PrN", "b": "IYV", "c": "PrC"}, failing={"a"})
    assert commit["abort_override"] is False


def test_a_doomed_reply_dooms_the_transaction(tmp_path):
    _, commit = start(tmp_path, {"a": "PrN", "b": "PrA", "c": "PrC"}, doomed_replies={"c"})
    assert commit["abort_override"] is True
