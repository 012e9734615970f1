"""LiveRuntime: the simulator API surface over a real asyncio loop."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import SimulationError
from repro.rt.runtime import LiveRuntime


def run(coro):
    return asyncio.run(coro)


class TestConstruction:
    def test_requires_running_loop(self):
        with pytest.raises(RuntimeError):
            LiveRuntime()

    def test_rejects_non_positive_time_scale(self):
        async def go():
            with pytest.raises(SimulationError, match="time_scale"):
                LiveRuntime(time_scale=0)
            with pytest.raises(SimulationError, match="time_scale"):
                LiveRuntime(time_scale=-1.0)

        run(go())


class TestClock:
    def test_now_starts_near_zero_and_advances(self):
        async def go():
            rt = LiveRuntime(time_scale=0.001)
            first = rt.now
            assert first < 5.0  # construction overhead only
            await asyncio.sleep(0.01)
            assert rt.now > first

        run(go())

    def test_to_seconds(self):
        async def go():
            rt = LiveRuntime(time_scale=0.01)
            assert rt.to_seconds(100.0) == pytest.approx(1.0)

        run(go())


class TestTimers:
    def test_schedule_fires_and_marks_inactive(self):
        async def go():
            rt = LiveRuntime(time_scale=0.001)
            fired = []
            timer = rt.schedule(1.0, lambda: fired.append(rt.now))
            assert timer.active
            assert timer.deadline == pytest.approx(1.0, abs=0.5)
            await asyncio.sleep(0.05)
            assert fired and fired[0] >= 1.0
            assert not timer.active
            assert rt.steps_executed == 1

        run(go())

    def test_cancelled_timer_never_fires(self):
        async def go():
            rt = LiveRuntime(time_scale=0.001)
            fired = []
            timer = rt.set_timer(1.0, lambda: fired.append(1))
            timer.cancel()
            assert not timer.active
            await asyncio.sleep(0.01)
            assert fired == []
            assert rt.steps_executed == 0

        run(go())

    def test_negative_delay_rejected(self):
        async def go():
            rt = LiveRuntime()
            with pytest.raises(SimulationError, match="negative delay"):
                rt.schedule(-1.0, lambda: None)

        run(go())

    def test_schedule_at_past_rejected(self):
        async def go():
            rt = LiveRuntime(time_scale=0.001)
            await asyncio.sleep(0.01)
            with pytest.raises(SimulationError, match="before now"):
                rt.schedule_at(0.0, lambda: None)

        run(go())

    def test_schedule_at_future_fires(self):
        async def go():
            rt = LiveRuntime(time_scale=0.001)
            fired = []
            rt.schedule_at(rt.now + 2.0, lambda: fired.append(1))
            await asyncio.sleep(0.05)
            assert fired == [1]

        run(go())


class TestTracing:
    def test_record_stamps_virtual_now(self):
        async def go():
            rt = LiveRuntime(time_scale=0.001)
            await asyncio.sleep(0.005)
            rt.record("site1", "test", "ping", n=3)
            event = rt.trace[-1]
            assert event.site == "site1"
            assert event.details == {"n": 3}
            assert event.time == pytest.approx(rt.now, abs=2.0)
            assert list(rt.trace) == [event]

        run(go())
