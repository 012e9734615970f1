"""Unit tests for the simulator kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


class TestScheduling:
    def test_schedule_fires_at_relative_time(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_schedule_at_fires_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(7.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [7.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_nested_scheduling(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1.0, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 2.0

    def test_zero_delay_fires_after_already_queued_same_time(self, sim):
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, lambda: order.append("zero"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "zero"]


class TestRunBounds:
    def test_run_until_stops_clock_exactly(self, sim):
        sim.schedule(10.0, lambda: None)
        sim.run(until=4.0)
        assert sim.now == 4.0
        assert len(sim.queue) == 1

    def test_run_until_then_resume(self, sim):
        fired = []
        sim.schedule(10.0, lambda: fired.append(True))
        sim.run(until=4.0)
        assert not fired
        sim.run()
        assert fired == [True]

    def test_runaway_schedule_hits_max_steps(self, sim):
        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            sim.run(max_steps=100)

    def test_steps_executed_counts(self, sim):
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.steps_executed == 4


class TestTimers:
    def test_timer_fires(self, sim):
        fired = []
        sim.set_timer(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.0]

    def test_cancelled_timer_does_not_fire(self, sim):
        fired = []
        timer = sim.set_timer(2.0, lambda: fired.append(True))
        timer.cancel()
        sim.run()
        assert not fired
        assert not timer.active

    def test_timer_deadline(self, sim):
        timer = sim.set_timer(2.5, lambda: None)
        assert timer.deadline == 2.5


class TestTraceIntegration:
    def test_record_stamps_current_time(self, sim):
        sim.schedule(3.0, lambda: sim.record("s", "cat", "name", x=1))
        sim.run()
        event = sim.trace[0]
        assert event.time == 3.0
        assert event.details == {"x": 1}

    def test_deterministic_given_seed(self):
        def run(seed):
            s = Simulator(seed=seed)
            values = []
            rng = s.random.stream("x")
            for i in range(5):
                s.schedule(float(i), lambda: values.append(rng.random()))
            s.run()
            return values

        assert run(9) == run(9)
        assert run(9) != run(10)
