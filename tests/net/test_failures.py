"""Unit tests for failure injection."""

from repro.net.failures import CrashSchedule, FailureInjector, TriggeredCrash
from repro.sim.kernel import Simulator
from repro.workloads.generator import WorkloadSpec, run_workload
from repro.workloads.mixes import three_way


class FakeSite:
    """Minimal Crashable implementation."""

    def __init__(self, site_id: str) -> None:
        self._id = site_id
        self._up = True
        self.crashes = 0
        self.recoveries = 0

    @property
    def site_id(self) -> str:
        return self._id

    @property
    def is_up(self) -> bool:
        return self._up

    def crash(self) -> None:
        self._up = False
        self.crashes += 1

    def recover(self) -> None:
        self._up = True
        self.recoveries += 1


def make(sim):
    injector = FailureInjector(sim)
    site = FakeSite("s1")
    injector.manage(site)
    return injector, site


class TestCrashSchedule:
    def test_timed_crash_fires(self, sim):
        injector, site = make(sim)
        injector.schedule(CrashSchedule("s1", at=5.0))
        sim.run()
        assert not site.is_up
        assert site.crashes == 1

    def test_timed_recovery_after_outage(self, sim):
        injector, site = make(sim)
        injector.schedule(CrashSchedule("s1", at=5.0, down_for=3.0))
        sim.run(until=7.0)
        assert not site.is_up
        sim.run()
        assert site.is_up
        assert site.recoveries == 1

    def test_permanent_crash_without_down_for(self, sim):
        injector, site = make(sim)
        injector.schedule(CrashSchedule("s1", at=1.0, down_for=None))
        sim.run()
        assert not site.is_up

    def test_crash_of_already_down_site_is_noop(self, sim):
        injector, site = make(sim)
        injector.schedule(CrashSchedule("s1", at=1.0))
        injector.schedule(CrashSchedule("s1", at=2.0))
        sim.run()
        assert site.crashes == 1

    def test_explicit_recover_at(self, sim):
        injector, site = make(sim)
        injector.schedule(CrashSchedule("s1", at=1.0))
        injector.recover_at("s1", 4.0)
        sim.run()
        assert site.is_up

    def test_recover_of_up_site_is_noop(self, sim):
        injector, site = make(sim)
        injector.recover_at("s1", 1.0)
        sim.run()
        assert site.recoveries == 0

    def test_unmanaged_site_ignored(self, sim):
        injector, __ = make(sim)
        injector.schedule(CrashSchedule("ghost", at=1.0))
        sim.run()  # must not raise


class TestTriggeredCrash:
    def test_trigger_fires_on_matching_event(self, sim):
        injector, site = make(sim)
        injector.crash_when("s1", lambda e: e.matches("db", "commit"))
        sim.schedule(2.0, lambda: sim.record("s1", "db", "commit", txn="t"))
        sim.run()
        assert not site.is_up

    def test_trigger_fires_only_once(self, sim):
        injector, site = make(sim)
        injector.crash_when(
            "s1", lambda e: e.matches("db", "commit"), down_for=1.0
        )
        sim.schedule(2.0, lambda: sim.record("s1", "db", "commit"))
        sim.schedule(10.0, lambda: sim.record("s1", "db", "commit"))
        sim.run()
        assert site.crashes == 1
        assert site.is_up  # recovered, second event did not re-crash

    def test_trigger_ignores_non_matching_events(self, sim):
        injector, site = make(sim)
        injector.crash_when("s1", lambda e: e.matches("db", "commit"))
        sim.schedule(2.0, lambda: sim.record("s1", "db", "abort"))
        sim.run()
        assert site.is_up

    def test_crash_happens_after_triggering_event_completes(self, sim):
        injector, site = make(sim)
        injector.crash_when("s1", lambda e: e.matches("db", "commit"))
        order = []

        def action():
            sim.record("s1", "db", "commit")
            order.append(("still-up", site.is_up))

        sim.schedule(2.0, action)
        sim.run()
        assert order == [("still-up", True)]
        assert not site.is_up

    def test_counter(self, sim):
        injector, site = make(sim)
        injector.crash_when("s1", lambda e: e.matches("db", "commit"))
        sim.schedule(1.0, lambda: sim.record("s1", "db", "commit"))
        sim.run()
        assert injector.crashes_injected == 1

    def test_trigger_object_records_fired(self, sim):
        injector, __ = make(sim)
        trigger = TriggeredCrash("s1", lambda e: e.matches("db", "commit"))
        injector.add_trigger(trigger)
        sim.schedule(1.0, lambda: sim.record("s1", "db", "commit"))
        sim.run()
        assert trigger.fired


class TestSubscription:
    """The injector listens to the trace only once a trigger is armed."""

    @staticmethod
    def count_dispatch(monkeypatch):
        calls = [0]
        original = FailureInjector._on_trace_event

        def counted(self, event):
            calls[0] += 1
            original(self, event)

        monkeypatch.setattr(FailureInjector, "_on_trace_event", counted)
        return calls

    def test_storm_without_trigger_never_dispatches(self, monkeypatch):
        calls = self.count_dispatch(monkeypatch)
        mdbs, __ = run_workload(
            three_way(3), "dynamic", WorkloadSpec(n_transactions=10, seed=3), drain=200.0
        )
        assert len(mdbs.sim.trace) > 0
        assert calls[0] == 0
        assert mdbs.check().all_hold

    def test_timed_crash_needs_no_subscription(self, monkeypatch):
        calls = self.count_dispatch(monkeypatch)
        victim = sorted(three_way(3).site_protocols())[0]

        def crash_victim(mdbs, transactions):
            mdbs.failures.schedule(CrashSchedule(victim, at=30.0, down_for=50.0))

        mdbs, __ = run_workload(
            three_way(3),
            "dynamic",
            WorkloadSpec(n_transactions=10, seed=3),
            drain=400.0,
            prepare=crash_victim,
        )
        assert calls[0] == 0
        assert mdbs.failures.crashes_injected == 1
        assert mdbs.sites[victim].is_up
        assert mdbs.check().all_hold

    def test_first_trigger_subscribes_once(self, sim, monkeypatch):
        calls = self.count_dispatch(monkeypatch)
        injector, __ = make(sim)
        sim.record("s1", "db", "commit")
        assert calls[0] == 0
        injector.crash_when("s1", lambda e: False)
        injector.crash_when("s1", lambda e: False)
        sim.record("s1", "db", "commit")
        assert calls[0] == 1
