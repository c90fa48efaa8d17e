"""Controller-phase profiling: timing on demand, free when absent."""

from __future__ import annotations

import pytest

from repro.obs import PerfObserver, TelemetryObserver
from repro.serving import observers as serving_observers
from repro.serving import phase_timing_enabled, serve
from repro.serving.observers import CountingObserver

FLEET_SPEC = {
    "scenario": {"name": "gold-rush",
                 "kwargs": {"bronze": 4, "gold": 2, "crowd_round": 2,
                            "frames": 6, "scale": 27}},
    "capacity": {"utilization": 1 / 1.5},
    "arbiter": "sla-quality-fair",
    "admission": "priority",
    "renegotiation": {"name": "step", "kwargs": {"patience": 1, "step": 0.3}},
    "service_classes": ["gold", "silver", "bronze"],
}

CLUSTER_SPEC = {
    "topology": "cluster",
    "scenario": {"name": "skewed-cluster",
                 "kwargs": {"streams": 6, "frames": 4}},
    "placement": "best-fit",
    "migration": "load-balance",
}


class TestPhaseCapture:
    @pytest.mark.parametrize("spec", [FLEET_SPEC, CLUSTER_SPEC],
                             ids=["fleet", "cluster"])
    def test_phases_timed(self, spec):
        perf = PerfObserver()
        serve(spec, observers=[perf])
        # one round loop: both topologies name the arrival phase alike
        expected = {"admission", "arbitration", "step"}
        if spec is CLUSTER_SPEC:
            expected.add("migration")
        assert expected <= set(perf.calls)
        assert "placement" not in perf.calls
        assert perf.total_seconds > 0
        assert all(n > 0 for n in perf.calls.values())
        assert all(s >= 0 for s in perf.seconds.values())

    def test_breakdown_shares_sum_to_one(self):
        perf = PerfObserver()
        serve(FLEET_SPEC, observers=[perf])
        breakdown = perf.breakdown()
        shares = [stats["share"] for stats in breakdown.values()]
        assert abs(sum(shares) - 1.0) < 1e-9
        assert shares == sorted(shares, reverse=True)
        for phase, stats in breakdown.items():
            assert stats["max_seconds"] >= stats["mean_seconds"] - 1e-12

    def test_report_renders_every_phase(self):
        perf = PerfObserver()
        serve(FLEET_SPEC, observers=[perf])
        report = perf.report()
        assert "phase" in report and "share" in report
        for phase in perf.calls:
            assert phase in report

    def test_empty_observer_is_harmless(self):
        perf = PerfObserver()
        assert perf.total_seconds == 0.0
        assert perf.breakdown() == {}


class TestTimingGate:
    def test_bare_and_counting_runs_skip_timing(self):
        """Only an ``on_phase`` override switches the timers on: bare
        runs and passive observers never pay for a perf_counter read."""
        assert not phase_timing_enabled(())
        assert not phase_timing_enabled((CountingObserver(),))
        assert not phase_timing_enabled((TelemetryObserver(),))

    def test_perf_observer_enables_timing(self):
        assert phase_timing_enabled((PerfObserver(),))
        assert phase_timing_enabled((CountingObserver(), PerfObserver()))


class TestNoClockWhenUntimed:
    """A run reads the clock only when some observer times phases."""

    BALANCED_CLUSTER_SPEC = {**CLUSTER_SPEC, "balancer": "headroom"}

    @pytest.fixture
    def clockless(self, monkeypatch):
        def perf_counter():
            raise AssertionError("the round loop read the clock")

        monkeypatch.setattr(serving_observers, "perf_counter", perf_counter)

    @pytest.mark.parametrize("spec", [FLEET_SPEC, BALANCED_CLUSTER_SPEC],
                             ids=["fleet", "cluster"])
    def test_bare_and_passive_runs_read_no_clock(self, clockless, spec):
        serve(spec)
        counting = CountingObserver()
        serve(spec, observers=[counting, TelemetryObserver()])
        assert counting.rounds > 0

    def test_a_phase_listener_reads_the_clock(self, clockless):
        with pytest.raises(AssertionError, match="read the clock"):
            serve(self.BALANCED_CLUSTER_SPEC, observers=[PerfObserver()])
