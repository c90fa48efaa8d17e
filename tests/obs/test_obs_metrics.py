"""Windowed telemetry: tumbling windows, mid-run queries, instruments."""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, TelemetryObserver
from repro.obs.export import canonical_document
from repro.serving import CountingObserver, serve
from repro.sla.classes import resolve_classes
from repro.streams.scenarios import StreamSpec

SLA_SPEC = {
    "scenario": {"name": "gold-rush",
                 "kwargs": {"bronze": 4, "gold": 2, "crowd_round": 2,
                            "frames": 6, "scale": 27}},
    "capacity": {"utilization": 1 / 1.5},
    "arbiter": "sla-quality-fair",
    "admission": "priority",
    "renegotiation": {"name": "step", "kwargs": {"patience": 1, "step": 0.3}},
    "service_classes": ["gold", "silver", "bronze"],
}

#: The overloaded gold-rush fleet CI byte-compares (bounded priority
#: queue, so it preempts and rejects; its SLOs fire).
OVERLOAD_SPEC = {
    "topology": "fleet",
    "scenario": {"name": "gold-rush",
                 "kwargs": {"bronze": 8, "gold": 3, "crowd_round": 2,
                            "frames": 6, "scale": 27}},
    "capacity": {"utilization": 0.35},
    "arbiter": "sla-quality-fair",
    "admission": {"name": "priority",
                  "kwargs": {"queue_limit": 2, "utilization_cap": 0.7}},
    "renegotiation": "step",
    "service_classes": ["gold", "silver", "bronze"],
    "slos": [
        {"name": "gold-quality", "objective": "quality",
         "service_class": "gold", "fast_window": 2, "slow_window": 6},
        {"name": "acceptance", "objective": "acceptance", "target": 0.9,
         "fast_window": 2, "slow_window": 6},
    ],
}


class TestInstruments:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        registry.counter("n").inc(3)
        registry.gauge("g").set(2.5)
        for value in (1.0, 3.0, math.nan):
            registry.histogram("h").observe(value)
        snap = registry.snapshot()
        assert snap["counters"]["n"] == 4
        assert snap["gauges"]["g"] == 2.5
        assert snap["histograms"]["h"] == {
            "count": 2, "mean": 2.0, "min": 1.0, "max": 3.0,
        }

    def test_empty_instruments_are_json_safe(self):
        registry = MetricsRegistry()
        registry.gauge("unset")
        registry.histogram("empty")
        snap = registry.snapshot()
        assert snap["gauges"]["unset"] is None
        assert snap["histograms"]["empty"]["mean"] is None


class TestWindowing:
    def test_bad_window_rejected(self):
        for bad in (0, -1, 1.5, True, "5"):
            with pytest.raises(ConfigurationError):
                TelemetryObserver(window=bad)

    def test_windows_tile_the_run(self):
        observer = TelemetryObserver(window=4)
        result = serve(SLA_SPEC, observers=[observer])
        # serve() closed the observer: the final partial window is in
        starts = [w["start_round"] for w in observer.windows]
        assert starts == sorted(starts)
        assert observer.windows[0]["start_round"] == 0
        assert observer.windows[-1]["end_round"] >= result.rounds
        assert sum(w["departed"] for w in observer.windows) == len(
            result.outcomes
        )

    def test_decision_totals_match_result(self):
        observer = TelemetryObserver(window=4)
        result = serve(SLA_SPEC, observers=[observer])
        assert sum(w["admitted"] for w in observer.windows) == len(
            result.outcomes
        )
        assert sum(w["rejected"] for w in observer.windows) == len(
            result.rejected
        )
        assert sum(w["preempted"] for w in observer.windows) == len(
            result.preempted
        )

    def test_queryable_mid_run(self):
        """current() answers during the run — the mid-run query path."""
        observer = TelemetryObserver(window=1000)  # nothing ever closes
        probes = []

        class Prober(TelemetryObserver):
            def on_round(self, round_index, allocations, capacity,
                         shard_id=None):
                probes.append(dict(observer.current()))

        serve(SLA_SPEC, observers=[observer, Prober(window=1000)])
        assert len(probes) > 2
        # admissions become visible to current() as the run progresses
        assert probes[0]["admitted"] <= probes[-1]["admitted"]
        assert probes[-1]["admitted"] > 0
        assert all(p["window"] == 0 for p in probes)

    def test_close_is_idempotent(self):
        observer = TelemetryObserver(window=4)
        serve(SLA_SPEC, observers=[observer])
        count = len(observer.windows)
        observer.close()
        observer.close()
        assert len(observer.windows) == count

    def test_renegotiation_density_and_utilization(self):
        observer = TelemetryObserver(window=4)
        result = serve(SLA_SPEC, observers=[observer])
        total = sum(
            round(w["renegotiation_density"] * w["rounds"])
            for w in observer.windows
        )
        assert total == result.summary()["renegotiations"]
        busy = [w for w in observer.windows if w["utilization"] is not None]
        assert busy and all(0.0 <= w["utilization"] <= 1.0 + 1e-9
                            for w in busy)

    def test_fairness_and_quality_summaries(self):
        observer = TelemetryObserver(window=1000)
        serve(SLA_SPEC, observers=[observer])
        final = observer.windows[-1]
        assert final["mean_quality"] is not None
        assert final["min_quality"] <= final["mean_quality"]
        assert 0.0 < final["fairness_per_class"] <= 1.0

    def test_totals_registry_accumulates(self):
        observer = TelemetryObserver(window=4)
        result = serve(SLA_SPEC, observers=[observer])
        counters = observer.registry.snapshot()["counters"]
        assert counters["admitted"] == len(result.outcomes)
        assert counters["departed"] == len(result.outcomes)
        assert counters["pool_rounds"] > 0
        assert counters["capacity_events"] >= 1

    def test_snapshot_totals_match_the_hooks(self):
        observer = TelemetryObserver(window=3)
        counting = CountingObserver()
        serve(OVERLOAD_SPEC, observers=[observer, counting])
        snapshot = json.loads(canonical_document(observer.snapshot()))
        assert snapshot["window_rounds"] == 3
        totals = snapshot["totals"]["counters"]
        tallies = {
            "admitted": counting.admitted,
            "rejected": counting.rejected,
            "preempted": counting.preempted,
            "renegotiations": counting.renegotiated,
            "departed": counting.departed,
            "pool_rounds": counting.rounds,
            "capacity_events": counting.capacity_events,
        }
        assert {name: totals[name] for name in tallies} == tallies
        assert tallies == {
            "admitted": 8, "rejected": 3, "preempted": 2,
            "renegotiations": 12, "departed": 8, "pool_rounds": 14,
            "capacity_events": 1,
        }
        for name in ("admitted", "rejected", "preempted", "departed"):
            assert sum(w[name] for w in snapshot["windows"]) == totals[name]

    def test_unclassed_departures_bucketed(self):
        observer = TelemetryObserver(window=1000)
        observer.on_admit(
            StreamSpec("s", 0, _config()), 0
        )
        outcome = _FakeOutcome("s")
        observer.on_depart(outcome, 3)
        observer.close()
        assert observer.windows[-1]["departed"] == 1
        assert observer.windows[-1]["mean_quality"] == 1.0


def _config():
    from repro.experiments.configs import scaled_config

    return scaled_config(scale=27, frames=4)


class _FakeResult:
    def mean_quality(self):
        return 1.0


class _FakeSpec:
    name = "s"
    service_class = None


class _FakeOutcome:
    def __init__(self, name):
        self.spec = _FakeSpec()
        self.result = _FakeResult()
