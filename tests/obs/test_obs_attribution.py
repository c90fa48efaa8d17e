"""Incident attribution: cause classification, ranking, round trips."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    CauseShare,
    Incident,
    SloObserver,
    SloSpec,
    TraceObserver,
    attribute_incidents,
)
from repro.obs.attribution import _classify, tracker_window
from repro.serving import serve


def make_tracer(**overrides):
    """A minimal stand-in exposing the history ``_classify`` reads."""
    base = dict(
        dips=[], arrivals={}, last_round=0, migration_rounds=[],
        down_steps=[], scale_actions=[],
    )
    base.update(overrides)
    return SimpleNamespace(**base)


def classify(tracer, unit_round=20, slo_class="gold", lookback=10):
    return _classify(unit_round, slo_class, tracer, lookback)


class TestClassifierPrecedence:
    def test_capacity_dip_wins(self):
        tracer = make_tracer(
            dips=[{"id": "capacity-dip@A:15", "round": 15, "shard": "A",
                   "before": 100.0, "after": 40.0}],
            arrivals={r: 10 for r in range(15, 21)},
            last_round=20,
            migration_rounds=list(range(11, 21)),
            down_steps=[(r, "gold") for r in range(15, 21)],
        )
        kind, why = classify(tracer)
        assert kind == "capacity-dip"
        assert "A" in why and "15" in why

    def test_dip_outside_the_lookback_does_not_count(self):
        tracer = make_tracer(
            dips=[{"id": "capacity-dip@A:5", "round": 5, "shard": "A",
                   "before": 100.0, "after": 40.0}],
            last_round=20,
        )
        kind, _ = classify(tracer)
        assert kind == "unattributed"

    def test_arrival_burst_is_windowed_against_the_mean(self):
        # a long ~1.3/round baseline, then 40 arrivals land in the
        # 10-round window — well past 2.5x the mean-rate expectation
        arrivals = {r: 1 for r in range(101)}
        arrivals.update({98: 11, 99: 12, 100: 11})
        tracer = make_tracer(arrivals=arrivals, last_round=100)
        kind, why = classify(tracer, unit_round=100)
        assert kind == "arrival-burst"
        assert "expected at the mean rate" in why

    def test_a_lone_busy_round_is_not_a_burst(self):
        arrivals = {r: 1 for r in range(21)}
        arrivals[20] = 3
        tracer = make_tracer(arrivals=arrivals, last_round=20)
        kind, _ = classify(tracer)
        assert kind == "unattributed"

    def test_migration_storm(self):
        tracer = make_tracer(
            migration_rounds=[14, 15, 16, 17, 18, 19, 20],
            last_round=20,
        )
        kind, why = classify(tracer)
        assert kind == "migration-storm"
        assert "7 migration moves" in why

    def test_scale_lag_when_the_scaler_arrives_late(self):
        tracer = make_tracer(
            down_steps=[(16, "gold"), (17, "gold")],
            scale_actions=[{"round": 19, "action_id": "scale-1",
                            "kind": "add", "reason": "pressure"}],
            last_round=20,
        )
        kind, why = classify(tracer)
        assert kind == "scale-lag"
        assert "scale-1" in why

    def test_scale_lag_during_cooldown(self):
        # an autoscaler exists (it acted earlier) but no scale-up
        # landed inside the window
        tracer = make_tracer(
            down_steps=[(16, "gold"), (17, "gold")],
            scale_actions=[{"round": 2, "action_id": "scale-0",
                            "kind": "add", "reason": "pressure"}],
            last_round=20,
        )
        kind, why = classify(tracer)
        assert kind == "scale-lag"
        assert "cooldown" in why

    def test_capacity_shortfall_when_capacity_is_flat(self):
        tracer = make_tracer(
            down_steps=[(16, "gold"), (18, "gold")],
            last_round=20,
        )
        kind, why = classify(tracer)
        assert kind == "capacity-shortfall"
        assert "stayed flat" in why

    def test_down_steps_of_other_classes_are_not_pressure(self):
        tracer = make_tracer(
            down_steps=[(16, "bronze"), (18, "bronze")],
            last_round=20,
        )
        kind, _ = classify(tracer)
        assert kind == "unattributed"

    def test_classless_slo_feels_every_down_step(self):
        tracer = make_tracer(
            down_steps=[(16, "bronze"), (18, "bronze")],
            last_round=20,
        )
        kind, _ = classify(tracer, slo_class=None)
        assert kind == "capacity-shortfall"

    def test_nothing_in_the_window_is_unattributed(self):
        kind, why = classify(make_tracer(last_round=20))
        assert kind == "unattributed"
        assert "no recorded cause" in why


class TestRoundTrips:
    CAUSE = CauseShare(kind="capacity-dip", share=0.75, units=3,
                       evidence="capacity on A dropped 100 -> 40 at round 5")
    INCIDENT = Incident(
        slo="gold-quality", alert_round=20, window_start=1, window_end=20,
        units=12, bad_units=4, burn_multiple=3.3,
        causes=(
            CAUSE,
            CauseShare(kind="unattributed", share=0.25, units=1,
                       evidence="no recorded cause in the lookback window"),
        ),
    )

    def test_cause_share_round_trips(self):
        assert CauseShare.from_dict(self.CAUSE.to_dict()) == self.CAUSE

    def test_incident_round_trips(self):
        assert Incident.from_dict(self.INCIDENT.to_dict()) == self.INCIDENT

    def test_top_cause_is_the_ranked_head(self):
        assert self.INCIDENT.top_cause == "capacity-dip"
        empty = Incident(
            slo="x", alert_round=0, window_start=0, window_end=0,
            units=0, bad_units=0, burn_multiple=0.0, causes=(),
        )
        assert empty.top_cause is None

    def test_unknown_cause_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown cause kind"):
            CauseShare(kind="gremlins", share=1.0, units=1, evidence="?")

    def test_unknown_fields_rejected(self):
        payload = self.CAUSE.to_dict()
        payload["extra"] = 1
        with pytest.raises(ConfigurationError, match="unknown fields"):
            CauseShare.from_dict(payload)
        with pytest.raises(ConfigurationError, match="missing fields"):
            Incident.from_dict({"slo": "x", "causes": []})

    def test_incident_causes_must_be_a_list(self):
        payload = self.INCIDENT.to_dict()
        payload["causes"] = "capacity-dip"
        with pytest.raises(ConfigurationError, match="causes must be a list"):
            Incident.from_dict(payload)


STARVED_SPEC = {
    "scenario": {"name": "gold-rush",
                 "kwargs": {"bronze": 6, "gold": 2, "crowd_round": 2,
                            "frames": 8, "scale": 27}},
    "capacity": {"utilization": 0.4},
    "arbiter": "sla-quality-fair",
    "admission": "priority",
    "renegotiation": {"name": "step", "kwargs": {"patience": 1, "step": 0.3}},
    "service_classes": ["gold", "silver", "bronze"],
}

STARVED_SLO = SloSpec(
    name="any-quality", objective="quality", threshold=0.8, target=0.9,
    fast_window=3, slow_window=8, burn_threshold=1.5,
)


def run_starved():
    slo = SloObserver([STARVED_SLO],
                      classes=STARVED_SPEC["service_classes"])
    tracer = TraceObserver()
    serve(STARVED_SPEC, observers=[slo, tracer])
    slo.close()
    return slo, tracer


class TestAttributeIncidents:
    def test_every_firing_alert_becomes_an_incident(self):
        slo, tracer = run_starved()
        firing = [a for a in slo.alerts if a.state == "firing"]
        assert firing  # the starved run must actually burn
        incidents = attribute_incidents(slo, tracer)
        assert len(incidents) == len(firing)
        for alert, incident in zip(firing, incidents):
            assert incident.slo == alert.slo == "any-quality"
            assert incident.alert_round == alert.round
            assert incident.window_start == max(
                0, alert.round - STARVED_SLO.slow_window + 1
            )
            assert incident.window_end == alert.round

    def test_shares_partition_the_burned_budget(self):
        slo, tracer = run_starved()
        for incident in attribute_incidents(slo, tracer):
            assert incident.bad_units > 0
            assert incident.units >= incident.bad_units
            assert sum(c.share for c in incident.causes) == pytest.approx(1.0)
            assert sum(c.units for c in incident.causes) == incident.bad_units
            shares = [c.share for c in incident.causes]
            assert shares == sorted(shares, reverse=True)
            for cause in incident.causes:
                assert cause.evidence
            assert incident.burn_multiple > 0

    def test_attribution_is_pure_and_deterministic(self):
        slo, tracer = run_starved()
        first = attribute_incidents(slo, tracer)
        again = attribute_incidents(slo, tracer)
        assert first == again
        slo2, tracer2 = run_starved()
        second = attribute_incidents(slo2, tracer2)
        assert [i.to_dict() for i in first] == [i.to_dict() for i in second]

    def test_incidents_round_trip_through_dicts(self):
        slo, tracer = run_starved()
        for incident in attribute_incidents(slo, tracer):
            assert Incident.from_dict(incident.to_dict()) == incident

    def test_tracker_window_rebuilds_sealed_buckets(self):
        slo, _ = run_starved()
        tracker = slo.trackers["any-quality"]
        window = tracker_window(tracker, 0, tracker.spec.slow_window)
        assert window
        rounds = [r for r, _, _ in window]
        assert rounds == sorted(rounds)
        for r, units, bad in window:
            assert 0 <= bad <= units
        assert sum(units for _, units, _ in window) == sum(
            1 for r, _, _ in tracker.unit_log
            if 0 <= r <= tracker.spec.slow_window
        )
