"""The structured event log: lossless round trips, deterministic bytes."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    AdmitEvent,
    AlertEvent,
    DepartEvent,
    RejectEvent,
    RoundEvent,
    ScaleEvent,
    StructuredEventLog,
    event_from_dict,
    event_to_line,
    events_to_jsonl,
    load_events,
    parse_events,
)
from repro.serving import serve

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

CLUSTER_SPEC = {
    "topology": "cluster",
    "scenario": {"name": "skewed-cluster",
                 "kwargs": {"streams": 6, "frames": 4}},
    "placement": "best-fit",
    "migration": "load-balance",
}


def _run(spec):
    log = StructuredEventLog()
    serve(spec, observers=[log])
    return log


class TestRoundTrip:
    def test_sla_run_round_trips_losslessly(self):
        log = _run(SLA_SPEC)
        text = log.to_jsonl()
        assert parse_events(text) == log.events

    def test_cluster_run_round_trips_losslessly(self):
        log = _run(CLUSTER_SPEC)
        assert parse_events(log.to_jsonl()) == log.events

    def test_reserialization_is_identity(self):
        log = _run(SLA_SPEC)
        text = log.to_jsonl()
        assert events_to_jsonl(parse_events(text)) == text

    def test_two_identical_runs_are_byte_identical(self):
        assert _run(SLA_SPEC).to_jsonl() == _run(SLA_SPEC).to_jsonl()
        assert _run(CLUSTER_SPEC).to_jsonl() == _run(CLUSTER_SPEC).to_jsonl()

    def test_load_events_reads_dump(self, tmp_path):
        log = _run(SLA_SPEC)
        path = log.dump(tmp_path / "events.jsonl")
        assert load_events(path) == log.events

    def test_streaming_path_matches_dump(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        log = StructuredEventLog(path=path)
        serve(SLA_SPEC, observers=[log])
        # serve() closed the handle; the streamed file equals to_jsonl()
        assert path.read_text() == log.to_jsonl()

    def test_alert_event_round_trips(self):
        import json

        event = AlertEvent(
            round=42, shard=None, slo="gold-quality", state="firing",
            fast_burn=5.25, slow_burn=2.5, budget_remaining=-0.125,
        )
        back = event_from_dict(json.loads(event_to_line(event)))
        assert back == event and back.kind == "alert"

    def test_scale_event_keeps_its_action_id(self):
        import json

        event = ScaleEvent(
            round=7, shard=None, action="add",
            sources=("shard-0",), capacities=(16e6,),
            created=("shard-2",), reason="sustained pressure",
            action_id="scale-3",
        )
        back = event_from_dict(json.loads(event_to_line(event)))
        assert back == event and back.action_id == "scale-3"

    def test_declared_slos_interleave_alerts_into_the_log(self):
        spec = dict(SLA_SPEC)
        spec["capacity"] = {"utilization": 0.4}
        spec["slos"] = [{
            "name": "any-quality", "objective": "quality",
            "threshold": 0.8, "target": 0.9,
            "fast_window": 3, "slow_window": 8, "burn_threshold": 1.5,
        }]
        log = _run(spec)
        alerts = [e for e in log.events if isinstance(e, AlertEvent)]
        assert alerts and alerts[0].state == "firing"
        # interleaved deterministically and round-trippable in place
        assert parse_events(log.to_jsonl()) == log.events
        assert _run(spec).to_jsonl() == log.to_jsonl()

    def test_nan_quality_serializes_as_null(self):
        event = DepartEvent(
            round=3, shard=None, stream="s", service_class=None,
            admitted_round=0, frames=2, skips=2, deadline_misses=0,
            renegotiations=0, mean_quality=None,
            quality_timeline=(math.nan, 1.0),
        )
        line = event_to_line(event)
        assert "NaN" not in line and "null" in line
        back = event_from_dict(__import__("json").loads(line))
        assert back.quality_timeline == (None, 1.0)


class TestEventStream:
    def test_sla_run_emits_every_lifecycle_kind(self):
        log = _run(SLA_SPEC)
        kinds = {event.kind for event in log.events}
        assert {"capacity", "round", "admit", "renegotiate",
                "depart"} <= kinds

    def test_overloaded_run_emits_rejections_and_preemptions(self):
        spec = dict(SLA_SPEC)
        spec["scenario"] = {
            "name": "gold-rush",
            "kwargs": {"bronze": 8, "gold": 3, "crowd_round": 2,
                       "frames": 6, "scale": 27},
        }
        spec["capacity"] = {"utilization": 0.35}
        spec["admission"] = {
            "name": "priority",
            "kwargs": {"queue_limit": 2, "utilization_cap": 0.7},
        }
        log = _run(spec)
        rejects = [e for e in log.events if isinstance(e, RejectEvent)]
        preempts = [e for e in log.events if e.kind == "preempt"]
        assert rejects and preempts
        # every preemption pairs with a rejection of the same stream
        rejected = {e.stream for e in rejects}
        assert {e.stream for e in preempts} <= rejected

    def test_cluster_run_tags_shards_and_migrations(self):
        log = _run(CLUSTER_SPEC)
        rounds = [e for e in log.events if isinstance(e, RoundEvent)]
        assert rounds and all(e.shard is not None for e in rounds)
        migrates = [e for e in log.events if e.kind == "migrate"]
        assert migrates and all(
            e.shard != e.dest and e.move_kind in ("queued", "active")
            for e in migrates
        )

    def test_round_allocations_are_key_sorted(self):
        import json

        # the cluster spec grants some rounds out of stream-id order;
        # the line is sorted whatever the record's insertion order
        for spec in (SLA_SPEC, CLUSTER_SPEC):
            for event in _run(spec).events:
                if isinstance(event, RoundEvent) and event.allocations:
                    line = json.loads(event_to_line(event))
                    keys = list(line["allocations"])
                    assert keys == sorted(keys)

    def test_timelines_disabled_drops_the_bulk(self):
        lean = StructuredEventLog(timelines=False)
        serve(SLA_SPEC, observers=[lean])
        departs = [e for e in lean.events if isinstance(e, DepartEvent)]
        assert departs and all(e.quality_timeline == () for e in departs)
        assert all(e.mean_quality is not None for e in departs)


class TestLoaderValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown event kind"):
            event_from_dict({"event": "nope", "round": 0, "shard": None})

    def test_missing_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="'event' kind"):
            event_from_dict({"round": 0})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fields"):
            event_from_dict({
                "event": "admit", "round": 0, "shard": None, "stream": "s",
                "service_class": None, "arrival_round": 0, "weight": 1.0,
                "demand": 1.0, "frames": 4, "extra": True,
            })

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigurationError, match="missing fields"):
            event_from_dict({"event": "admit", "round": 0, "shard": None})

    def test_bad_json_line_is_numbered(self):
        good = event_to_line(AdmitEvent(
            round=0, shard=None, stream="s", service_class=None,
            arrival_round=0, weight=1.0, demand=1.0, frames=4,
        ))
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_events(good + "\n{not json\n")

    def test_blank_lines_skipped(self):
        good = event_to_line(AdmitEvent(
            round=0, shard=None, stream="s", service_class=None,
            arrival_round=0, weight=1.0, demand=1.0, frames=4,
        ))
        events = parse_events("\n" + good + "\n\n")
        assert len(events) == 1 and isinstance(events[0], AdmitEvent)
