"""Per-session causal traces: span trees, round trips, causal edges."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    Span,
    TraceObserver,
    TraceRecord,
    load_traces,
    parse_traces,
    trace_to_line,
    traces_to_jsonl,
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

OUTAGE_SPEC = {
    "topology": "cluster",
    "scenario": {"name": "shard-outage",
                 "kwargs": {"streams": 6, "frames": 6}},
    "renegotiation": {"name": "step", "kwargs": {"patience": 1, "step": 0.3}},
    "placement": "best-fit",
    "migration": "load-balance",
}


def _trace(spec, **kwargs):
    tracer = TraceObserver(**kwargs)
    result = serve(spec, observers=[tracer])
    return result, tracer


class TestValidation:
    def test_unknown_span_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown span kind"):
            Span(kind="pause", start=0, end=0, shard=None, attrs={})

    def test_span_from_dict_checks_fields(self):
        with pytest.raises(ConfigurationError, match="missing"):
            Span.from_dict({"kind": "admit", "start": 0})
        with pytest.raises(ConfigurationError, match="unknown"):
            Span.from_dict({"kind": "admit", "start": 0, "end": 0,
                            "shard": None, "attrs": {}, "extra": 1})
        with pytest.raises(ConfigurationError, match="mapping"):
            Span.from_dict("admit")

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ConfigurationError, match="outcome"):
            TraceRecord(stream="s", service_class=None, arrival_round=0,
                        outcome="lost", spans=())

    def test_record_from_dict_checks_spans(self):
        with pytest.raises(ConfigurationError, match="spans must be a list"):
            TraceRecord.from_dict({
                "stream": "s", "service_class": None, "arrival_round": 0,
                "outcome": "served", "spans": "nope",
            })

    def test_bad_observer_parameters_rejected(self):
        with pytest.raises(ConfigurationError, match="segment_rounds"):
            TraceObserver(segment_rounds=0)

    def test_bad_jsonl_line_is_numbered(self):
        record = TraceRecord(stream="s", service_class=None, arrival_round=0,
                             outcome="served", spans=())
        good = trace_to_line(record)
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_traces(good + "\n{not json\n")


class TestRoundTrip:
    def test_sla_run_round_trips_losslessly(self):
        _, tracer = _trace(SLA_SPEC)
        assert tuple(parse_traces(tracer.to_jsonl())) == tracer.records()

    def test_cluster_run_round_trips_losslessly(self):
        _, tracer = _trace(CLUSTER_SPEC)
        assert tuple(parse_traces(tracer.to_jsonl())) == tracer.records()

    def test_reserialization_is_identity(self):
        _, tracer = _trace(SLA_SPEC)
        text = tracer.to_jsonl()
        assert traces_to_jsonl(parse_traces(text)) == text

    def test_two_identical_runs_are_byte_identical(self):
        assert _trace(SLA_SPEC)[1].to_jsonl() == _trace(SLA_SPEC)[1].to_jsonl()
        assert (
            _trace(OUTAGE_SPEC)[1].to_jsonl()
            == _trace(OUTAGE_SPEC)[1].to_jsonl()
        )

    def test_load_traces_reads_dump(self, tmp_path):
        _, tracer = _trace(SLA_SPEC)
        path = tracer.dump(tmp_path / "traces.jsonl")
        assert tuple(load_traces(path)) == tracer.records()

    def test_path_written_at_close(self, tmp_path):
        path = tmp_path / "auto.jsonl"
        _, tracer = _trace(SLA_SPEC, path=path)
        # serve() closed the observer; the file holds the whole log
        assert path.read_text() == tracer.to_jsonl()


class TestSpanTrees:
    def test_every_session_is_traced(self):
        result, tracer = _trace(SLA_SPEC)
        records = tracer.records()
        assert len(records) == result.served_count + result.rejected_count
        assert {r.outcome for r in records} <= {"served", "rejected"}

    def test_served_sessions_run_admit_to_depart(self):
        _, tracer = _trace(SLA_SPEC)
        served = [r for r in tracer.records() if r.outcome == "served"]
        assert served
        for record in served:
            kinds = [span.kind for span in record.spans]
            assert kinds[0] == "admit"
            assert kinds[-1] == "depart"
            assert record.spans[0].attrs["queue_wait"] >= 0
            starts = [span.start for span in record.spans]
            assert starts == sorted(starts)

    def test_grant_segments_cover_the_session(self):
        result, tracer = _trace(SLA_SPEC, segment_rounds=2)
        served = {r.stream: r for r in tracer.records()
                  if r.outcome == "served"}
        for outcome in result.outcomes:
            record = served[outcome.spec.name]
            grants = [s for s in record.spans if s.kind == "grant"]
            assert grants
            # at least one arbitrated round per scheduled frame (the
            # departure round can add one more), windowed
            assert sum(s.attrs["rounds"] for s in grants) >= len(
                outcome.result
            )
            assert all(s.end - s.start < 2 for s in grants)
            filled = [s.attrs["mean_quality"] for s in grants]
            assert any(q is not None for q in filled)

    def test_rejected_sessions_end_in_reject(self):
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
        _, tracer = _trace(spec)
        rejected = [r for r in tracer.records() if r.outcome == "rejected"]
        assert rejected
        for record in rejected:
            assert record.spans[-1].kind == "reject"
            assert record.spans[-1].attrs["queue_wait"] >= 0

    def test_cluster_migrations_become_spans(self):
        result, tracer = _trace(CLUSTER_SPEC)
        migrations = result.raw.migrations
        assert migrations
        moves = [
            span
            for record in tracer.records()
            for span in record.spans
            if span.kind == "migrate"
        ]
        assert len(moves) == len(migrations)
        for span in moves:
            assert span.attrs["dest"] != span.shard
            assert span.attrs["move_kind"] in ("queued", "active")

    def test_outage_registers_a_capacity_dip(self):
        _, tracer = _trace(OUTAGE_SPEC)
        assert len(tracer.dips) == 1
        dip = tracer.dips[0]
        assert dip["after"] < dip["before"]
        assert dip["id"] == (
            f"capacity-dip@{dip['shard']}:{dip['round']}"
        )

    def test_down_renegotiation_links_to_a_recent_dip(self):
        # driven by hand: the cluster policies under test migrate away
        # from an outage instead of renegotiating, so the causal edge
        # is exercised at the hook level
        tracer = TraceObserver()
        spec = SimpleNamespace(
            name="s", service_class="gold", arrival_round=0,
        )
        tracer.on_capacity(100.0, 0, "A")
        tracer.on_admit(spec, 0, "A")
        tracer.on_capacity(40.0, 3, "A")
        tracer.on_renegotiate("s", 3.0, 2.0, 5, "A")
        # a later *up* step carries no cause
        tracer.on_renegotiate("s", 2.0, 3.0, 8, "A")
        # a down step past the link window (15 rounds) does not link
        tracer.on_renegotiate("s", 3.0, 2.0, 19, "A")
        (record,) = tracer.records()
        down_near, up, down_far = [
            s for s in record.spans if s.kind == "renegotiate"
        ]
        assert down_near.attrs["cause"] == "capacity-dip@A:3"
        assert up.attrs["cause"] is None
        assert down_far.attrs["cause"] is None
        assert tracer.down_steps == [(5, "gold"), (19, "gold")]

    def test_attrs_are_json_native(self):
        for spec in (SLA_SPEC, CLUSTER_SPEC):
            _, tracer = _trace(spec)
            for record in tracer.records():
                for span in record.spans:
                    for value in span.attrs.values():
                        assert value is None or isinstance(
                            value, (str, int, float, bool)
                        )


TRACE_SNIPPET = """
import sys
from repro.obs import TraceObserver
from repro.serving import serve

spec = {
    "scenario": {"name": "gold-rush",
                 "kwargs": {"bronze": 4, "gold": 2, "crowd_round": 2,
                            "frames": 6, "scale": 27}},
    "capacity": {"utilization": 1 / 1.5},
    "arbiter": "sla-quality-fair",
    "admission": "priority",
    "renegotiation": {"name": "step", "kwargs": {"patience": 1, "step": 0.3}},
    "service_classes": ["gold", "silver", "bronze"],
}
tracer = TraceObserver()
serve(spec, observers=[tracer])
sys.stdout.write(tracer.to_jsonl())
"""


class TestCrossProcess:
    def run_in_subprocess(self, hash_seed: str) -> str:
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # the log must not depend on hash randomization (dict/set order)
        env["PYTHONHASHSEED"] = hash_seed
        completed = subprocess.run(
            [sys.executable, "-c", TRACE_SNIPPET],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        return completed.stdout

    def test_trace_log_byte_identical_across_hash_seeds(self):
        first = self.run_in_subprocess("1")
        second = self.run_in_subprocess("4242")
        assert first == second
        _, tracer = _trace(SLA_SPEC)
        assert first == tracer.to_jsonl()
