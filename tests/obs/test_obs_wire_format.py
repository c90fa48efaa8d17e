"""The artifact wire format, pinned byte for byte.

Every other obs test compares a run with itself; these literals were
captured once, so a change that moves one byte of an event line, a
trace line or an incident/SLO report document fails here.  They cover
NaN -> ``null``, tuple fields -> arrays, sorted keys (allocations
included), float ``repr`` and a ``None`` shard.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.obs import (
    AdmitEvent,
    AlertEvent,
    CapacityEvent,
    CauseShare,
    DepartEvent,
    Incident,
    MigrateEvent,
    PreemptEvent,
    RejectEvent,
    RenegotiateEvent,
    RoundEvent,
    ScaleEvent,
    SloReport,
    Span,
    TraceRecord,
    canonical_document,
    event_to_line,
    events_to_jsonl,
    parse_events,
    parse_traces,
    trace_to_line,
    traces_to_jsonl,
)

EVENTS = (
    CapacityEvent(round=0, shard="shard-0", capacity=16e6),
    RoundEvent(round=3, shard=None, capacity=1.5e7, allocations={
        "s2": 0.1 + 0.2, "s10": 4e6, "a": 1 / 3,
    }),
    AdmitEvent(round=1, shard="shard-1", stream="s1", service_class="gold",
               arrival_round=0, weight=2.0, demand=40000.0, frames=24),
    PreemptEvent(round=2, shard=None, stream="s3", service_class="bronze"),
    RejectEvent(round=2, shard=None, stream="s3", service_class="bronze",
                arrival_round=1),
    MigrateEvent(round=4, shard="shard-0", stream="s1", dest="shard-2",
                 move_kind="active"),
    RenegotiateEvent(round=5, shard="shard-2", stream="s1",
                     old_target=0.85, new_target=0.7),
    ScaleEvent(round=6, shard=None, action="add", sources=("shard-0",),
               capacities=(16e6, 8e6), created=("shard-2",),
               reason="sustained pressure", action_id="scale-1"),
    AlertEvent(round=7, shard=None, slo="gold-quality", state="firing",
               fast_burn=5.25, slow_burn=2.5, budget_remaining=-0.125),
    DepartEvent(round=8, shard="shard-2", stream="s1", service_class=None,
                admitted_round=1, frames=3, skips=1, deadline_misses=0,
                renegotiations=1, mean_quality=3.5,
                quality_timeline=(4.0, math.nan, 3.0)),
)

EVENT_LINES = (
    '{"capacity":16000000.0,"event":"capacity","round":0,'
    '"shard":"shard-0"}',
    '{"allocations":{"a":0.3333333333333333,"s10":4000000.0,'
    '"s2":0.30000000000000004},"capacity":15000000.0,"event":"round",'
    '"round":3,"shard":null}',
    '{"arrival_round":0,"demand":40000.0,"event":"admit","frames":24,'
    '"round":1,"service_class":"gold","shard":"shard-1","stream":"s1",'
    '"weight":2.0}',
    '{"event":"preempt","round":2,"service_class":"bronze","shard":null,'
    '"stream":"s3"}',
    '{"arrival_round":1,"event":"reject","round":2,'
    '"service_class":"bronze","shard":null,"stream":"s3"}',
    '{"dest":"shard-2","event":"migrate","move_kind":"active","round":4,'
    '"shard":"shard-0","stream":"s1"}',
    '{"event":"renegotiate","new_target":0.7,"old_target":0.85,"round":5,'
    '"shard":"shard-2","stream":"s1"}',
    '{"action":"add","action_id":"scale-1",'
    '"capacities":[16000000.0,8000000.0],"created":["shard-2"],'
    '"event":"scale","reason":"sustained pressure","round":6,"shard":null,'
    '"sources":["shard-0"]}',
    '{"budget_remaining":-0.125,"event":"alert","fast_burn":5.25,'
    '"round":7,"shard":null,"slo":"gold-quality","slow_burn":2.5,'
    '"state":"firing"}',
    '{"admitted_round":1,"deadline_misses":0,"event":"depart","frames":3,'
    '"mean_quality":3.5,"quality_timeline":[4.0,null,3.0],'
    '"renegotiations":1,"round":8,"service_class":null,"shard":"shard-2",'
    '"skips":1,"stream":"s1"}',
)

TRACE = TraceRecord(
    stream="s1", service_class="gold", arrival_round=0, outcome="served",
    spans=(
        Span(kind="admit", start=1, end=1, shard="shard-1",
             attrs={"queue_wait": 1}),
        Span(kind="grant", start=1, end=4, shard="shard-1", attrs={
            "granted": np.float64(0.1) * 3, "rounds": 4,
            "mean_quality": math.nan,
        }),
        Span(kind="renegotiate", start=5, end=5, shard=None, attrs={
            "old_target": 0.85, "new_target": 0.7, "cause": None,
        }),
    ),
)

TRACE_LINE = (
    '{"arrival_round":0,"outcome":"served","service_class":"gold",'
    '"spans":[{"attrs":{"queue_wait":1},"end":1,"kind":"admit",'
    '"shard":"shard-1","start":1},{"attrs":{"granted":0.30000000000000004,'
    '"mean_quality":null,"rounds":4},"end":4,"kind":"grant",'
    '"shard":"shard-1","start":1},{"attrs":{"cause":null,"new_target":0.7,'
    '"old_target":0.85},"end":5,"kind":"renegotiate","shard":null,'
    '"start":5}],"stream":"s1"}'
)

INCIDENT = Incident(
    slo="gold-quality", alert_round=7, window_start=2, window_end=7,
    units=6, bad_units=3, burn_multiple=5.000000000000001,
    causes=(
        CauseShare(kind="capacity-dip", share=2 / 3, units=2,
                   evidence="capacity on shard-0 dropped 1.6e+07 -> 8e+06"),
        CauseShare(kind="unattributed", share=1 / 3, units=1,
                   evidence="no recorded cause in the lookback window"),
    ),
)

INCIDENT_DOCUMENT = """\
[
  {
    "alert_round": 7,
    "bad_units": 3,
    "burn_multiple": 5.000000000000001,
    "causes": [
      {
        "evidence": "capacity on shard-0 dropped 1.6e+07 -> 8e+06",
        "kind": "capacity-dip",
        "share": 0.6666666666666666,
        "units": 2
      },
      {
        "evidence": "no recorded cause in the lookback window",
        "kind": "unattributed",
        "share": 0.3333333333333333,
        "units": 1
      }
    ],
    "slo": "gold-quality",
    "units": 6,
    "window_end": 7,
    "window_start": 2
  }
]"""

REPORT = SloReport(
    name="acceptance", objective="acceptance", service_class=None,
    threshold=None, target=0.9, units=10, bad_units=3, good_fraction=0.7,
    met=False, budget_units=0.9999999999999998, consumed_units=3.0,
    remaining_units=-2.0000000000000004,
    budget_remaining=-2.0000000000000004, alerts=1, time_to_first_burn=2,
    worst_fast_burn=10.000000000000002, worst_slow_burn=3.0000000000000004,
    worst_window_round=None,
)

REPORT_DOCUMENT = """\
{
  "alerts": 1,
  "bad_units": 3,
  "budget_remaining": -2.0000000000000004,
  "budget_units": 0.9999999999999998,
  "consumed_units": 3.0,
  "good_fraction": 0.7,
  "met": false,
  "name": "acceptance",
  "objective": "acceptance",
  "remaining_units": -2.0000000000000004,
  "service_class": null,
  "target": 0.9,
  "threshold": null,
  "time_to_first_burn": 2,
  "units": 10,
  "worst_fast_burn": 10.000000000000002,
  "worst_slow_burn": 3.0000000000000004,
  "worst_window_round": null
}"""


@pytest.mark.parametrize(
    "event, line", zip(EVENTS, EVENT_LINES), ids=[e.kind for e in EVENTS],
)
def test_event_line_is_pinned(event, line):
    assert event_to_line(event) == line


def test_event_log_reloads_to_its_own_bytes():
    text = events_to_jsonl(EVENTS)
    assert text == "".join(line + "\n" for line in EVENT_LINES)
    back = parse_events(text)
    assert events_to_jsonl(back) == text
    # a skipped frame's NaN quality comes back as None, tuples as tuples
    assert back[-1].quality_timeline == (4.0, None, 3.0)
    assert back[7].capacities == (16e6, 8e6)


def test_trace_line_is_pinned():
    assert trace_to_line(TRACE) == TRACE_LINE
    assert parse_traces(TRACE_LINE) == [TRACE]
    assert traces_to_jsonl([TRACE]) == TRACE_LINE + "\n"


def test_incident_document_is_pinned():
    document = canonical_document([INCIDENT.to_dict()])
    assert document == INCIDENT_DOCUMENT
    assert Incident.from_dict(json.loads(document)[0]) == INCIDENT


def test_slo_report_document_is_pinned():
    document = canonical_document(REPORT.to_dict())
    assert document == REPORT_DOCUMENT
    assert SloReport.from_dict(json.loads(document)) == REPORT
