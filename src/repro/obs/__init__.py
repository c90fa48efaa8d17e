"""Telemetry for the serving stack, attached purely through observers.

Everything in this package is a
:class:`~repro.serving.observers.RoundObserver`; runners never read
observers back, so attaching any combination cannot change a run's
results — the equivalence suite asserts bit-identity.

* :class:`TelemetryObserver` — tumbling-window serving metrics over a
  :class:`MetricsRegistry` of counters/gauges/histograms;
* :class:`StructuredEventLog` — every lifecycle event as deterministic
  JSONL, with a lossless loader (:func:`load_events`);
* :class:`InvariantObserver` — the runtime invariant ledger: named
  serving laws checked live, recording or enforcing;
* :class:`PerfObserver` — controller-phase wall-time breakdown;
* :class:`SloObserver` — rolling error budgets per declared
  :class:`SloSpec`, with multi-window burn-rate :class:`AlertEvent`\\ s;
* :class:`TraceObserver` — one causal span tree per session, linked to
  the capacity/scale events that shaped it;
* :func:`attribute_incidents` — joins the two into ranked
  :class:`Incident` reports, one per fired alert.
"""

from repro.obs.attribution import (
    CAUSE_KINDS,
    CauseShare,
    Incident,
    attribute_incidents,
)
from repro.obs.events import (
    AdmitEvent,
    AlertEvent,
    CapacityEvent,
    DepartEvent,
    Event,
    EVENT_TYPES,
    MigrateEvent,
    PreemptEvent,
    RejectEvent,
    RenegotiateEvent,
    RoundEvent,
    ScaleEvent,
    StructuredEventLog,
    event_from_dict,
    event_to_line,
    events_to_jsonl,
    load_events,
    parse_events,
)
from repro.obs.export import (
    canonical_document,
    canonical_line,
    clean_value,
)
from repro.obs.invariants import (
    INVARIANTS,
    ClassFloors,
    ExactlyOnceRejection,
    GrantConservation,
    Invariant,
    InvariantObserver,
    InvariantViolationError,
    MigrationHeadroom,
    PacingDegrade,
    PacingScaleCooldown,
    ScaleConservation,
    SloBudgetConservation,
    Violation,
    register_invariant,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetryObserver,
)
from repro.obs.profiling import PerfObserver
from repro.obs.slo import (
    SloObserver,
    SloReport,
    SloSpec,
    SloTracker,
    resolve_slos,
)
from repro.obs.tracing import (
    Span,
    TraceObserver,
    TraceRecord,
    load_traces,
    parse_traces,
    trace_to_line,
    traces_to_jsonl,
)

__all__ = [
    "AdmitEvent",
    "AlertEvent",
    "CAUSE_KINDS",
    "CapacityEvent",
    "CauseShare",
    "ClassFloors",
    "Counter",
    "DepartEvent",
    "EVENT_TYPES",
    "Event",
    "ExactlyOnceRejection",
    "Gauge",
    "GrantConservation",
    "Histogram",
    "INVARIANTS",
    "Incident",
    "Invariant",
    "InvariantObserver",
    "InvariantViolationError",
    "MetricsRegistry",
    "MigrateEvent",
    "MigrationHeadroom",
    "PacingDegrade",
    "PacingScaleCooldown",
    "PerfObserver",
    "PreemptEvent",
    "RejectEvent",
    "RenegotiateEvent",
    "RoundEvent",
    "ScaleConservation",
    "ScaleEvent",
    "SloBudgetConservation",
    "SloObserver",
    "SloReport",
    "SloSpec",
    "SloTracker",
    "Span",
    "StructuredEventLog",
    "TelemetryObserver",
    "TraceObserver",
    "TraceRecord",
    "Violation",
    "attribute_incidents",
    "canonical_document",
    "canonical_line",
    "clean_value",
    "event_from_dict",
    "event_to_line",
    "events_to_jsonl",
    "load_events",
    "load_traces",
    "parse_events",
    "parse_traces",
    "register_invariant",
    "resolve_slos",
    "trace_to_line",
    "traces_to_jsonl",
]
