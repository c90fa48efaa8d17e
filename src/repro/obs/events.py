"""Structured lifecycle events: deterministic JSONL export + loader.

:class:`StructuredEventLog` is a
:class:`~repro.serving.observers.RoundObserver` that serializes every
lifecycle event of a serving run — capacity declarations, per-pool
rounds, admissions, preemptions, rejections, migrations,
renegotiations, and departures (with each departed stream's full
per-frame quality timeline) — into typed records that dump to
**deterministic JSONL** through the :mod:`repro.obs.export` wire
format: one JSON object per line, sorted keys, floats sanitized
(``NaN`` becomes ``null`` — skipped frames have no quality).  Two
identical runs produce byte-identical logs, so event logs diff cleanly
across commits and CI uploads them as artifacts.

:func:`load_events` / :func:`parse_events` round-trip a log back into
the same record objects for offline analysis
(``repro.analysis.report.timeline_table`` renders one as a per-round
table).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs.export import (
    canonical_line,
    parse_jsonl,
    record_dict,
    record_from_dict,
)
from repro.serving.observers import RoundObserver


@dataclass(frozen=True)
class Event:
    """Base record: every event names its round and (optional) pool.

    :meth:`to_dict` is the plain form — the fields as they are (tuples,
    ``NaN``) plus the ``"event"`` kind; the writer
    (:func:`event_to_line`) cleans it, once.  ``tuple_fields`` names
    the fields the loader turns back from JSON arrays into tuples.
    """

    round: int
    shard: str | None

    kind = "event"
    tuple_fields = ()

    def to_dict(self) -> dict:
        data = record_dict(self)
        data["event"] = self.kind
        return data


@dataclass(frozen=True)
class CapacityEvent(Event):
    """A pool's nominal capacity was declared or changed."""

    capacity: float

    kind = "capacity"


@dataclass(frozen=True)
class RoundEvent(Event):
    """One arbitrated round on one pool: the grants and the pool size
    (the writer sorts the grant keys, so the runner's insertion order
    never reaches the line)."""

    capacity: float
    allocations: dict

    kind = "round"


@dataclass(frozen=True)
class AdmitEvent(Event):
    """A stream was admitted and its session started."""

    stream: str
    service_class: str | None
    arrival_round: int
    weight: float
    demand: float
    frames: int

    kind = "admit"


@dataclass(frozen=True)
class PreemptEvent(Event):
    """A queued stream was evicted by a higher-priority arrival."""

    stream: str
    service_class: str | None

    kind = "preempt"


@dataclass(frozen=True)
class RejectEvent(Event):
    """A stream was finally rejected."""

    stream: str
    service_class: str | None
    arrival_round: int

    kind = "reject"


@dataclass(frozen=True)
class MigrateEvent(Event):
    """One executed migration move (``shard`` is the source)."""

    stream: str
    dest: str
    move_kind: str

    kind = "migrate"


@dataclass(frozen=True)
class RenegotiateEvent(Event):
    """A session's quality target stepped from ``old`` to ``new``."""

    stream: str
    old_target: float
    new_target: float

    kind = "renegotiate"


@dataclass(frozen=True)
class ScaleEvent(Event):
    """An autoscaler action was applied (``shard`` is always ``None``:
    a scale action is cluster-wide, its per-pool effects arrive as
    capacity / migrate events in the same round)."""

    action: str
    sources: tuple
    capacities: tuple
    created: tuple
    reason: str
    action_id: str

    kind = "scale"
    tuple_fields = ("sources", "capacities", "created")


@dataclass(frozen=True)
class AlertEvent(Event):
    """An SLO burn-rate alert transition (``shard`` is always ``None``:
    objectives are cluster-wide).

    ``state`` is ``"firing"`` (both burn windows crossed the
    threshold, once per burn episode) or ``"resolved"`` (both back
    under it); ``budget_remaining`` is the share of the accrued error
    budget left at the transition (negative = overspent).  Emitted by
    :class:`~repro.obs.slo.SloObserver`, interleaved into the event
    stream at the round the transition was evaluated.
    """

    slo: str
    state: str
    fast_burn: float
    slow_burn: float
    budget_remaining: float

    kind = "alert"


@dataclass(frozen=True)
class DepartEvent(Event):
    """A stream finished, with its whole quality timeline.

    ``quality_timeline`` has one entry per scheduled frame; ``None``
    marks skipped frames (their quality is undefined).
    """

    stream: str
    service_class: str | None
    admitted_round: int
    frames: int
    skips: int
    deadline_misses: int
    renegotiations: int
    mean_quality: float | None
    quality_timeline: tuple

    kind = "depart"
    tuple_fields = ("quality_timeline",)


#: kind string -> record class, the loader's dispatch table.
EVENT_TYPES = {
    cls.kind: cls
    for cls in (
        CapacityEvent,
        RoundEvent,
        AdmitEvent,
        PreemptEvent,
        RejectEvent,
        MigrateEvent,
        RenegotiateEvent,
        ScaleEvent,
        AlertEvent,
        DepartEvent,
    )
}


def event_from_dict(data: dict) -> Event:
    """One parsed JSONL line back into its typed record."""
    if not isinstance(data, dict) or "event" not in data:
        raise ConfigurationError(
            f"an event record must be a mapping with an 'event' kind, "
            f"got {data!r}"
        )
    kind = data["event"]
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown event kind {kind!r}; "
            f"expected one of {sorted(EVENT_TYPES)}"
        )
    payload = {k: v for k, v in data.items() if k != "event"}
    for key in cls.tuple_fields:
        if key in payload:
            payload[key] = tuple(payload[key])
    return record_from_dict(cls, payload, f"event {kind!r}")


def event_to_line(event: Event) -> str:
    """One record as its canonical JSONL line (no newline)."""
    return canonical_line(event.to_dict())


def events_to_jsonl(events) -> str:
    """A whole event stream as deterministic JSONL text."""
    return "".join(event_to_line(e) + "\n" for e in events)


def parse_events(text_or_lines) -> list[Event]:
    """JSONL text (or an iterable of lines) back into typed records."""
    return parse_jsonl(text_or_lines, event_from_dict, "event log")


def load_events(path) -> list[Event]:
    """Read one JSONL event log from disk."""
    return parse_events(Path(path).read_text())


class StructuredEventLog(RoundObserver):
    """Collects every lifecycle event; optionally streams JSONL to disk.

    Parameters
    ----------
    path:
        Optional output file.  When given, each event's line is written
        as it happens (crash-tolerant logs); :meth:`close` flushes and
        closes the handle (:func:`repro.serve` calls it at run end).
    timelines:
        Include per-frame quality timelines in depart events (the bulky
        part; disable for long-horizon runs where the per-stream mean
        is enough).
    """

    def __init__(self, path=None, timelines: bool = True) -> None:
        self.events: list[Event] = []
        self.path = None if path is None else Path(path)
        self.timelines = timelines
        self._handle = None

    # ------------------------------------------------------------------

    def _emit(self, event: Event) -> None:
        self.events.append(event)
        if self.path is not None:
            if self._handle is None:
                self._handle = open(self.path, "w")
            self._handle.write(event_to_line(event) + "\n")

    def record(self, event: Event) -> None:
        """Append one externally produced record (an observer that
        derives events — :class:`~repro.obs.slo.SloObserver`'s alerts —
        interleaves them here at their deterministic position)."""
        self._emit(event)

    def on_capacity(self, capacity, round_index, shard_id=None):
        self._emit(CapacityEvent(
            round=round_index, shard=shard_id, capacity=capacity,
        ))

    def on_round(self, round_index, allocations, capacity, shard_id=None):
        self._emit(RoundEvent(
            round=round_index, shard=shard_id, capacity=capacity,
            allocations=dict(allocations),
        ))

    def on_admit(self, spec, round_index, shard_id=None):
        self._emit(AdmitEvent(
            round=round_index, shard=shard_id, stream=spec.name,
            service_class=spec.service_class,
            arrival_round=spec.arrival_round, weight=spec.weight,
            demand=spec.config.period, frames=spec.config.frames,
        ))

    def on_preempt(self, spec, round_index, shard_id=None):
        self._emit(PreemptEvent(
            round=round_index, shard=shard_id, stream=spec.name,
            service_class=spec.service_class,
        ))

    def on_reject(self, spec, round_index, shard_id=None):
        self._emit(RejectEvent(
            round=round_index, shard=shard_id, stream=spec.name,
            service_class=spec.service_class,
            arrival_round=spec.arrival_round,
        ))

    def on_migrate(self, move, round_index):
        self._emit(MigrateEvent(
            round=round_index, shard=move.source, stream=move.stream_id,
            dest=move.dest, move_kind=move.kind,
        ))

    def on_renegotiate(
        self, stream_id, old_target, new_target, round_index, shard_id=None
    ):
        self._emit(RenegotiateEvent(
            round=round_index, shard=shard_id, stream=stream_id,
            old_target=old_target, new_target=new_target,
        ))

    def on_scale(self, action, round_index):
        self._emit(ScaleEvent(
            round=round_index, shard=None, action=action.kind,
            sources=tuple(action.shards),
            capacities=tuple(action.capacities),
            created=tuple(action.created), reason=action.reason,
            action_id=action.action_id,
        ))

    def on_depart(self, outcome, round_index, shard_id=None):
        run = outcome.result
        mean = run.mean_quality()
        if self.timelines:
            # single pure-python pass: at typical timeline lengths the
            # fixed cost of a numpy round trip (array + isnan + tolist)
            # exceeds per-element float() conversion
            timeline = tuple(
                None if q != q else q
                for q in (float(f.mean_quality) for f in run.frames)
            )
        else:
            timeline = ()
        self._emit(DepartEvent(
            round=round_index, shard=shard_id, stream=outcome.spec.name,
            service_class=outcome.spec.service_class,
            admitted_round=outcome.admitted_round,
            frames=len(run), skips=run.skip_count,
            deadline_misses=run.deadline_miss_count,
            renegotiations=outcome.renegotiations,
            mean_quality=None if math.isnan(mean) else float(mean),
            quality_timeline=timeline,
        ))

    # ------------------------------------------------------------------

    def to_jsonl(self) -> str:
        """The collected stream as deterministic JSONL text."""
        return events_to_jsonl(self.events)

    def dump(self, path) -> Path:
        """Write the whole collected stream to ``path`` in one shot."""
        path = Path(path)
        path.write_text(self.to_jsonl())
        return path

    def close(self) -> None:
        """Flush and close the streaming handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
