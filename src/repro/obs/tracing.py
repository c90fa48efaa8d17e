"""Per-session causal traces: one span tree per stream, linked across
sessions to the capacity/scale events that shaped them.

"Control of Multiple Remote Servers for Quality-Fair Delivery"
(PAPERS.md) motivates per-stream quality trajectories as the unit of
diagnosis; :class:`TraceObserver` builds exactly that from the
observer hook stream, with no new runner entry points.  Each served
stream becomes a :class:`TraceRecord` — admit (with queue wait) →
per-window grant/quality segments → renegotiate / migrate / preempt
instants → depart — and each instant span carries a **causal edge**
(``attrs["cause"]``) when the hook ordering proves what triggered it:

* a migration fired in the same round as an applied
  :class:`~repro.horizon.autoscaler.ScaleAction` is that action's
  relocation — its cause is the action's ``action_id`` (policy
  migrations fire *earlier* in the round than scale relocations, so
  they never link falsely);
* a downward renegotiation within ``link_window`` rounds of a capacity
  dip on the stream's shard links to that dip
  (``capacity-dip@<shard>:<round>``), or failing that to a recent
  capacity-shrinking scale action.

Besides the per-session records the observer keeps the *cluster-level*
history attribution needs to reason counterfactually — capacity
declarations and dips, applied scale actions, arrivals per round,
migration and down-step rounds (see :mod:`repro.obs.attribution`).

Serialization shares the event log's wire format
(:mod:`repro.obs.export`): deterministic JSONL (sorted keys, canonical
floats, records ordered by first round then stream id),
byte-identical across reruns and hash seeds, with a lossless
:func:`parse_traces` / :func:`load_traces` loader and an
``analysis.report.trace_table`` renderer.  Like every observer,
attaching it cannot change a run's results.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError
from repro.obs.export import (
    canonical_line,
    clean_value,
    parse_jsonl,
    record_dict,
    record_from_dict,
)
from repro.serving.observers import RoundObserver

SPAN_KINDS = (
    "admit", "grant", "renegotiate", "migrate", "preempt", "reject",
    "depart",
)

TRACE_OUTCOMES = ("served", "rejected", "active")


@dataclass(frozen=True)
class Span:
    """One node of a session's span tree.

    Instant spans (``admit`` / ``renegotiate`` / ``migrate`` /
    ``preempt`` / ``reject`` / ``depart``) have ``start == end``;
    ``grant`` segments cover a window of rounds.  ``attrs`` is a flat
    JSON-native payload per kind; causal edges live under
    ``attrs["cause"]``.
    """

    kind: str
    start: int
    end: int
    shard: str | None
    attrs: dict

    def __post_init__(self) -> None:
        if self.kind not in SPAN_KINDS:
            raise ConfigurationError(
                f"unknown span kind {self.kind!r}; expected one of "
                f"{SPAN_KINDS}"
            )
        # canonical at construction so equality == round-trip equality;
        # the common case (flat JSON-native scalars) skips the
        # recursive cleaning pass — spans are built in bulk on the
        # observer hot path
        attrs = dict(self.attrs)
        for value in attrs.values():
            kind = type(value)
            if kind is float:
                if math.isfinite(value):
                    continue
            elif kind in (str, int, bool, type(None)):
                continue
            attrs = clean_value(attrs)
            break
        object.__setattr__(self, "attrs", attrs)

    def to_dict(self) -> dict:
        return record_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "Span":
        return record_from_dict(cls, data, "span")


@dataclass(frozen=True)
class TraceRecord:
    """One stream's whole story: identity, outcome, span tree."""

    stream: str
    service_class: str | None
    arrival_round: int
    outcome: str
    spans: tuple

    def __post_init__(self) -> None:
        if self.outcome not in TRACE_OUTCOMES:
            raise ConfigurationError(
                f"trace outcome must be one of {TRACE_OUTCOMES}, "
                f"got {self.outcome!r}"
            )
        object.__setattr__(self, "spans", tuple(self.spans))

    @property
    def first_round(self) -> int:
        return self.spans[0].start if self.spans else self.arrival_round

    def to_dict(self) -> dict:
        data = record_dict(self)
        data["spans"] = [span.to_dict() for span in self.spans]
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "TraceRecord":
        if isinstance(data, Mapping) and "spans" in data:
            spans = data["spans"]
            if not isinstance(spans, (list, tuple)):
                raise ConfigurationError(
                    f"trace record spans must be a list, got "
                    f"{type(spans).__name__}"
                )
            data = {**data, "spans": [Span.from_dict(s) for s in spans]}
        return record_from_dict(cls, data, "trace record")


def trace_to_line(record: TraceRecord) -> str:
    """One record as its canonical JSONL line (no newline)."""
    return canonical_line(record.to_dict())


def traces_to_jsonl(records) -> str:
    """A whole trace log as deterministic JSONL text."""
    return "".join(trace_to_line(r) + "\n" for r in records)


def parse_traces(text_or_lines) -> list[TraceRecord]:
    """JSONL text (or an iterable of lines) back into trace records."""
    return parse_jsonl(text_or_lines, TraceRecord.from_dict, "trace log")


def load_traces(path) -> list[TraceRecord]:
    """Read one JSONL trace log from disk."""
    return parse_traces(Path(path).read_text())


class TraceObserver(RoundObserver):
    """Builds one :class:`TraceRecord` span tree per stream.

    Parameters
    ----------
    path:
        Optional output file; :meth:`close` writes the finished log
        there (trace records finalize at departure, so the log is
        written whole, not streamed).
    segment_rounds:
        Grant/quality segment length in rounds: each served stream's
        timeline is chunked into windows this long, every chunk
        carrying the granted capacity and (filled at departure from
        the session's quality timeline) the mean delivered quality.
    """

    #: rounds after a capacity dip that a down-step still links to it:
    #: steps trail a dip by the renegotiation's patience, cascades more
    link_window = 15

    def __init__(self, path=None, segment_rounds: int = 20) -> None:
        if (
            isinstance(segment_rounds, bool)
            or not isinstance(segment_rounds, int)
            or segment_rounds < 1
        ):
            raise ConfigurationError(
                f"segment_rounds must be an integer >= 1, got "
                f"{segment_rounds!r}"
            )
        self.path = None if path is None else Path(path)
        self.segment_rounds = segment_rounds
        self._records: list[TraceRecord] | None = None
        self._live: dict[str, dict] = {}
        self._finished: list[dict] = []
        self._closed = False
        # ---- cluster-level history (attribution's evidence base) ----
        #: every capacity declaration, in hook order.
        self.capacity_log: list[tuple[int, str | None, float]] = []
        #: exogenous capacity dips (scale retirements excluded).
        self.dips: list[dict] = []
        #: applied scale actions, as dicts with their ``action_id``.
        self.scale_actions: list[dict] = []
        #: offered streams per *arrival* round (queued specs count at
        #: their true arrival once a decision hook reveals them).
        self.arrivals: dict[int, int] = {}
        #: round of every executed migration move.
        self.migration_rounds: list[int] = []
        #: (round, service class) of every downward renegotiation.
        self.down_steps: list[tuple[int, str | None]] = []
        self.last_round = 0
        self._capacity: dict = {}
        self._scaling: set = set()
        self._last_scale: tuple[int, str] | None = None
        self._seen: set[str] = set()
        self._class_of: dict[str, str | None] = {}

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------

    def _tick(self, round_index: int) -> None:
        if round_index > self.last_round:
            self.last_round = round_index

    def _offered(self, spec, round_index: int) -> None:
        if spec.name in self._seen:
            return
        self._seen.add(spec.name)
        self._class_of[spec.name] = spec.service_class
        self.arrivals[spec.arrival_round] = (
            self.arrivals.get(spec.arrival_round, 0) + 1
        )

    def _close_segment(self, live: dict, end_round: int) -> None:
        seg = live.get("seg")
        if seg is None:
            return
        live["seg"] = None
        if end_round < seg["start"]:
            return  # migrated/departed before its first arbitrated round
        live["spans"].append({
            "kind": "grant",
            "start": seg["start"],
            "end": end_round,
            "shard": seg["shard"],
            "attrs": {
                "granted": seg["granted"],
                "rounds": seg["rounds"],
                "mean_quality": None,  # filled from the timeline at depart
            },
        })

    def _open_segment(self, live: dict, start_round: int, shard) -> None:
        live["seg"] = {
            "start": start_round, "shard": shard,
            "granted": 0.0, "rounds": 0,
        }

    def _finalize(self, live: dict, outcome: str) -> None:
        live["outcome"] = outcome
        self._finished.append(live)

    def _dip_cause(self, shard, round_index: int) -> str | None:
        for dip in reversed(self.dips):
            if dip["round"] <= round_index - self.link_window:
                break
            if dip["shard"] == shard or shard is None:
                return dip["id"]
        for action in reversed(self.scale_actions):
            if action["round"] <= round_index - self.link_window:
                break
            if action["kind"] in ("remove", "merge"):
                return action["action_id"]
        return None

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------

    def on_capacity(self, capacity, round_index, shard_id=None):
        self._tick(round_index)
        self.capacity_log.append((round_index, shard_id, float(capacity)))
        previous = self._capacity.get(shard_id)
        if shard_id in self._scaling:
            # declarations a scale action promised are provisioning,
            # not dips (the PacingScaleCooldown idiom)
            self._scaling.discard(shard_id)
        elif previous is not None and 0.0 < capacity < previous:
            self.dips.append({
                "id": f"capacity-dip@{shard_id}:{round_index}",
                "round": round_index,
                "shard": shard_id,
                "before": previous,
                "after": float(capacity),
            })
        if capacity <= 0.0:
            self._capacity.pop(shard_id, None)
        else:
            self._capacity[shard_id] = float(capacity)

    def on_scale(self, action, round_index):
        self._tick(round_index)
        self.scale_actions.append({
            "round": round_index,
            "action_id": action.action_id,
            "kind": action.kind,
            "reason": action.reason,
            "shards": list(action.shards),
            "created": list(action.created),
        })
        self._last_scale = (round_index, action.action_id)
        self._scaling.update(action.shards)
        self._scaling.update(action.created)

    def on_admit(self, spec, round_index, shard_id=None):
        self._tick(round_index)
        self._offered(spec, round_index)
        live = {
            "stream": spec.name,
            "service_class": spec.service_class,
            "arrival_round": spec.arrival_round,
            "admitted_round": round_index,
            "shard": shard_id,
            "spans": [{
                "kind": "admit",
                "start": round_index,
                "end": round_index,
                "shard": shard_id,
                "attrs": {
                    "queue_wait": round_index - spec.arrival_round,
                },
            }],
            "seg": None,
        }
        self._live[spec.name] = live
        self._open_segment(live, round_index, shard_id)

    def on_preempt(self, spec, round_index, shard_id=None):
        self._tick(round_index)
        self._offered(spec, round_index)
        # a preempted spec was queued, never admitted: start its
        # (short) record here; the paired on_reject finalizes it
        self._live[spec.name] = {
            "stream": spec.name,
            "service_class": spec.service_class,
            "arrival_round": spec.arrival_round,
            "admitted_round": None,
            "shard": shard_id,
            "spans": [{
                "kind": "preempt",
                "start": round_index,
                "end": round_index,
                "shard": shard_id,
                "attrs": {},
            }],
            "seg": None,
        }

    def on_reject(self, spec, round_index, shard_id=None):
        self._tick(round_index)
        self._offered(spec, round_index)
        live = self._live.pop(spec.name, None)
        if live is None:
            live = {
                "stream": spec.name,
                "service_class": spec.service_class,
                "arrival_round": spec.arrival_round,
                "admitted_round": None,
                "shard": shard_id,
                "spans": [],
                "seg": None,
            }
        live["spans"].append({
            "kind": "reject",
            "start": round_index,
            "end": round_index,
            "shard": shard_id,
            "attrs": {"queue_wait": round_index - spec.arrival_round},
        })
        self._finalize(live, "rejected")

    def on_round(self, round_index, allocations, capacity, shard_id=None):
        self._tick(round_index)
        if not allocations:
            return
        segment_rounds = self.segment_rounds
        for stream_id, grant in allocations.items():
            live = self._live.get(stream_id)
            if live is None:
                continue
            seg = live["seg"]
            if seg is None:
                continue
            if round_index - seg["start"] >= segment_rounds:
                self._close_segment(live, round_index - 1)
                self._open_segment(live, round_index, live["shard"])
                seg = live["seg"]
            seg["granted"] += grant
            seg["rounds"] += 1

    def on_migrate(self, move, round_index):
        self._tick(round_index)
        self.migration_rounds.append(round_index)
        live = self._live.get(move.stream_id)
        if live is None:
            return
        cause = None
        if self._last_scale is not None and self._last_scale[0] == round_index:
            # scale relocations fire in the same round as (and after)
            # their on_scale; policy moves fire earlier in the round
            cause = self._last_scale[1]
        self._close_segment(live, round_index - 1)
        live["spans"].append({
            "kind": "migrate",
            "start": round_index,
            "end": round_index,
            "shard": move.source,
            "attrs": {
                "dest": move.dest,
                "move_kind": move.kind,
                "cause": cause,
            },
        })
        live["shard"] = move.dest
        if move.kind == "active":
            self._open_segment(live, round_index, move.dest)

    def on_renegotiate(
        self, stream_id, old_target, new_target, round_index, shard_id=None
    ):
        self._tick(round_index)
        live = self._live.get(stream_id)
        down = new_target < old_target
        if down:
            self.down_steps.append(
                (round_index, self._class_of.get(stream_id))
            )
        if live is None:
            return
        cause = (
            self._dip_cause(live["shard"], round_index) if down else None
        )
        live["spans"].append({
            "kind": "renegotiate",
            "start": round_index,
            "end": round_index,
            "shard": live["shard"],
            "attrs": {
                "old_target": old_target,
                "new_target": new_target,
                "cause": cause,
            },
        })

    def on_depart(self, outcome, round_index, shard_id=None):
        self._tick(round_index)
        live = self._live.pop(outcome.spec.name, None)
        if live is None:
            return
        self._close_segment(live, round_index)
        run = outcome.result
        mean = run.mean_quality()
        # plain floats up front: the segment windows below then hold
        # JSON-native scalars and their spans skip the cleaning pass
        timeline = run.quality_series().tolist()
        admitted = live["admitted_round"]
        for span in live["spans"]:
            # grant windows align 1:1 with session frames (one step per
            # active round); fill each segment's delivered quality
            if span["kind"] != "grant" or admitted is None:
                continue
            lo = max(0, span["start"] - admitted)
            hi = min(len(timeline) - 1, span["end"] - admitted)
            window = [
                q for q in timeline[lo:hi + 1] if not math.isnan(q)
            ]
            span["attrs"]["mean_quality"] = (
                sum(window) / len(window) if window else None
            )
        live["spans"].append({
            "kind": "depart",
            "start": round_index,
            "end": round_index,
            "shard": shard_id,
            "attrs": {
                "frames": len(run),
                "skips": run.skip_count,
                "renegotiations": outcome.renegotiations,
                "mean_quality": None if math.isnan(mean) else float(mean),
            },
        })
        self._finalize(live, "served")

    # ------------------------------------------------------------------
    # finalization + queries
    # ------------------------------------------------------------------

    def _build(self, live: dict, outcome: str) -> TraceRecord:
        spans = sorted(live["spans"], key=lambda span: span["start"])
        return TraceRecord(
            stream=live["stream"],
            service_class=live["service_class"],
            arrival_round=live["arrival_round"],
            outcome=outcome,
            spans=tuple(Span(**span) for span in spans),
        )

    def records(self) -> tuple[TraceRecord, ...]:
        """Every finished record, ordered by (first round, stream id).

        Closes the observer if still open (streams active at the end
        of an open-ended run get ``outcome="active"`` records).
        """
        self.close()
        return self._records

    def close(self) -> None:
        """Finalize still-active streams, fix the record order, and
        write ``path`` if one was given.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for name in sorted(self._live):
            live = self._live[name]
            self._close_segment(live, self.last_round)
            self._finalize(live, "active")
        self._live.clear()
        records = [
            self._build(live, live["outcome"]) for live in self._finished
        ]
        records.sort(key=lambda r: (r.first_round, r.stream))
        self._records = tuple(records)
        if self.path is not None:
            self.dump(self.path)

    def to_jsonl(self) -> str:
        """The finished trace log as deterministic JSONL text."""
        return traces_to_jsonl(self.records())

    def dump(self, path) -> Path:
        """Write the whole trace log to ``path`` in one shot."""
        path = Path(path)
        path.write_text(self.to_jsonl())
        return path
