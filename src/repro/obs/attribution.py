"""Incident attribution: when an SLO alert fires, say *why*.

:func:`attribute_incidents` joins the two halves of the tentpole: for
every firing :class:`~repro.obs.events.AlertEvent` an
:class:`~repro.obs.slo.SloObserver` produced, it walks the
:class:`~repro.obs.tracing.TraceObserver`'s causal history backward
over the burn window and assigns each bad budget unit its most
proximate cause, producing one machine-readable :class:`Incident` per
alert (rendered humanly by ``analysis.report.incident_table`` and
``python -m repro serve --incidents``).

Candidate causes, tested in precedence order per bad unit (the first
whose evidence holds wins — a capacity dip explains a renegotiation
cascade, not the other way round):

1. ``capacity-dip`` — an exogenous capacity drop inside the unit's
   lookback window;
2. ``arrival-burst`` — a flash crowd: the lookback window's arrivals
   reached :data:`BURST_FACTOR` times what the run's mean rate
   predicts for it (diurnal swings stay under it);
3. ``migration-storm`` — at least :data:`STORM_MOVES` executed moves
   in the lookback (churn thrashing the placements);
4. ``scale-lag`` — an autoscaler is active and degradation pressure
   built inside the window anyway: capacity arrived late (cooldown /
   sustain lag), or is still pending;
5. ``capacity-shortfall`` — degradation pressure with *flat* capacity
   and no autoscaler reacting: the deployment is simply provisioned
   below the workload;
6. ``renegotiation-cascade`` — at least :data:`CASCADE_STEPS`
   down-steps without any of the above: the control loop itself is
   degrading the class;
7. ``unattributed`` — none of the evidence holds.

Each cause's **share** is its fraction of the budget units burned in
the window — the counterfactual weight "had this not happened, this
much of the burn would not have" under the proximate-cause model.
Everything is a pure function of the two observers' recorded history,
so incidents are deterministic and JSON-round-trippable.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.obs.export import record_dict, record_from_dict

CAUSE_KINDS = (
    "capacity-dip",
    "arrival-burst",
    "migration-storm",
    "scale-lag",
    "capacity-shortfall",
    "renegotiation-cascade",
    "unattributed",
)

#: per-lookback-window evidence thresholds of the causes above
BURST_FACTOR = 2.5
STORM_MOVES = 6
CASCADE_STEPS = 4


@dataclass(frozen=True)
class CauseShare:
    """One ranked cause: its burned-budget share and the evidence."""

    kind: str
    share: float
    units: int
    evidence: str

    def __post_init__(self) -> None:
        if self.kind not in CAUSE_KINDS:
            raise ConfigurationError(
                f"unknown cause kind {self.kind!r}; expected one of "
                f"{CAUSE_KINDS}"
            )

    def to_dict(self) -> dict:
        return record_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "CauseShare":
        return record_from_dict(cls, data, "cause share")


@dataclass(frozen=True)
class Incident:
    """One alert, attributed: the burn window and its ranked causes."""

    slo: str
    alert_round: int
    window_start: int
    window_end: int
    units: int
    bad_units: int
    burn_multiple: float
    causes: tuple

    @property
    def top_cause(self) -> str | None:
        return self.causes[0].kind if self.causes else None

    def to_dict(self) -> dict:
        data = record_dict(self)
        data["causes"] = [cause.to_dict() for cause in self.causes]
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "Incident":
        if isinstance(data, Mapping) and "causes" in data:
            causes = data["causes"]
            if not isinstance(causes, (list, tuple)):
                raise ConfigurationError("incident causes must be a list")
            data = {
                **data,
                "causes": tuple(CauseShare.from_dict(c) for c in causes),
            }
        return record_from_dict(cls, data, "incident")


def _classify(
    unit_round: int, slo_class: str | None, tracer, lookback: int,
) -> tuple[str, str]:
    """One bad unit's proximate cause ``(kind, evidence)``."""
    start = unit_round - lookback + 1
    end = unit_round

    for dip in reversed(tracer.dips):
        if dip["round"] < start:
            break
        if dip["round"] <= end:
            return (
                "capacity-dip",
                f"capacity on {dip['shard']} dropped "
                f"{dip['before']:g} -> {dip['after']:g} at round "
                f"{dip['round']}",
            )

    if tracer.last_round > 0 and tracer.arrivals:
        # windowed, not single-round: with sub-1/round mean rates a
        # lone 3-arrival round trivially beats any factor of the mean,
        # while a real flash crowd sustains the excess across the
        # window (diurnal swings stay under ~1.5x)
        mean_rate = sum(tracer.arrivals.values()) / (tracer.last_round + 1)
        window_sum = sum(
            count
            for r, count in tracer.arrivals.items()
            if start <= r <= end
        )
        expected = mean_rate * (end - start + 1)
        if window_sum >= BURST_FACTOR * max(1.0, expected):
            return (
                "arrival-burst",
                f"{window_sum} arrivals in rounds [{start}, {end}] vs "
                f"{expected:.1f} expected at the mean rate",
            )

    moves = sum(1 for r in tracer.migration_rounds if start <= r <= end)
    if moves >= STORM_MOVES:
        return (
            "migration-storm",
            f"{moves} migration moves in rounds [{start}, {end}]",
        )

    down = sum(
        1
        for r, cls in tracer.down_steps
        if start <= r <= end and (slo_class is None or cls == slo_class)
    )
    pressure = down > 0

    if tracer.scale_actions:
        ups = [
            a for a in tracer.scale_actions
            if a["kind"] in ("add", "split") and start <= a["round"] <= end
        ]
        if pressure:
            if ups:
                return (
                    "scale-lag",
                    f"scale-up {ups[-1]['action_id']} landed at round "
                    f"{ups[-1]['round']} but {down} down-step(s) had "
                    f"already burned budget in [{start}, {end}]",
                )
            return (
                "scale-lag",
                f"{down} down-step(s) in [{start}, {end}] with the "
                f"autoscaler in cooldown (no scale-up in the window)",
            )

    flat = not any(
        start <= dip["round"] <= end for dip in tracer.dips
    ) and not any(
        start <= a["round"] <= end for a in tracer.scale_actions
    )
    if pressure and flat:
        return (
            "capacity-shortfall",
            f"{down} down-step(s) in [{start}, {end}] while total "
            f"capacity stayed flat — provisioned below the workload",
        )

    if down >= CASCADE_STEPS:
        return (
            "renegotiation-cascade",
            f"{down} down-step(s) in [{start}, {end}] without a "
            f"capacity or arrival trigger",
        )

    return ("unattributed", "no recorded cause in the lookback window")


def attribute_incidents(slo_observer, trace_observer) -> tuple[Incident, ...]:
    """Attribute every firing alert to ranked causes.

    Pure and post-hoc: reads the two observers' recorded history only,
    so calling it any number of times (or never) cannot change a run.
    """
    incidents = []
    for alert in slo_observer.alerts:
        if alert.state != "firing":
            continue
        tracker = slo_observer.trackers[alert.slo]
        spec = tracker.spec
        start = max(0, alert.round - spec.slow_window + 1)
        end = alert.round
        bad = [
            (r, stream) for r, stream in tracker.bad_log if start <= r <= end
        ]
        counts: dict[str, int] = {}
        evidence: dict[str, str] = {}
        for unit_round, _stream in bad:
            kind, why = _classify(
                unit_round, spec.service_class, trace_observer, spec.slow_window
            )
            counts[kind] = counts.get(kind, 0) + 1
            evidence.setdefault(kind, why)
        total_bad = len(bad)
        causes = tuple(sorted(
            (
                CauseShare(
                    kind=kind,
                    share=count / total_bad,
                    units=count,
                    evidence=evidence[kind],
                )
                for kind, count in counts.items()
            ),
            key=lambda cause: (-cause.share, cause.kind),
        ))
        window_units = sum(
            units
            for r, units, _bad in tracker_window(tracker, start, end)
        )
        budget_rate = 1.0 - spec.target
        burn_multiple = (
            (total_bad / window_units) / budget_rate if window_units else 0.0
        )
        incidents.append(Incident(
            slo=alert.slo,
            alert_round=alert.round,
            window_start=start,
            window_end=end,
            units=window_units,
            bad_units=total_bad,
            burn_multiple=burn_multiple,
            causes=causes,
        ))
    return tuple(incidents)


def tracker_window(tracker, start: int, end: int):
    """The tracker's sealed per-round buckets inside ``[start, end]``.

    The tracker prunes buckets beyond its slow window as it advances,
    but an alert is attributed over exactly that window ending at the
    alert round, so the unit log is the durable source: rebuild the
    per-round unit counts from ``bad_log`` plus the per-round totals
    kept in ``unit_log``.
    """
    counts: dict[int, list[int]] = {}
    for r, _stream, good in tracker.unit_log:
        if start <= r <= end:
            bucket = counts.setdefault(r, [0, 0])
            bucket[0] += 1
            if not good:
                bucket[1] += 1
    return [
        (r, units, bad) for r, (units, bad) in sorted(counts.items())
    ]
