"""The unified serving result: one accessor surface over both topologies.

:func:`repro.serving.serve` returns a :class:`ServingResult` whatever
the spec's topology, so callers (report tables, benches, assertions)
read acceptance, fairness, quality, skips/misses, and per-stream
outcomes without caring whether a
:class:`~repro.streams.fleet.FleetResult` or a
:class:`~repro.cluster.runner.ClusterResult` sits underneath: all three
share the :class:`~repro.streams.fleet.StreamAggregates` accessors,
which read the served, rejected and preempted streams of the wrapped
result.  The raw topology-specific result stays reachable as
``result.raw`` for cluster-only detail (migrations, lent cycles,
per-shard breakdowns).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.runner import ClusterResult
from repro.streams.fleet import FleetResult, StreamAggregates, StreamOutcome
from repro.streams.scenarios import StreamSpec


@dataclass
class ServingResult(StreamAggregates):
    """One serving run, fleet or cluster, behind shared accessors.

    ``topology`` (``"fleet"`` or ``"cluster"``) is recorded from the
    :class:`~repro.serving.spec.ServingSpec` that produced the run, and
    ``spec`` is that spec (``None`` when wrapping a hand-constructed
    result); ``runner`` is the runner instance that executed it, kept
    for post-run observability (e.g. ``runner.admission.queued_count``);
    ``observers`` is every observer attached to the run — caller-passed
    first, then the spec-declared ones — already ``close()``-d, so
    telemetry windows, event logs, and invariant ledgers are readable.
    """

    raw: FleetResult | ClusterResult
    topology: str
    spec: object | None = None
    runner: object | None = None
    observers: tuple = ()

    @property
    def scenario_name(self) -> str:
        return self.raw.scenario_name

    @property
    def rounds(self) -> int:
        return self.raw.rounds

    # ------------------------------------------------------------------
    # the shared accessors' sequences, read from ``raw``
    # ------------------------------------------------------------------

    @property
    def streams(self) -> list[StreamOutcome]:
        return self.raw.streams

    @property
    def outcomes(self) -> list[StreamOutcome]:
        """Every served stream's outcome, across all pools."""
        return list(self.raw.streams)

    @property
    def rejected(self) -> list[StreamSpec]:
        return list(self.raw.rejected)

    @property
    def preempted(self) -> list[StreamSpec]:
        """Queued specs evicted by priority admission (subset of
        ``rejected``)."""
        return list(self.raw.preempted)

    # ------------------------------------------------------------------
    # observability views (SLOs, traces, incidents)
    # ------------------------------------------------------------------

    def _first_observer(self, cls):
        return next(
            (o for o in self.observers if isinstance(o, cls)), None
        )

    def slo_reports(self) -> tuple:
        """Every declared SLO's end-of-run
        :class:`~repro.obs.slo.SloReport` (empty without an attached
        SLO observer — declare ``spec.slos`` to get one)."""
        from repro.obs.slo import SloObserver

        observer = self._first_observer(SloObserver)
        return () if observer is None else observer.reports()

    def alerts(self) -> tuple:
        """Every burn-rate :class:`~repro.obs.events.AlertEvent` the
        run's SLO observer fired or resolved, in order."""
        from repro.obs.slo import SloObserver

        observer = self._first_observer(SloObserver)
        return () if observer is None else tuple(observer.alerts)

    def traces(self) -> tuple:
        """Every session's :class:`~repro.obs.tracing.TraceRecord`
        (empty without an attached trace observer)."""
        from repro.obs.tracing import TraceObserver

        observer = self._first_observer(TraceObserver)
        return () if observer is None else observer.records()

    def incidents(self) -> tuple:
        """Attributed :class:`~repro.obs.attribution.Incident` per
        fired alert; needs both an SLO and a trace observer attached
        (post-hoc and pure — calling this cannot change the run)."""
        from repro.obs.attribution import attribute_incidents
        from repro.obs.slo import SloObserver
        from repro.obs.tracing import TraceObserver

        slo = self._first_observer(SloObserver)
        trace = self._first_observer(TraceObserver)
        if slo is None or trace is None:
            return ()
        return attribute_incidents(slo, trace)

    def summary(self) -> dict:
        """Topology-independent headline numbers (stable keys)."""
        return {
            "topology": self.topology,
            "scenario": self.scenario_name,
            "rounds": self.rounds,
            "served": self.served_count,
            "rejected": self.rejected_count,
            "preempted": self.preempted_count,
            "renegotiations": self.total_renegotiations(),
            "acceptance_ratio": round(self.acceptance_ratio, 4),
            "frames": self.total_frames(),
            "skips": self.total_skips(),
            "deadline_misses": self.total_deadline_misses(),
            "mean_quality": round(self.mean_quality(), 3),
            "mean_psnr": round(self.mean_psnr(), 3),
            "fairness_quality": round(self.fairness_quality(), 4),
        }
