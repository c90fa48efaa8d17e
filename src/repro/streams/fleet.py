"""Single-pool serving and the result types every topology shares.

A fleet is a one-shard cluster: :class:`FleetRunner` serves a
:class:`~repro.streams.scenarios.Scenario` through
:class:`~repro.cluster.runner.ClusterRunner`, the one round loop, on a
single :class:`~repro.cluster.shard.Shard` (``shard_id=None``) and
returns that pool's :class:`FleetResult`.  With one pool and no
cluster policies or capacity events, every cluster-only step is a no-op.

The module also keeps the result types — :class:`StreamOutcome`,
:class:`FleetResult` (one pool's record, also each entry of a
cluster's ``shard_results``) and :class:`StreamAggregates`, the QoS
accessors every serving result shares — plus :func:`compare_arbiters`
and :func:`session_sla_kwargs`, the SLA settings of a classed session.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.metrics import jain_fairness_index
from repro.errors import ConfigurationError
from repro.sim.results import RunResult
from repro.streams.admission import AdmissionController
from repro.streams.arbiter import CapacityArbiter
from repro.streams.scenarios import Scenario, StreamSpec


@dataclass(frozen=True)
class StreamOutcome:
    """One served stream's spec, its run, and when it was active.

    ``renegotiations`` counts the mid-stream SLA quality-target steps
    the session executed (0 for classless runs).
    """

    spec: StreamSpec
    result: RunResult
    admitted_round: int
    finished_round: int
    renegotiations: int = 0


def _finite_mean(values) -> float:
    """Mean of the finite values (nan when there are none)."""
    finite = [v for v in values if np.isfinite(v)]
    return float(np.mean(finite)) if finite else math.nan


def class_breakdown(outcomes, rejected, preempted) -> dict[str, dict]:
    """Per-service-class serving metrics over one result's streams.

    Backs :meth:`StreamAggregates.per_class`.  Unclassed streams
    group under ``"unclassed"``.  ``preempted`` is the subset of
    ``rejected`` evicted from admission queues, so its counts are
    *included* in ``rejected`` (never double-counted in acceptance).
    """
    buckets: dict[str, dict] = {}

    def bucket(service_class):
        key = service_class if service_class is not None else "unclassed"
        return buckets.setdefault(
            key,
            {
                "served": 0,
                "rejected": 0,
                "preempted": 0,
                "renegotiations": 0,
                "qualities": [],
            },
        )

    for outcome in outcomes:
        entry = bucket(outcome.spec.service_class)
        entry["served"] += 1
        entry["renegotiations"] += outcome.renegotiations
        entry["qualities"].append(outcome.result.mean_quality())
    for spec in rejected:
        bucket(spec.service_class)["rejected"] += 1
    for spec in preempted:
        bucket(spec.service_class)["preempted"] += 1

    breakdown: dict[str, dict] = {}
    for name in sorted(buckets):
        entry = buckets.pop(name)
        qualities = entry.pop("qualities")
        decided = entry["served"] + entry["rejected"]
        entry["acceptance_ratio"] = (
            entry["served"] / decided if decided else 1.0
        )
        entry["mean_quality"] = _finite_mean(qualities)
        entry["fairness_quality"] = jain_fairness_index(qualities)
        breakdown[name] = entry
    return breakdown


def _normalize_classes(classes) -> dict | None:
    """``service_classes`` runner kwarg -> ``{name: ServiceClass}``.

    Accepts ``None``, a mapping, or an iterable of classes (anything
    with a ``.name``); pure attribute access, so this module never
    imports the SLA package.
    """
    if classes is None:
        return None
    if isinstance(classes, Mapping):
        return dict(classes)
    return {c.name: c for c in classes}


def session_sla_kwargs(spec: StreamSpec, catalog, renegotiation) -> dict:
    """The SLA constructor kwargs a classed spec's session needs.

    Empty for unclassed specs.  ``catalog`` of ``None`` resolves to the
    standard gold/silver/bronze catalog (imported lazily — the streams
    layer never depends on :mod:`repro.sla` at import time); a classed
    spec whose name is missing from the catalog is a configuration
    error caught at session start, not mid-round.
    """
    if spec.service_class is None:
        return {}
    if catalog is None:
        from repro.sla.classes import resolve_classes

        catalog = resolve_classes(None)
    cls = catalog.get(spec.service_class)
    if cls is None:
        raise ConfigurationError(
            f"stream {spec.name!r} declares service class "
            f"{spec.service_class!r}, not in the catalog "
            f"{sorted(catalog)}"
        )
    return {
        "service_class": spec.service_class,
        "quality_target": cls.target_quality,
        "quality_floor": cls.min_quality,
        "renegotiation": renegotiation,
    }


def cross_class_fairness(breakdown: dict[str, dict]) -> float:
    """Jain index over per-class mean quality — Changuel et al.'s
    across-class quality-share criterion (idle classes excluded)."""
    values = [
        entry["mean_quality"]
        for entry in breakdown.values()
        if np.isfinite(entry["mean_quality"])
    ]
    return jain_fairness_index(values)


class StreamAggregates:
    """The QoS accessors every serving result shares.

    A subclass supplies three sequences: ``streams`` (the served
    :class:`StreamOutcome` records), ``rejected`` and ``preempted`` (the
    subset of ``rejected`` evicted from admission queues, each counted
    once as rejected).  :class:`FleetResult` holds them as fields,
    :class:`~repro.cluster.runner.ClusterResult` flattens them from its
    shards and :class:`~repro.serving.result.ServingResult` reads them
    from the result it wraps.
    """

    def per_stream_quality(self) -> list[float]:
        """Mean delivered quality per served stream (nan if all skipped)."""
        return [o.result.mean_quality() for o in self.streams]

    def per_stream_psnr(self) -> list[float]:
        return [o.result.mean_psnr() for o in self.streams]

    @property
    def served_count(self) -> int:
        return len(self.streams)

    @property
    def rejected_count(self) -> int:
        return len(self.rejected)

    @property
    def preempted_count(self) -> int:
        return len(self.preempted)

    @property
    def acceptance_ratio(self) -> float:
        offered = self.served_count + self.rejected_count
        return self.served_count / offered if offered else 1.0

    def total_renegotiations(self) -> int:
        return sum(o.renegotiations for o in self.streams)

    def per_class(self) -> dict[str, dict]:
        """Per-service-class metrics (see :func:`class_breakdown`)."""
        return class_breakdown(self.streams, self.rejected, self.preempted)

    def fairness_quality(self) -> float:
        """Jain index over per-stream mean quality — the headline metric."""
        return jain_fairness_index(self.per_stream_quality())

    def mean_quality(self) -> float:
        return _finite_mean(self.per_stream_quality())

    def mean_psnr(self) -> float:
        return _finite_mean(self.per_stream_psnr())

    def total_skips(self) -> int:
        return sum(o.result.skip_count for o in self.streams)

    def total_frames(self) -> int:
        return sum(len(o.result) for o in self.streams)

    def total_deadline_misses(self) -> int:
        return sum(o.result.deadline_miss_count for o in self.streams)


@dataclass
class FleetResult(StreamAggregates):
    """Everything one capacity pool (a fleet, or one cluster shard)
    produced."""

    scenario_name: str
    arbiter_name: str
    capacity: float
    rounds: int
    streams: list[StreamOutcome] = field(default_factory=list)
    rejected: list[StreamSpec] = field(default_factory=list)
    #: subset of ``rejected``: queued specs evicted by priority
    #: admission (each appears in BOTH lists, counted once as rejected)
    preempted: list[StreamSpec] = field(default_factory=list)
    peak_concurrency: int = 0
    #: the pool's id inside a cluster (``None`` for a fleet)
    shard_id: str | None = None

    def fairness_psnr(self) -> float:
        return jain_fairness_index(self.per_stream_psnr())

    def summary(self) -> dict:
        """Headline numbers for reports and assertions."""
        return {
            "scenario": self.scenario_name,
            "arbiter": self.arbiter_name,
            "capacity": self.capacity,
            "rounds": self.rounds,
            "served": self.served_count,
            "rejected": self.rejected_count,
            "preempted": self.preempted_count,
            "renegotiations": self.total_renegotiations(),
            "acceptance_ratio": round(self.acceptance_ratio, 4),
            "peak_concurrency": self.peak_concurrency,
            "frames": self.total_frames(),
            "skips": self.total_skips(),
            "deadline_misses": self.total_deadline_misses(),
            "mean_quality": round(self.mean_quality(), 3),
            "mean_psnr": round(self.mean_psnr(), 3),
            "fairness_quality": round(self.fairness_quality(), 4),
            "fairness_psnr": round(self.fairness_psnr(), 4),
        }


class FleetRunner:
    """Round-robin concurrent serving of a stream scenario on one pool,
    as a one-shard :class:`~repro.cluster.runner.ClusterRunner` run.

    Parameters
    ----------
    capacity:
        Shared processor cycles available per scheduling round.
    arbiter:
        A :class:`~repro.streams.arbiter.CapacityArbiter`.
    admission:
        Optional :class:`~repro.streams.admission.AdmissionController`.
        ``None`` admits everything (pure arbitration experiments).
        Its capacity should normally equal the runner's.
    constraint_mode / granularity:
        Controller settings applied to every session.
    max_rounds:
        Safety valve against runaway scenarios.
    observers:
        :class:`~repro.serving.observers.RoundObserver` instances whose
        lifecycle hooks (``on_round`` / ``on_admit`` / ``on_reject`` /
        ``on_depart`` / ``on_renegotiate``) fire during ``run``.
        Observers are never read back, so they cannot change results.
    service_classes:
        SLA catalog for classed stream specs — a mapping of name to
        :class:`~repro.sla.classes.ServiceClass` or an iterable of
        classes.  ``None`` lazily falls back to the standard
        gold/silver/bronze catalog the first time a classed spec is
        admitted; classless scenarios never touch it.
    renegotiation:
        Optional stateless mid-stream renegotiation policy applied to
        every classed session (see :mod:`repro.sla.renegotiation`).
    engine:
        Session execution engine (see :mod:`repro.engine`):
        ``"scalar"`` steps sessions one by one, ``"vectorized"`` steps
        all active sessions as numpy batches.  Both are bit-identical.
    """

    def __init__(
        self,
        capacity: float,
        arbiter: CapacityArbiter,
        admission: AdmissionController | None = None,
        constraint_mode: str = "both",
        granularity: int = 1,
        max_rounds: int = 100_000,
        observers=(),
        service_classes=None,
        renegotiation=None,
        engine: str = "scalar",
    ) -> None:
        # imported lazily: repro.cluster imports this module
        from repro.cluster.placement import RoundRobinPlacement
        from repro.cluster.runner import ClusterRunner

        if capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        self.capacity = capacity
        self.arbiter = arbiter
        self.admission = admission
        self.constraint_mode = constraint_mode
        self.granularity = granularity
        self.service_classes = service_classes
        self.renegotiation = renegotiation
        self._cluster = ClusterRunner(
            RoundRobinPlacement(),
            max_rounds=max_rounds,
            observers=observers,
            engine=engine,
        )

    def reset(self) -> None:
        """Restore the just-constructed state for another ``run``.

        The shard is rebuilt per run, arbiters are stateless by
        contract and ``ClusterRunner.run`` resets its own policies; what
        outlives a run is the admission controller's commitments and
        counters, which the cluster never resets on a caller's shard,
        so this clears them.  ``run`` calls this on entry, so
        back-to-back runs on one instance replay bit-identically to
        fresh-runner runs.
        """
        if self.admission is not None:
            self.admission.reset()

    def run(self, scenario: Scenario) -> FleetResult:
        """Serve the whole scenario to completion on one shard."""
        from repro.cluster.scenarios import ClusterScenario
        from repro.cluster.shard import Shard

        self.reset()
        pool = Shard(
            shard_id=None,
            capacity=self.capacity,
            arbiter=self.arbiter,
            admission=self.admission,
            constraint_mode=self.constraint_mode,
            granularity=self.granularity,
            service_classes=self.service_classes,
            renegotiation=self.renegotiation,
        )
        result = self._cluster.run(
            ClusterScenario(scenario.name, scenario, (self.capacity,)),
            shards=[pool],
        )
        return result.shard_results[0]


def compare_arbiters(
    scenario: Scenario,
    capacity: float,
    arbiters: list[CapacityArbiter],
    admission_factory=None,
    **runner_kwargs,
) -> dict[str, FleetResult]:
    """Run one scenario under several arbiters (fresh admission each).

    The bench and the fairness tests use this to put equal-share and
    quality-fair arbitration side by side on identical workloads.
    """
    results: dict[str, FleetResult] = {}
    for arbiter in arbiters:
        admission = admission_factory(capacity) if admission_factory else None
        runner = FleetRunner(
            capacity=capacity, arbiter=arbiter, admission=admission, **runner_kwargs
        )
        results[arbiter.name] = runner.run(scenario)
    return results
