"""One shard: a capacity pool with its own arbiter and admission gate.

A :class:`Shard` is the one per-pool step of every topology:
:class:`~repro.cluster.runner.ClusterRunner`'s round loop interleaves
shards and moves streams between them, and a fleet
(:class:`~repro.streams.fleet.FleetRunner`) is that loop over a single
shard with ``shard_id=None``:

* ``offer`` routes an arriving :class:`StreamSpec` through the shard's
  own :class:`~repro.streams.admission.AdmissionController` (accept /
  queue / reject against the shard's remaining feasible capacity);
* ``step`` arbitrates the shard's budget across its active sessions and
  advances each one scheduling round, retiring finished streams;
* ``detach`` / ``attach`` move a live session (or a queued spec) out of
  / into the shard with its admission commitment, the primitive the
  migration policies are built on;
* ``set_capacity`` applies outage / capacity-drop events mid-run.

Per-shard serving history accumulates into a
:class:`~repro.streams.fleet.FleetResult`, so every fleet metric
(fairness, skips, acceptance) is available per shard and the cluster
result is a straight aggregation.
"""

from __future__ import annotations

import math
from time import perf_counter

from repro.errors import ConfigurationError
from repro.streams.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionVerdict,
)
from repro.streams.arbiter import CapacityArbiter, CapacityRequest
from repro.streams.fleet import (
    FleetResult,
    StreamOutcome,
    _normalize_classes,
    session_sla_kwargs,
)
from repro.streams.scenarios import StreamSpec
from repro.streams.session import StreamSession


class Shard:
    """One capacity pool + arbiter + admission gate inside a cluster.

    Parameters
    ----------
    shard_id:
        Stable name (placement and migration records refer to it);
        ``None`` for the single pool of a fleet.
    capacity:
        The shard's share of the cluster budget (cycles per round).
    arbiter:
        The shard-local :class:`CapacityArbiter`.
    admission:
        Optional shard-local admission controller; its capacity should
        equal the shard's.  ``None`` admits everything.
    constraint_mode / granularity:
        Controller settings applied to every session on this shard.
    service_classes / renegotiation:
        SLA catalog and mid-stream renegotiation policy, as on
        :class:`~repro.streams.fleet.FleetRunner` (sessions of classed
        specs get their class's quality band).

    The cluster runner sets ``observers`` (whose hooks fire with this
    shard's id) and ``engine`` (see :mod:`repro.engine`) on every shard
    at the start of each run; a shard stepped on its own has no
    observers and the ``"scalar"`` engine.
    """

    def __init__(
        self,
        shard_id: str | None,
        capacity: float,
        arbiter: CapacityArbiter,
        admission: AdmissionController | None = None,
        constraint_mode: str = "both",
        granularity: int = 1,
        service_classes=None,
        renegotiation=None,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError("shard capacity must be positive")
        self.observers = ()
        self.shard_id = shard_id
        self.capacity = capacity
        self.nominal_capacity = capacity
        self.arbiter = arbiter
        self.admission = admission
        self.constraint_mode = constraint_mode
        self.granularity = granularity
        self.service_classes = _normalize_classes(service_classes)
        self.renegotiation = renegotiation
        self.engine = "scalar"

        self.active: list[StreamSession] = []
        self.spec_of: dict[str, StreamSpec] = {}
        self.admitted_round: dict[str, int] = {}
        self.outcomes: list[StreamOutcome] = []
        self.rejected: list[StreamSpec] = []
        self.preempted: list[StreamSpec] = []
        self.peak_concurrency = 0
        #: cycles of active demand summed over rounds — the shard's
        #: realized load, the basis of the cluster imbalance metric
        self.demand_cycles = 0.0

    @property
    def observers(self):
        return self._observers

    @observers.setter
    def observers(self, value) -> None:
        # keep the phase-timing flag in sync: the cluster runner
        # reassigns observers at the start of every run
        self._observers = tuple(value)
        if self._observers:
            # imported lazily — the cluster layer never depends on
            # repro.serving at import time
            from repro.serving.observers import phase_listeners

            self._phase_observers = phase_listeners(self._observers)
        else:
            self._phase_observers = ()
        self._timed = bool(self._phase_observers)

    # ------------------------------------------------------------------
    # placement-facing signals
    # ------------------------------------------------------------------

    @property
    def queue(self) -> list[StreamSpec]:
        """Specs parked in the shard's admission queue (empty if none)."""
        if self.admission is None:
            return []
        return list(self.admission.queue)

    @property
    def active_demand(self) -> float:
        """Dedicated-speed cycles/round the active sessions would need."""
        return sum(s.demand for s in self.active)

    @property
    def load(self) -> float:
        """Active + queued demand over capacity — the placement signal."""
        queued = sum(spec.config.period for spec in self.queue)
        return (self.active_demand + queued) / self.capacity

    @property
    def busy(self) -> bool:
        return bool(self.active) or bool(self.queue)

    def demand_of(self, spec: StreamSpec) -> float:
        """Cycles/round ``spec`` claims here: the gate's qmin demand
        (what admitting it commits), or its period on an ungated shard."""
        if self.admission is None:
            return spec.config.period
        return self.admission.demand(spec.config)

    def feasible_now(self, spec: StreamSpec) -> bool:
        """Would the shard accept ``spec`` immediately?"""
        return self.admission is None or self.admission.fits(spec.config)

    def feasible_alone(self, spec: StreamSpec) -> bool:
        """Does ``spec`` fit this shard's whole budget (else it can
        never be served here, only rejected)?"""
        return self.admission is None or self.admission.fits(
            spec.config, self.admission.budget
        )

    def headroom(self) -> float:
        """Uncommitted feasible cycles/round (capacity if ungated)."""
        if self.admission is None:
            return max(0.0, self.capacity - self.active_demand)
        return max(0.0, self.admission.remaining)

    def mean_recent_quality(self) -> float:
        """Mean normalized recent quality of active sessions (1.0 when
        idle — an empty shard looks maximally healthy to placement)."""
        values = [
            q
            for q in (s.normalized_recent_quality() for s in self.active)
            if not math.isnan(q)
        ]
        if not values:
            return 1.0
        return sum(values) / len(values)

    # ------------------------------------------------------------------
    # arrivals and capacity events
    # ------------------------------------------------------------------

    def offer(self, spec: StreamSpec, round_index: int) -> AdmissionDecision:
        """Route one arrival through this shard's admission gate."""
        if self.admission is None:
            self._start(spec, round_index)
            return AdmissionDecision.ACCEPTED
        verdict: AdmissionVerdict = self.admission.offer(spec)
        # queue preemption: the evicted spec is finally rejected here
        # and only here — once in the totals, one on_reject
        for victim in verdict.preempted:
            self.rejected.append(victim)
            self.preempted.append(victim)
            for observer in self.observers:
                observer.on_preempt(victim, round_index, shard_id=self.shard_id)
                observer.on_reject(victim, round_index, shard_id=self.shard_id)
        if verdict.decision is AdmissionDecision.ACCEPTED:
            self._start(spec, round_index)
        elif verdict.decision is AdmissionDecision.REJECTED:
            self.rejected.append(spec)
            for observer in self.observers:
                observer.on_reject(spec, round_index, shard_id=self.shard_id)
        return verdict.decision

    def admit_queued(self, round_index: int) -> int:
        """Start every queued spec that now fits; returns how many."""
        if self.admission is None:
            return 0
        admitted = self.admission.admit_queued()
        for spec in admitted:
            self._start(spec, round_index)
        return len(admitted)

    def set_capacity(self, capacity: float) -> None:
        """Apply a capacity event (outage, degradation, recovery).

        The arbiter pool and the admission budget both shrink; already
        committed demand may exceed the new budget, which simply blocks
        new admissions until departures (or migration) relieve it.
        """
        if capacity <= 0:
            raise ConfigurationError("shard capacity must stay positive")
        self.capacity = capacity
        if self.admission is not None:
            self.admission.capacity = capacity

    def reject_stuck_queue(self, round_index: int | None = None) -> int:
        """Reject queued specs that can no longer fit even when idle.

        After a capacity drop, a spec that was queued as "feasible
        alone" under the old budget may be unservable forever; without
        this flush the cluster loop would spin until ``max_rounds``.
        Only called by the runner once arrivals are exhausted and the
        shard has nothing active to depart.
        """
        return self._reject_queued(round_index, self.feasible_alone)

    def flush_queue(self, round_index: int | None = None) -> int:
        """Reject every queued spec unconditionally.

        Open-ended runs call this at their ``max_rounds`` stop
        condition: arrivals are over and active cameras are shutting
        down, so anything still waiting will never be served — letting
        it trickle into admission mid-drain would only spawn zero-value
        one-round sessions.
        """
        return self._reject_queued(round_index, lambda spec: False)

    def _reject_queued(self, round_index: int | None, keep) -> int:
        """Reject, in queue order, every queued spec ``keep`` refuses
        (one rejection on the gate and one ``on_reject`` each); the kept
        specs stay queued in their order.  Returns how many went."""
        if self.admission is None:
            return 0
        queue = self.admission.queue
        kept = []
        flushed = 0
        while queue:
            spec = queue.popleft()
            if keep(spec):
                kept.append(spec)
                continue
            self.admission.rejected_count += 1
            self.rejected.append(spec)
            flushed += 1
            for observer in self.observers:
                observer.on_reject(spec, round_index, shard_id=self.shard_id)
        queue.extend(kept)
        return flushed

    def shutdown_sessions(self) -> int:
        """Stop every unbounded camera on this shard (drain begins)."""
        return sum(1 for s in self.active if s.shutdown())

    # ------------------------------------------------------------------
    # migration primitives
    # ------------------------------------------------------------------

    def detach(self, stream_id: str) -> tuple[StreamSession, StreamSpec, int]:
        """Remove a live session, releasing its admission commitment."""
        for i, session in enumerate(self.active):
            if session.stream_id == stream_id:
                del self.active[i]
                spec = self.spec_of.pop(stream_id)
                admitted = self.admitted_round.pop(stream_id)
                if self.admission is not None:
                    self.admission.release(spec.config)
                return session, spec, admitted
        raise ConfigurationError(
            f"stream {stream_id!r} not active on shard {self.shard_id!r}"
        )

    def attach(
        self,
        session: StreamSession,
        spec: StreamSpec,
        admitted_round: int,
    ) -> None:
        """Adopt a migrated live session, committing its qmin demand.

        The migration policy is responsible for checking feasibility
        first; attach itself never refuses — a cluster must not lose a
        stream mid-flight.
        """
        if spec.name in self.spec_of:
            raise ConfigurationError(
                f"duplicate stream {spec.name!r} on shard {self.shard_id!r}"
            )
        self.active.append(session)
        self.spec_of[spec.name] = spec
        self.admitted_round[spec.name] = admitted_round
        if self.admission is not None:
            self.admission.committed += self.demand_of(spec)

    def pop_queued(self, name: str) -> StreamSpec | None:
        """Remove one spec from the admission queue (for queue moves).

        Removing a spec can unblock the spec behind it; the next
        ``admit_queued`` re-checks whoever is now at the head.
        """
        if self.admission is None:
            return None
        for spec in list(self.admission.queue):
            if spec.name == name:
                self.admission.queue.remove(spec)
                return spec
        return None

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------

    def step(self, round_index: int, capacity: float | None = None) -> int:
        """Arbitrate and advance every active session one round.

        ``capacity`` overrides the shard's own pool for this round only
        (the headroom balancer's lever).  Returns the number of streams
        that finished this round.
        """
        pool = self.capacity if capacity is None else capacity
        if not self.active:
            for observer in self.observers:
                observer.on_round(round_index, {}, pool, shard_id=self.shard_id)
            return 0
        self.peak_concurrency = max(self.peak_concurrency, len(self.active))
        self.demand_cycles += self.active_demand
        t0 = perf_counter() if self._timed else 0.0
        requests = [
            CapacityRequest(
                stream_id=s.stream_id,
                demand=s.demand,
                weight=s.weight,
                recent_quality=s.normalized_recent_quality(),
                backlog=s.backlog,
                service_class=s.service_class,
                target_quality=s.quality_target,
            )
            for s in self.active
        ]
        allocations = self.arbiter.allocate(requests, pool)
        if self._timed:
            now = perf_counter()
            for observer in self._phase_observers:
                observer.on_phase(
                    "arbitration", now - t0, round_index,
                    shard_id=self.shard_id,
                )
            t0 = now
        for observer in self.observers:
            observer.on_round(
                round_index, allocations, pool, shard_id=self.shard_id
            )
        if self.engine == "scalar":
            step_of = None
        else:
            # batched stepping computes every SessionStep up front; the
            # loop below still applies bookkeeping and fires hooks in
            # session order, so results and event logs match the
            # scalar engine bit for bit
            from repro.engine.vectorized import step_sessions

            step_of = step_sessions(self.active, allocations)
        finished = 0
        still_active: list[StreamSession] = []
        for session in self.active:
            step = (
                session.step(allocations[session.stream_id])
                if step_of is None
                else step_of[session.stream_id]
            )
            if step.renegotiated is not None:
                old, new = step.renegotiated
                for observer in self.observers:
                    observer.on_renegotiate(
                        session.stream_id,
                        old,
                        new,
                        round_index,
                        shard_id=self.shard_id,
                    )
            if step.finished:
                spec = self.spec_of.pop(session.stream_id)
                outcome = StreamOutcome(
                    spec=spec,
                    result=session.result(),
                    admitted_round=self.admitted_round.pop(session.stream_id),
                    finished_round=round_index,
                    renegotiations=session.renegotiation_count,
                )
                self.outcomes.append(outcome)
                if self.admission is not None:
                    self.admission.release(spec.config)
                finished += 1
                for observer in self.observers:
                    observer.on_depart(
                        outcome, round_index, shard_id=self.shard_id
                    )
            else:
                still_active.append(session)
        self.active = still_active
        if self._timed:
            now = perf_counter()
            for observer in self._phase_observers:
                observer.on_phase(
                    "step", now - t0, round_index, shard_id=self.shard_id
                )
        return finished

    def _start(self, spec: StreamSpec, round_index: int) -> None:
        if spec.name in self.spec_of:
            raise ConfigurationError(f"duplicate stream name {spec.name!r}")
        session = StreamSession(
            stream_id=spec.name,
            config=spec.config,
            constraint_mode=self.constraint_mode,
            granularity=self.granularity,
            weight=spec.weight,
            lifetime=getattr(spec, "lifetime", None),
            **session_sla_kwargs(
                spec, self.service_classes, self.renegotiation
            ),
        )
        self.active.append(session)
        self.spec_of[spec.name] = spec
        self.admitted_round[spec.name] = round_index
        for observer in self.observers:
            observer.on_admit(spec, round_index, shard_id=self.shard_id)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def result(self, scenario_name: str, rounds: int) -> FleetResult:
        """This shard's serving history as a standard FleetResult."""
        return FleetResult(
            scenario_name=scenario_name,
            arbiter_name=getattr(
                self.arbiter, "name", type(self.arbiter).__name__
            ),
            capacity=self.nominal_capacity,
            rounds=rounds,
            streams=list(self.outcomes),
            rejected=list(self.rejected),
            preempted=list(self.preempted),
            peak_concurrency=self.peak_concurrency,
            shard_id=self.shard_id,
        )
