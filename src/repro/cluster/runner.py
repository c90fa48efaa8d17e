"""The cluster runner: many shards, one placement brain, optional
migration and headroom rebalancing.

:class:`ClusterRunner` drives a
:class:`~repro.cluster.scenarios.ClusterScenario` round by round:

1. capacity events scheduled for this round hit their shards;
2. arrivals are routed to a shard by the
   :class:`~repro.cluster.placement.PlacementPolicy` and offered to
   that shard's admission gate (a single shot — a bad placement *is*
   the rejection, which is what the placement comparison measures);
3. the :class:`~repro.cluster.migration.MigrationPolicy` plans moves
   (queued specs toward headroom, starved sessions off overloaded
   shards) and the runner executes them;
4. shards re-examine their admission queues;
5. the optional :class:`HeadroomBalancer` — an arbiter of arbiters —
   computes this round's effective per-shard budgets by lending idle
   shards' spare cycles to overloaded ones (total conserved);
6. every shard arbitrates its (effective) budget and steps its
   sessions one scheduling round.

The run is deterministic for a fixed scenario; the result aggregates
per-shard :class:`~repro.streams.fleet.FleetResult`s into cluster
metrics — global acceptance ratio, per-stream and cross-shard Jain
fairness, load imbalance, migration counts.  This is the one round
loop: a fleet (:class:`~repro.streams.fleet.FleetRunner`) is a run
over one shard with no events or policies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.analysis.metrics import jain_fairness_index, load_imbalance
from repro.cluster.migration import MigrationMove, MigrationPolicy
from repro.cluster.placement import PlacementPolicy
from repro.cluster.scenarios import ClusterScenario
from repro.cluster.shard import Shard
from repro.engine import validate_engine
from repro.errors import ConfigurationError
from repro.streams.admission import AdmissionController
from repro.streams.arbiter import CapacityArbiter, make_arbiter
from repro.streams.fleet import FleetResult, StreamAggregates, StreamOutcome
from repro.streams.scenarios import StreamSpec


class HeadroomBalancer:
    """The arbiter-of-arbiters: lend idle shards' cycles per round.

    Each round, a shard whose active demand sits below its capacity
    donates ``lend_fraction`` of the spare into a pool; the pool is
    split across shards whose demand exceeds capacity, proportionally
    to their deficit.  The total budget is conserved and no shard drops
    below what its own sessions can use, so admission guarantees
    (committed against *nominal* shard capacity) are never violated by
    the lending — it only moves cycles that would have idled.
    """

    #: share of a donor's spare cycles lent each round; the rest keeps
    #: its own sessions above dedicated speed
    lend_fraction = 0.9

    def __init__(self) -> None:
        self.lent_cycles = 0.0

    def reset(self) -> None:
        self.lent_cycles = 0.0

    def effective_capacities(self, shards: list[Shard]) -> dict[str, float]:
        effective = {s.shard_id: s.capacity for s in shards}
        pool = 0.0
        deficits: dict[str, float] = {}
        for shard in shards:
            demand = shard.active_demand
            spare = shard.capacity - demand
            if spare > 0:
                lend = self.lend_fraction * spare
                effective[shard.shard_id] -= lend
                pool += lend
            elif spare < 0:
                deficits[shard.shard_id] = -spare
        total_deficit = sum(deficits.values())
        if pool <= 0 or total_deficit <= 0:
            return {s.shard_id: s.capacity for s in shards}
        granted = min(pool, total_deficit)
        for shard_id, deficit in deficits.items():
            effective[shard_id] += granted * deficit / total_deficit
        # undistributed surplus returns to the donors pro rata
        leftover = pool - granted
        if leftover > 0:
            spares = {
                s.shard_id: max(0.0, s.capacity - s.active_demand)
                for s in shards
            }
            total_spare = sum(spares.values())
            for shard_id, spare in spares.items():
                effective[shard_id] += leftover * spare / total_spare
        self.lent_cycles += granted
        return effective


@dataclass
class ClusterResult(StreamAggregates):
    """Everything a cluster run produced, per shard and aggregated."""

    scenario_name: str
    placement_name: str
    migration_name: str
    total_capacity: float
    balancer_name: str = "none"
    rounds: int = 0
    shard_results: list[FleetResult] = field(default_factory=list)
    migrations: list[MigrationMove] = field(default_factory=list)
    shard_demand_cycles: list[float] = field(default_factory=list)
    lent_cycles: float = 0.0
    #: provisioned capacity summed over rounds (cycles x rounds) — what
    #: a statically provisioned cluster "pays for"; the autoscaler
    #: benchmarks compare this across provisioning strategies
    capacity_rounds: float = 0.0
    #: scale actions the autoscaler applied (empty without one)
    scale_actions: list = field(default_factory=list)

    # ------------------------------------------------------------------
    # the shared accessors' sequences, flattened across shards
    # ------------------------------------------------------------------

    @property
    def streams(self) -> list[StreamOutcome]:
        return [o for r in self.shard_results for o in r.streams]

    @property
    def rejected(self) -> list[StreamSpec]:
        return [s for r in self.shard_results for s in r.rejected]

    @property
    def preempted(self) -> list[StreamSpec]:
        return [s for r in self.shard_results for s in r.preempted]

    # ------------------------------------------------------------------
    # cluster-only aggregates
    # ------------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.shard_results)

    @property
    def migration_count(self) -> int:
        return len(self.migrations)

    @property
    def active_migration_count(self) -> int:
        return sum(1 for m in self.migrations if m.kind == "active")

    def per_shard_quality(self) -> list[float]:
        """Mean served quality per shard (nan for idle shards)."""
        return [r.mean_quality() for r in self.shard_results]

    def fairness_streams(self) -> float:
        """Jain index over every served stream's mean quality."""
        return self.fairness_quality()

    def fairness_cross_shard(self) -> float:
        """Jain index over per-shard mean quality — the cluster-level
        quality-fair-delivery criterion (idle shards excluded: an
        unused pool is a placement problem, measured by imbalance)."""
        values = [v for v in self.per_shard_quality() if not math.isnan(v)]
        return jain_fairness_index(values)

    def load_imbalance(self) -> float:
        """Peak-to-mean realized shard load (1.0 = perfectly balanced)."""
        return load_imbalance(self.shard_demand_cycles)

    def summary(self) -> dict:
        """Headline numbers for reports and assertions."""
        return {
            "scenario": self.scenario_name,
            "placement": self.placement_name,
            "migration": self.migration_name,
            "balancer": self.balancer_name,
            "shards": self.shard_count,
            "capacity": self.total_capacity,
            "rounds": self.rounds,
            "served": self.served_count,
            "rejected": self.rejected_count,
            "preempted": self.preempted_count,
            "renegotiations": self.total_renegotiations(),
            "acceptance_ratio": round(self.acceptance_ratio, 4),
            "migrations": self.migration_count,
            "active_migrations": self.active_migration_count,
            "scale_actions": len(self.scale_actions),
            "capacity_rounds": round(self.capacity_rounds, 3),
            "frames": self.total_frames(),
            "skips": self.total_skips(),
            "mean_quality": round(self.mean_quality(), 3),
            "fairness_streams": round(self.fairness_streams(), 4),
            "fairness_cross_shard": round(self.fairness_cross_shard(), 4),
            "load_imbalance": round(self.load_imbalance(), 4),
        }


def build_shards(
    capacities,
    arbiter: str | CapacityArbiter = "quality-fair",
    admission: bool = True,
    constraint_mode: str = "both",
    granularity: int = 1,
    admission_factory=None,
    service_classes=None,
    renegotiation=None,
) -> list[Shard]:
    """Convenience: one shard per capacity, fresh arbiter + admission each.

    ``admission_factory`` (called as ``factory(capacity)``) overrides
    the default per-shard :class:`AdmissionController` — the serving
    layer uses it to build registry-selected admission gates; returning
    ``None`` leaves that shard ungated.  ``service_classes`` and
    ``renegotiation`` are passed through to every shard (the SLA
    session settings, see :class:`~repro.cluster.shard.Shard`).
    """
    shards = []
    for i, capacity in enumerate(capacities):
        # arbiters are stateless (allocate is pure), so one instance
        # may serve every shard
        shard_arbiter = (
            make_arbiter(arbiter) if isinstance(arbiter, str) else arbiter
        )
        if admission_factory is not None:
            gate = admission_factory(capacity)
        elif admission:
            gate = AdmissionController(capacity)
        else:
            gate = None
        shards.append(
            Shard(
                shard_id=f"shard-{i}",
                capacity=capacity,
                arbiter=shard_arbiter,
                admission=gate,
                constraint_mode=constraint_mode,
                granularity=granularity,
                service_classes=service_classes,
                renegotiation=renegotiation,
            )
        )
    return shards


class ClusterRunner:
    """Round-robin concurrent serving across many shards.

    Parameters
    ----------
    placement:
        The :class:`PlacementPolicy` routing arrivals to shards.
    migration:
        Optional :class:`MigrationPolicy` (``None`` = streams never
        move).
    balancer:
        Optional :class:`HeadroomBalancer` lending idle capacity
        between shards each round.
    observers:
        :class:`~repro.serving.observers.RoundObserver` instances whose
        hooks fire per shard (``on_round`` / ``on_admit`` /
        ``on_reject`` / ``on_depart``, with the shard's id) and per
        executed migration move (``on_migrate``).  Each run fires them
        through one :class:`~repro.serving.observers.Hooks`, shared by
        every shard, so a hook reaches only the observers that override
        it.  Observers are never read back, so they cannot change
        results.
    engine:
        Session execution engine (see :mod:`repro.engine`):
        ``"scalar"`` steps each shard's sessions one by one;
        ``"vectorized"`` batches each shard's sessions through the
        numpy kernel.  Shards always step in order.  The knob is
        pushed onto every shard at the start of each run (like the
        run's hooks), so it also applies to caller-provided shards.
        Both engines are bit-identical.
    shard_kwargs:
        Passed to :func:`build_shards` (arbiter, admission, ...).
    """

    def __init__(
        self,
        placement: PlacementPolicy,
        migration: MigrationPolicy | None = None,
        balancer: HeadroomBalancer | None = None,
        max_rounds: int = 100_000,
        observers=(),
        engine: str = "scalar",
        autoscaler=None,
        **shard_kwargs,
    ) -> None:
        if max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")
        self.placement = placement
        self.migration = migration
        self.balancer = balancer
        self.max_rounds = max_rounds
        self.observers = tuple(observers)
        self.engine = validate_engine(engine)
        self.autoscaler = autoscaler
        self.shard_kwargs = shard_kwargs
        self._scale_serial = 0
        self._action_serial = 0

    def reset(self) -> None:
        """Restore the just-constructed state for another ``run``.

        Clears every policy's cross-run memory (placement rotation,
        migration residency records, balancer lending tally, autoscaler
        telemetry).  ``run`` calls this on entry, so back-to-back runs
        on one instance are bit-identical to fresh-runner runs; it is
        public so callers holding a runner can also discard state
        explicitly.
        """
        self.placement.reset()
        if self.migration is not None:
            self.migration.reset()
        if self.balancer is not None:
            self.balancer.reset()
        if self.autoscaler is not None:
            self.autoscaler.reset()
        self._scale_serial = 0
        self._action_serial = 0

    def run(
        self,
        scenario: ClusterScenario,
        shards: list[Shard] | None = None,
    ) -> ClusterResult:
        """Serve the whole cluster scenario to completion.

        ``shards`` overrides the default :func:`build_shards` pools
        (they must match the scenario's shard count).
        """
        # a run is self-contained: replaying the same scenario on the
        # same runner must reproduce it exactly
        self.reset()
        if shards is None:
            shards = build_shards(scenario.shard_capacities, **self.shard_kwargs)
        if len(shards) != scenario.shard_count:
            raise ConfigurationError(
                f"scenario expects {scenario.shard_count} shards, "
                f"got {len(shards)}"
            )
        # the autoscaler's signal source (usually its private telemetry
        # observer) rides along with the caller's observers so it sees
        # every hook on every shard
        observers = self.observers
        if self.autoscaler is not None:
            signal_observer = self.autoscaler.observer()
            if signal_observer is not None:
                observers = observers + (signal_observer,)
        # imported lazily — the cluster layer never depends on
        # repro.serving at import time
        from repro.serving.observers import Hooks

        hooks = Hooks(observers)
        for shard in shards:
            shard.hooks = hooks
            shard.engine = self.engine
            hooks.on_capacity(shard.capacity, 0, shard_id=shard.shard_id)
        result = ClusterResult(
            scenario_name=scenario.name,
            placement_name=getattr(
                self.placement, "name", type(self.placement).__name__
            ),
            migration_name=(
                getattr(self.migration, "name", type(self.migration).__name__)
                if self.migration is not None
                else "none"
            ),
            total_capacity=scenario.total_capacity,
            balancer_name=(
                "headroom" if self.balancer is not None else "none"
            ),
        )
        by_id = {s.shard_id: s for s in shards}
        arrivals = scenario.arrivals
        open_ended = bool(getattr(scenario, "open_ended", False))
        if open_ended:
            # max_rounds is the *stop condition*: the last arrival round
            # is horizon, then cameras shut down and the backlog drains
            horizon = self.max_rounds - 1
        else:
            horizon = max(arrivals.last_arrival_round, scenario.last_event_round)
        # shards the autoscaler retired mid-run; their serving history
        # still counts in the aggregate result
        retired: list[Shard] = []
        round_index = self._serve_rounds(
            scenario, shards, by_id, arrivals, horizon, result, hooks,
            open_ended, retired,
        )
        result.rounds = round_index
        result.shard_results = [
            s.result(scenario.name, round_index) for s in shards + retired
        ]
        result.shard_demand_cycles = [
            s.demand_cycles for s in shards + retired
        ]
        if self.balancer is not None:
            result.lent_cycles = self.balancer.lent_cycles
        return result

    def _serve_rounds(
        self, scenario, shards, by_id, arrivals, horizon, result, hooks,
        open_ended, retired,
    ) -> int:
        """The round loop of :meth:`run`; returns the rounds served."""
        round_index = 0
        # the drain tail of an open-ended run extends past the stop
        # round, so the runaway valve has to sit beyond it
        round_limit = (
            2 * self.max_rounds + 1000 if open_ended else self.max_rounds
        )
        # capacity events address shards by scenario index; autoscaled
        # shards come and go, so keep the original index mapping stable
        event_targets: list[Shard] = list(shards)
        while round_index <= horizon or any(s.busy for s in shards):
            if round_index >= round_limit:
                raise ConfigurationError(
                    f"scenario {scenario.name!r} exceeded "
                    f"max_rounds={self.max_rounds}"
                    + (
                        " (open-ended drain did not converge)"
                        if open_ended
                        else ""
                    )
                )
            draining = open_ended and round_index > horizon
            # 1. capacity events
            for event in scenario.events_at(round_index):
                shard = event_targets[event.shard_index]
                if shard not in shards:
                    continue  # the autoscaler retired this pool
                shard.set_capacity(shard.nominal_capacity * event.factor)
                hooks.on_capacity(
                    shard.capacity, round_index, shard_id=shard.shard_id
                )
            # 1b. open-ended stop condition reached: cameras stop, the
            # wait queues flush (nothing behind them will be served)
            if draining:
                for shard in shards:
                    shard.shutdown_sessions()
                    shard.flush_queue(round_index)
            # 2. arrivals through placement + shard admission
            t0 = hooks.start()
            if not draining:
                for spec in arrivals.arrivals_at(round_index):
                    shard = self.placement.choose(spec, shards, round_index)
                    shard.offer(spec, round_index)
            t0 = hooks.lap("admission", t0, round_index)
            # 3. migration
            if self.migration is not None:
                moves = self.migration.plan(shards, round_index)
                for move in moves:
                    if self._execute(move, by_id, round_index):
                        result.migrations.append(move)
                        hooks.on_migrate(move, round_index)
                hooks.lap("migration", t0, round_index)
            # 4. queued streams that now fit start
            if not draining:
                for shard in shards:
                    shard.admit_queued(round_index)
            # stuck queues: nothing active anywhere, no arrivals or
            # events left — nothing will ever free capacity, flush
            if (
                not open_ended
                and round_index > horizon
                and not any(s.active for s in shards)
            ):
                for shard in shards:
                    shard.reject_stuck_queue(round_index)
                    # whatever survived the flush fits on an idle shard
                    shard.admit_queued(round_index)
            # 5 + 6. headroom lending, then every shard steps
            effective = None
            if self.balancer is not None:
                t0 = hooks.start()
                effective = self.balancer.effective_capacities(shards)
                hooks.lap("balancing", t0, round_index)
            result.capacity_rounds += sum(s.capacity for s in shards)
            for shard in shards:
                shard.step(
                    round_index,
                    None
                    if effective is None
                    else effective[shard.shard_id],
                )
            # 7. autoscaling: plan from this round's signals, apply the
            # actions between rounds (the next round sees the new pools)
            if self.autoscaler is not None:
                for action in self.autoscaler.plan(shards, round_index):
                    self._apply_scale(
                        action, shards, by_id, retired, round_index, hooks,
                        result,
                    )
            round_index += 1
        return round_index

    # ------------------------------------------------------------------
    # autoscaling
    # ------------------------------------------------------------------

    def _provision(self, capacity: float, hooks) -> Shard:
        """Build one fresh shard the way ``run`` builds the initial ones."""
        shard = build_shards([capacity], **self.shard_kwargs)[0]
        shard.shard_id = f"scale-{self._scale_serial}"
        self._scale_serial += 1
        shard.hooks = hooks
        shard.engine = self.engine
        return shard

    def _relocation_plan(self, moving, dests):
        """Greedy stream placement for a drained shard's population.

        ``moving`` is ``[(source, spec, kind), ...]`` in deterministic
        order; returns ``[(source, spec, kind, dest), ...]`` or ``None``
        when some *active* session fits nowhere — the caller must then
        drop the whole action (a scale-down never strands a live
        stream).  Queued specs always get a destination (its admission
        gate re-decides: admit, re-queue or reject honestly).
        """
        headroom = {d.shard_id: d.headroom() for d in dests}
        plan = []
        for source, spec, kind in moving:
            best = None
            for dest in dests:
                if dest.demand_of(spec) > headroom[dest.shard_id]:
                    continue
                if best is None or (
                    headroom[dest.shard_id] > headroom[best.shard_id]
                ):
                    best = dest
            if best is None:
                if kind == "active":
                    return None
                best = max(dests, key=lambda d: headroom[d.shard_id])
            else:
                headroom[best.shard_id] -= best.demand_of(spec)
            plan.append((source, spec, kind, best))
        return plan

    def _population(self, shard: Shard):
        """A shard's streams in deterministic order: active, then queued."""
        return [
            (shard, shard.spec_of[s.stream_id], "active") for s in shard.active
        ] + [(shard, spec, "queued") for spec in shard.queue]

    def _apply_scale(
        self, action, shards, by_id, retired, round_index, hooks, result,
    ) -> bool:
        """Apply one :class:`~repro.horizon.autoscaler.ScaleAction`.

        Structural problems (unknown kind or shard, non-conserving
        split/merge, removing the last shard) are configuration errors —
        an autoscaler that emits them is broken.  A *relocation* that
        cannot be done safely (a live session fits on no surviving
        shard) silently drops the action instead: capacity stays as it
        was and the policy may retry later.  Observers see the applied
        action via ``on_scale`` (fired before any mutation, with the
        created shard ids filled in), then ``on_capacity`` for every
        provisioned shard, then ``on_migrate`` per relocated stream,
        then ``on_capacity(0.0)`` for every retired shard.
        """
        kind = getattr(action, "kind", None)
        if kind not in ("add", "remove", "split", "merge"):
            raise ConfigurationError(f"unknown scale action kind {kind!r}")
        sources = []
        for shard_id in action.shards:
            shard = by_id.get(shard_id)
            if shard is None or shard not in shards:
                raise ConfigurationError(
                    f"scale action targets unknown shard {shard_id!r}"
                )
            sources.append(shard)
        created: list[Shard] = []
        plan = []
        if kind == "add":
            created = [self._provision(action.capacities[0], hooks)]
        elif kind == "remove":
            survivors = [s for s in shards if s is not sources[0]]
            if not survivors:
                raise ConfigurationError("cannot remove the last shard")
            plan = self._relocation_plan(
                self._population(sources[0]), survivors
            )
            if plan is None:
                return False
        elif kind == "split":
            total = sum(action.capacities)
            if not math.isclose(
                total, sources[0].capacity, rel_tol=1e-9, abs_tol=1e-6
            ):
                raise ConfigurationError(
                    f"split of {sources[0].shard_id!r} does not conserve "
                    f"capacity: {total} != {sources[0].capacity}"
                )
            created = [self._provision(c, hooks) for c in action.capacities]
            plan = self._relocation_plan(
                self._population(sources[0]), created
            )
            if plan is None:
                return False
        else:  # merge
            total = sum(s.capacity for s in sources)
            if action.capacities and not math.isclose(
                action.capacities[0], total, rel_tol=1e-9, abs_tol=1e-6
            ):
                raise ConfigurationError(
                    f"merge does not conserve capacity: "
                    f"{action.capacities[0]} != {total}"
                )
            created = [self._provision(total, hooks)]
            plan = self._relocation_plan(
                [m for s in sources for m in self._population(s)], created
            )
            if plan is None:
                return False
        applied = replace(
            action, created=tuple(s.shard_id for s in created),
            action_id=f"scale-action-{self._action_serial}",
        )
        self._action_serial += 1
        result.scale_actions.append(applied)
        hooks.on_scale(applied, round_index)
        for shard in created:
            shards.append(shard)
            by_id[shard.shard_id] = shard
            hooks.on_capacity(
                shard.capacity, round_index, shard_id=shard.shard_id
            )
        for source, spec, move_kind, dest in plan:
            if move_kind == "active":
                session, live_spec, admitted = source.detach(spec.name)
                dest.attach(session, live_spec, admitted)
            else:
                popped = source.pop_queued(spec.name)
                if popped is None:
                    continue
                dest.offer(popped, round_index)
            move = MigrationMove(
                stream_id=spec.name,
                source=source.shard_id,
                dest=dest.shard_id,
                kind=move_kind,
            )
            result.migrations.append(move)
            hooks.on_migrate(move, round_index)
        for shard in sources:
            shards.remove(shard)
            del by_id[shard.shard_id]
            retired.append(shard)
            hooks.on_capacity(0.0, round_index, shard_id=shard.shard_id)
        return True

    def _execute(
        self,
        move: MigrationMove,
        by_id: dict[str, Shard],
        round_index: int,
    ) -> bool:
        """Apply one planned move; returns False if it no longer applies."""
        source = by_id[move.source]
        dest = by_id[move.dest]
        if move.kind == "queued":
            spec = next(
                (s for s in source.queue if s.name == move.stream_id), None
            )
            if spec is None:
                return False
            # the policy checked feasibility, but a same-round earlier
            # move may have consumed the headroom — bounce BEFORE
            # popping so the source queue keeps its FIFO order and the
            # stream is never converted into a rejection
            if not dest.feasible_now(spec):
                return False
            source.pop_queued(move.stream_id)
            dest.offer(spec, round_index)
            return True
        session_entry = source.spec_of.get(move.stream_id)
        if session_entry is None:
            return False
        session, spec, admitted = source.detach(move.stream_id)
        dest.attach(session, spec, admitted)
        return True


def compare_placements(
    scenario: ClusterScenario,
    placements: list[PlacementPolicy],
    migration_factory=None,
    balancer_factory=None,
    **runner_kwargs,
) -> dict[str, ClusterResult]:
    """Run one cluster scenario under several placement policies.

    Fresh shards, migration and balancer per run so policies never
    share state; the bench and the acceptance tests use this to put
    round-robin and feasibility-aware placement side by side.
    """
    results: dict[str, ClusterResult] = {}
    for placement in placements:
        runner = ClusterRunner(
            placement=placement,
            migration=migration_factory() if migration_factory else None,
            balancer=balancer_factory() if balancer_factory else None,
            **runner_kwargs,
        )
        results[placement.name] = runner.run(scenario)
    return results
