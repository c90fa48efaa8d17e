"""The runtime invariant ledger: named, machine-checked serving laws.

Every guarantee the serving stack's tests assert post-hoc becomes a
named :class:`Invariant` checked **live** against the observer hook
stream, so any run — including future engine refactors — can execute
under a safety harness:

* ``grant-conservation`` — on every busy round the arbiter's grants
  are non-negative and sum exactly to the arbitrated pool;
* ``class-floors`` — renegotiated quality targets never step below the
  stream's declared class floor (nor outside [0, 1], nor to a no-op);
* ``exactly-once-rejection`` — every offered stream is decided exactly
  once: admitted xor rejected, each departure matches one admission,
  and every preemption is accounted as exactly one rejection;
* ``migration-headroom`` — a migration's implicit feasibility claim
  holds: after any move the destination's committed qmin demand still
  fits its nominal capacity, moves reference streams actually resident
  on the source, and departures happen from the pool the ledger
  believes the stream lives on;
* ``scale-conservation`` — autoscaling changes total capacity only by
  explicit, declared provisioning: splits and merges conserve exactly,
  created and retired shards declare their capacities before the next
  round;
* ``pacing-degrade`` / ``pacing-scale-cooldown`` — the graceful-pacing
  contracts: renegotiation steps stay bounded and never flutter, scale
  actions stay spaced and never add capacity into a still-settling dip.

:class:`InvariantObserver` runs a set of invariants over a run and
either records violations (``enforce=False``, the ledger mode) or
raises :class:`InvariantViolationError` at the first one
(``enforce=True``, the CI harness mode).  Third-party invariants
register into :data:`INVARIANTS` via :func:`register_invariant`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.serving.observers import Hooks, RoundObserver
from repro.serving.registry import PolicyRegistry
from repro.sla.classes import resolve_classes
from repro.streams.admission import qmin_demand


@dataclass(frozen=True)
class Violation:
    """One broken invariant occurrence, machine-readable."""

    invariant: str
    detail: str
    round_index: int | None = None
    shard_id: str | None = None
    stream_id: str | None = None

    def __str__(self) -> str:
        where = f"round {self.round_index}"
        if self.shard_id is not None:
            where += f", {self.shard_id}"
        if self.stream_id is not None:
            where += f", stream {self.stream_id!r}"
        return f"[{self.invariant}] {self.detail} ({where})"


class InvariantViolationError(AssertionError):
    """Raised in enforcement mode; carries the first violation."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(str(violation))
        self.violation = violation


class Invariant(RoundObserver):
    """One named serving law, checked against the hook stream.

    Subclasses override the lifecycle hooks they need and call
    :meth:`violation` when the law breaks; ``finalize`` runs once at
    the end of a completed run for whole-run accounting.  Instances are
    single-run: the owning :class:`InvariantObserver` builds fresh ones.
    """

    name = "invariant"
    description = ""

    def __init__(self) -> None:
        self._emit = None
        #: SLA catalog injected by the owning observer (class floors).
        self.classes = None
        #: declared SLOs injected by the owning observer (budget laws);
        #: ``None`` leaves SLO-dependent invariants inert.
        self.slos = None

    def bind(self, emit) -> None:
        self._emit = emit

    def violation(
        self, detail, round_index=None, shard_id=None, stream_id=None
    ) -> None:
        self._emit(Violation(
            invariant=self.name, detail=detail, round_index=round_index,
            shard_id=shard_id, stream_id=stream_id,
        ))

    def is_active(self) -> bool:
        """Whether the law has anything to check on this run (called
        after the owning observer injects ``classes``/``slos``; an
        inactive law is skipped by hook dispatch but still listed in
        the ledger)."""
        return True

    def finalize(self) -> None:
        """End-of-run accounting (run by ``InvariantObserver.close``)."""


class GrantConservation(Invariant):
    """Grants are non-negative and sum exactly to the arbitrated pool.

    The universal arbiter contract (every built-in satisfies it by
    construction): on a busy round no capacity is invented and none is
    silently dropped.  Tolerance is relative — pools are ~1e7 cycles.
    """

    name = "grant-conservation"
    description = "busy-round grants are >= 0 and sum to the pool"
    rel_tol = 1e-6

    def on_round(self, round_index, allocations, capacity, shard_id=None):
        if not allocations:
            return
        total = 0.0
        for stream_id, grant in allocations.items():
            total += grant
            if grant < -self.rel_tol * capacity:
                self.violation(
                    f"negative grant {grant!r}",
                    round_index=round_index, shard_id=shard_id,
                    stream_id=stream_id,
                )
        if not math.isclose(total, capacity, rel_tol=self.rel_tol):
            self.violation(
                f"grants sum to {total!r}, pool is {capacity!r}",
                round_index=round_index, shard_id=shard_id,
            )


class ClassFloors(Invariant):
    """Renegotiated targets respect the stream's class floor and [0, 1].

    Also rejects no-op steps (``new == old``): renegotiation events
    must mean something, or density metrics lie.
    """

    name = "class-floors"
    description = "renegotiated targets stay within [class floor, 1]"
    abs_tol = 1e-9

    def __init__(self) -> None:
        super().__init__()
        self._floor_of: dict[str, float] = {}
        self._catalog = None

    def on_admit(self, spec, round_index, shard_id=None):
        if spec.service_class is None:
            return
        if self._catalog is None:
            self._catalog = resolve_classes(self.classes)
        cls = self._catalog.get(spec.service_class)
        # unknown classes are the runner's ConfigurationError, not ours
        if cls is not None:
            self._floor_of[spec.name] = cls.min_quality

    def on_renegotiate(
        self, stream_id, old_target, new_target, round_index, shard_id=None
    ):
        if new_target == old_target:
            self.violation(
                f"no-op renegotiation at target {new_target!r}",
                round_index=round_index, shard_id=shard_id,
                stream_id=stream_id,
            )
        if not 0.0 <= new_target <= 1.0:
            self.violation(
                f"target {new_target!r} outside [0, 1]",
                round_index=round_index, shard_id=shard_id,
                stream_id=stream_id,
            )
        floor = self._floor_of.get(stream_id)
        if floor is not None and new_target < floor - self.abs_tol:
            self.violation(
                f"target {new_target!r} below class floor {floor!r}",
                round_index=round_index, shard_id=shard_id,
                stream_id=stream_id,
            )


class ExactlyOnceRejection(Invariant):
    """Every stream is decided once; preemptions count as rejections.

    The accounting law behind acceptance ratios: a stream is admitted
    xor rejected (never both, never twice), departures pair 1:1 with
    admissions, and every preemption is followed by exactly one
    rejection of the same stream — the "counted once" guarantee the
    SLA layer's totals rely on.
    """

    name = "exactly-once-rejection"
    description = "admit/reject/preempt/depart accounting is exactly-once"

    def __init__(self) -> None:
        super().__init__()
        self._admitted: set[str] = set()
        self._rejected: set[str] = set()
        self._departed: set[str] = set()
        self._preempted: set[str] = set()

    def on_admit(self, spec, round_index, shard_id=None):
        if spec.name in self._admitted:
            self.violation(
                "admitted twice", round_index=round_index,
                shard_id=shard_id, stream_id=spec.name,
            )
        if spec.name in self._rejected:
            self.violation(
                "admitted after rejection", round_index=round_index,
                shard_id=shard_id, stream_id=spec.name,
            )
        self._admitted.add(spec.name)

    def on_reject(self, spec, round_index, shard_id=None):
        if spec.name in self._rejected:
            self.violation(
                "rejected twice", round_index=round_index,
                shard_id=shard_id, stream_id=spec.name,
            )
        if spec.name in self._admitted:
            self.violation(
                "rejected after admission", round_index=round_index,
                shard_id=shard_id, stream_id=spec.name,
            )
        self._rejected.add(spec.name)

    def on_preempt(self, spec, round_index, shard_id=None):
        if spec.name in self._admitted:
            self.violation(
                "preempted while active (only queued specs may be "
                "preempted)", round_index=round_index,
                shard_id=shard_id, stream_id=spec.name,
            )
        self._preempted.add(spec.name)

    def on_depart(self, outcome, round_index, shard_id=None):
        name = outcome.spec.name
        if name in self._departed:
            self.violation(
                "departed twice", round_index=round_index,
                shard_id=shard_id, stream_id=name,
            )
        if name not in self._admitted:
            self.violation(
                "departed without admission", round_index=round_index,
                shard_id=shard_id, stream_id=name,
            )
        self._departed.add(name)

    def finalize(self) -> None:
        for name in sorted(self._preempted - self._rejected):
            self.violation(
                "preempted but never counted as rejected", stream_id=name
            )
        for name in sorted(self._admitted - self._departed):
            self.violation(
                "admitted but never departed (run ended with the "
                "stream still active)", stream_id=name,
            )


class MigrationHeadroom(Invariant):
    """Migrations keep their feasibility claims and residency honest.

    Tracks each stream's resident pool and every pool's committed qmin
    demand (mode ``"average"`` — a lower bound on what any admission
    gate actually committed, so the check never false-positives).  A
    capacity drop may legitimately leave a pool overcommitted, so the
    fit check runs only when a *move* makes a fresh headroom claim.
    """

    name = "migration-headroom"
    description = "post-move committed qmin demand fits the dest's capacity"
    rel_tol = 1e-9
    mode = "average"

    def __init__(self) -> None:
        super().__init__()
        self._capacity: dict = {}
        self._committed: dict = {}
        self._resident: dict[str, tuple] = {}

    def on_capacity(self, capacity, round_index, shard_id=None):
        self._capacity[shard_id] = capacity

    def on_admit(self, spec, round_index, shard_id=None):
        self._resident[spec.name] = (shard_id, spec.config)
        self._committed[shard_id] = (
            self._committed.get(shard_id, 0.0)
            + qmin_demand(spec.config, self.mode)
        )

    def on_depart(self, outcome, round_index, shard_id=None):
        name = outcome.spec.name
        resident = self._resident.pop(name, None)
        if resident is None:
            return  # exactly-once-rejection owns that complaint
        home, config = resident
        if home != shard_id:
            self.violation(
                f"departed from {shard_id!r} but resident on {home!r}",
                round_index=round_index, shard_id=shard_id, stream_id=name,
            )
            home = shard_id
        self._committed[home] = (
            self._committed.get(home, 0.0) - qmin_demand(config, self.mode)
        )

    def on_migrate(self, move, round_index):
        if move.source == move.dest:
            self.violation(
                "move with identical source and destination",
                round_index=round_index, shard_id=move.source,
                stream_id=move.stream_id,
            )
            return
        if move.kind == "active":
            resident = self._resident.get(move.stream_id)
            if resident is None or resident[0] != move.source:
                home = resident[0] if resident else None
                self.violation(
                    f"active move from {move.source!r} but the stream "
                    f"is resident on {home!r}",
                    round_index=round_index, shard_id=move.source,
                    stream_id=move.stream_id,
                )
                return
            _, config = resident
            demand = qmin_demand(config, self.mode)
            self._committed[move.source] = (
                self._committed.get(move.source, 0.0) - demand
            )
            self._committed[move.dest] = (
                self._committed.get(move.dest, 0.0) + demand
            )
            self._resident[move.stream_id] = (move.dest, config)
        self._check_fit(move, round_index)

    def _check_fit(self, move, round_index) -> None:
        capacity = self._capacity.get(move.dest)
        if capacity is None:
            return  # no on_capacity seen (hand-wired run): nothing to claim
        committed = self._committed.get(move.dest, 0.0)
        if committed > capacity * (1.0 + self.rel_tol):
            self.violation(
                f"committed qmin demand {committed!r} exceeds "
                f"destination capacity {capacity!r} after {move.kind} move",
                round_index=round_index, shard_id=move.dest,
                stream_id=move.stream_id,
            )


class ScaleConservation(Invariant):
    """Total capacity changes only by explicit, declared provisioning.

    The autoscaler contract (PR-9): every :class:`ScaleAction
    <repro.horizon.autoscaler.ScaleAction>` the runner applies must

    * reference shards the ledger knows (by their last ``on_capacity``
      declaration);
    * conserve capacity *exactly* for ``split`` (the parts sum to the
      source) and ``merge`` (the merged shard gets the sources' sum);
    * pre-announce every shard it creates (``action.created``) and
      retires, and follow up with matching ``on_capacity`` declarations
      — created shards at their exact capacity, retired shards at zero
      — before the next round or scale action.

    Anything else — a shard resized without a declaration, a split that
    leaks cycles, a created shard that never shows up — is a silent
    capacity change, exactly what this law forbids.
    """

    name = "scale-conservation"
    description = "scale actions conserve declared capacity exactly"
    rel_tol = 1e-9
    abs_tol = 1e-6

    def __init__(self) -> None:
        super().__init__()
        self._capacity: dict = {}
        #: shard -> capacity it must declare (0.0 = retirement pending)
        self._pending: dict = {}

    def _drain_pending(self, round_index) -> None:
        for shard_id, expected in sorted(self._pending.items()):
            self.violation(
                f"scale action promised a capacity declaration of "
                f"{expected!r} that never arrived",
                round_index=round_index, shard_id=shard_id,
            )
        self._pending.clear()

    def on_round(self, round_index, allocations, capacity, shard_id=None):
        if self._pending:
            self._drain_pending(round_index)

    def on_scale(self, action, round_index):
        if self._pending:
            self._drain_pending(round_index)
        for shard_id in action.shards:
            if shard_id not in self._capacity:
                self.violation(
                    f"{action.kind} references unknown shard",
                    round_index=round_index, shard_id=shard_id,
                )
                return
        if action.kind == "split":
            source = self._capacity[action.shards[0]]
            if not math.isclose(
                sum(action.capacities), source,
                rel_tol=self.rel_tol, abs_tol=self.abs_tol,
            ):
                self.violation(
                    f"split parts sum to {sum(action.capacities)!r}, "
                    f"source capacity is {source!r}",
                    round_index=round_index, shard_id=action.shards[0],
                )
        merged = sum(self._capacity[s] for s in action.shards)
        if action.kind == "merge" and action.capacities:
            if not math.isclose(
                action.capacities[0], merged,
                rel_tol=self.rel_tol, abs_tol=self.abs_tol,
            ):
                self.violation(
                    f"merge declares {action.capacities[0]!r}, sources "
                    f"sum to {merged!r}",
                    round_index=round_index, shard_id=action.shards[0],
                )
        expected_created = {
            "add": list(action.capacities),
            "split": list(action.capacities),
            "merge": [merged],
            "remove": [],
        }[action.kind]
        if len(action.created) != len(expected_created):
            self.violation(
                f"{action.kind} creates {len(expected_created)} "
                f"shard(s) but announced {len(action.created)}",
                round_index=round_index,
            )
            return
        for shard_id, capacity in zip(action.created, expected_created):
            self._pending[shard_id] = capacity
        if action.kind in ("remove", "split", "merge"):
            for shard_id in action.shards:
                self._pending[shard_id] = 0.0

    def on_capacity(self, capacity, round_index, shard_id=None):
        if shard_id in self._pending:
            expected = self._pending.pop(shard_id)
            if not math.isclose(
                capacity, expected,
                rel_tol=self.rel_tol, abs_tol=self.abs_tol,
            ):
                self.violation(
                    f"declared capacity {capacity!r}, scale action "
                    f"promised {expected!r}",
                    round_index=round_index, shard_id=shard_id,
                )
            if expected == 0.0:
                self._capacity.pop(shard_id, None)
                return
        self._capacity[shard_id] = capacity

    def finalize(self) -> None:
        self._drain_pending(None)


class PacingDegrade(Invariant):
    """Quality renegotiation is paced: bounded steps, no oscillation.

    The degrade-then-recover contract: a single renegotiation never
    moves a stream's target by more than ``max_step`` (no cliff-edge
    drops, no catch-up bursts restoring everything at once), and a
    stream never reverses direction *twice in a row* within ``min_gap``
    rounds of the preceding step.  One quick reversal is a legitimate
    correction — an up-step that overshoots gets walked back the next
    congested round — but a second quick flip means the controller is
    chasing noise, not load (with the built-in step policy this only
    happens when both ``patience`` and ``recovery_patience`` sit below
    the gap, the flutter-prone configuration this law exists to catch).
    """

    name = "pacing-degrade"
    description = "renegotiation steps are bounded and never flutter"
    max_step = 0.35
    min_gap = 2

    def __init__(self) -> None:
        super().__init__()
        #: stream -> (last step round, direction, last flip was quick)
        self._last: dict[str, tuple[int, int, bool]] = {}

    def on_renegotiate(
        self, stream_id, old_target, new_target, round_index, shard_id=None
    ):
        step = new_target - old_target
        if abs(step) > self.max_step + 1e-9:
            self.violation(
                f"step {step:+.3f} exceeds the pacing bound "
                f"{self.max_step}",
                round_index=round_index, shard_id=shard_id,
                stream_id=stream_id,
            )
        direction = 1 if step > 0 else -1
        last = self._last.get(stream_id)
        quick_flip = (
            last is not None
            and last[1] != direction
            and round_index - last[0] < self.min_gap
        )
        if quick_flip and last[2]:
            self.violation(
                f"second direction flip in a row within {self.min_gap} "
                f"round(s) ({last[1]:+d} -> {direction:+d} after "
                f"{round_index - last[0]} round(s)) — the target is "
                "oscillating, not degrading gracefully",
                round_index=round_index, shard_id=shard_id,
                stream_id=stream_id,
            )
        self._last[stream_id] = (round_index, direction, quick_flip)


class PacingScaleCooldown(Invariant):
    """Scale actions are paced: spaced out, and never scale-up into a
    still-settling capacity dip.

    Two laws: consecutive scale actions sit at least
    ``min_action_gap`` rounds apart (an autoscaler reacting faster
    than sessions can renegotiate is thrashing), and no capacity is
    *added* (``add`` / ``split``) within ``dip_settle`` rounds of a
    capacity dip — after an outage the fleet must degrade gracefully
    and recover, not mask the dip with an immediate catch-up burst of
    provisioning the next window would tear back down.
    """

    name = "pacing-scale-cooldown"
    description = "scale actions are spaced; no scale-up into a fresh dip"
    min_action_gap = 8
    dip_settle = 8

    def __init__(self) -> None:
        super().__init__()
        self._capacity: dict = {}
        self._scaling: set = set()
        self._last_action: int | None = None
        self._last_dip: int | None = None

    def on_scale(self, action, round_index):
        if (
            self._last_action is not None
            and round_index - self._last_action < self.min_action_gap
        ):
            self.violation(
                f"scale action only {round_index - self._last_action} "
                f"round(s) after the previous one (min gap "
                f"{self.min_action_gap})",
                round_index=round_index,
            )
        if (
            action.kind in ("add", "split")
            and self._last_dip is not None
            and round_index - self._last_dip < self.dip_settle
        ):
            self.violation(
                f"{action.kind} within {round_index - self._last_dip} "
                f"round(s) of a capacity dip (settle window "
                f"{self.dip_settle})",
                round_index=round_index,
            )
        self._last_action = round_index
        # declarations triggered by this action are provisioning, not
        # dips — remember who is about to re-declare
        self._scaling.update(action.shards)
        self._scaling.update(action.created)

    def on_capacity(self, capacity, round_index, shard_id=None):
        previous = self._capacity.get(shard_id)
        if shard_id in self._scaling:
            self._scaling.discard(shard_id)
        elif previous is not None and 0.0 < capacity < previous:
            self._last_dip = round_index
        if capacity <= 0.0:
            self._capacity.pop(shard_id, None)
        else:
            self._capacity[shard_id] = capacity


class SloBudgetConservation(Invariant):
    """The SLO engine's books balance, and alerts never double-fire.

    Runs its own :class:`~repro.obs.slo.SloTracker` per declared
    objective (``slos`` is injected by the owning observer; without a
    declaration the law is inert) and checks two accounts every round:

    * **conservation** — the budget accrued incrementally (one
      ``1 - target`` credit per unit) equals consumed (the bad-unit
      count) plus remaining (maintained by a separate incremental
      ledger), and equals the closed form ``units * (1 - target)`` —
      drift or double-counting on any path breaks the equation;
    * **episode discipline** — burn-rate transitions strictly
      alternate: an alert fires exactly once per burn episode, and a
      resolution only follows a firing.
    """

    name = "slo-budget-conservation"
    description = "budget accrued == consumed + remaining; one alert per episode"
    rel_tol = 1e-9
    abs_tol = 1e-6

    def __init__(self) -> None:
        super().__init__()
        self._trackers = None
        self._last_state: dict[str, str | None] = {}
        self._seen_alerts = 0

    def is_active(self) -> bool:
        return self.slos is not None

    def _ensure(self):
        if self._trackers is None:
            # deferred: repro.obs.slo imports nothing from this module,
            # but building at first hook lets the owning observer
            # inject ``slos``/``classes`` after construction
            from repro.obs.slo import SloObserver

            if self.slos is None:
                self._trackers = {}
            else:
                mirror = SloObserver(self.slos, classes=self.classes)
                self._trackers = mirror.trackers
                self._mirror = mirror
        return self._trackers

    def _advance(self, round_index) -> None:
        if self._ensure():
            self._mirror._advance(round_index)
            self._drain(round_index)

    def _drain(self, round_index) -> None:
        # every tracker advance flows through the mirror observer, so
        # its alert stream is the single complete transition record —
        # the mirror's own hooks advance trackers internally, and
        # transitions consumed there would be invisible to a direct
        # ``advance_to`` call here
        alerts = self._mirror.alerts
        while self._seen_alerts < len(alerts):
            event = alerts[self._seen_alerts]
            self._seen_alerts += 1
            name, state = event.slo, event.state
            last = self._last_state.get(name)
            if state == "firing" and last == "firing":
                self.violation(
                    f"slo {name!r}: alert fired twice without a "
                    f"resolution between (burn episodes fire exactly "
                    f"once)", round_index=event.round,
                )
            if state == "resolved" and last != "firing":
                self.violation(
                    f"slo {name!r}: resolution without a preceding "
                    f"alert", round_index=event.round,
                )
            self._last_state[name] = state
        for name in self._trackers:
            self._conserved(name, round_index)

    def _conserved(self, name, round_index) -> None:
        tracker = self._trackers[name]
        accrued = tracker.budget_units
        consumed = float(tracker.bad_units)
        remaining = tracker.remaining_units
        closed_form = tracker.units * (1.0 - tracker.spec.target)
        tol = self.abs_tol + self.rel_tol * max(1.0, abs(accrued))
        if abs(accrued - (consumed + remaining)) > tol:
            self.violation(
                f"slo {name!r}: budget accrued {accrued!r} != consumed "
                f"{consumed!r} + remaining {remaining!r}",
                round_index=round_index,
            )
        if abs(accrued - closed_form) > tol:
            self.violation(
                f"slo {name!r}: budget accrued {accrued!r} drifted from "
                f"{tracker.units} units * (1 - {tracker.spec.target}) "
                f"= {closed_form!r}", round_index=round_index,
            )

    # mirror the SLO observer's unit recording exactly
    def on_round(self, round_index, allocations, capacity, shard_id=None):
        self._advance(round_index)

    def on_capacity(self, capacity, round_index, shard_id=None):
        self._advance(round_index)

    def on_admit(self, spec, round_index, shard_id=None):
        if self._ensure():
            self._mirror.on_admit(spec, round_index, shard_id)
            self._drain(round_index)

    def on_reject(self, spec, round_index, shard_id=None):
        if self._ensure():
            self._mirror.on_reject(spec, round_index, shard_id)
            self._drain(round_index)

    def on_depart(self, outcome, round_index, shard_id=None):
        if self._ensure():
            self._mirror.on_depart(outcome, round_index, shard_id)
            self._drain(round_index)

    def finalize(self) -> None:
        if self._ensure():
            self._mirror.close()
            self._drain(None)


#: Named invariants, the ledger's registry (a standard policy family).
INVARIANTS = PolicyRegistry("invariant")


def register_invariant(name, factory=None, *, overwrite=False, **meta):
    """Register an :class:`Invariant` factory under ``name``."""
    return INVARIANTS.register(name, factory, overwrite=overwrite, **meta)


register_invariant("grant-conservation", GrantConservation)
register_invariant("class-floors", ClassFloors)
register_invariant("exactly-once-rejection", ExactlyOnceRejection)
register_invariant("migration-headroom", MigrationHeadroom)
register_invariant("scale-conservation", ScaleConservation)
register_invariant("pacing-degrade", PacingDegrade)
register_invariant("pacing-scale-cooldown", PacingScaleCooldown)
register_invariant("slo-budget-conservation", SloBudgetConservation)


class InvariantObserver(RoundObserver):
    """Runs a set of invariants live over a serving run.

    Parameters
    ----------
    invariants:
        Which laws to check: registered names, :class:`Invariant`
        classes, or instances.  ``None`` runs every registered one.
    enforce:
        ``False`` (ledger mode) records every violation in
        ``self.violations``; ``True`` (harness mode) raises
        :class:`InvariantViolationError` at the first.
    classes:
        SLA catalog for floor checks; a spec's ``service_classes`` is
        forwarded here automatically (the factory is registered
        ``sla_aware``).
    slos:
        Declared SLOs for the budget-conservation law; a spec's
        ``slos`` is forwarded here automatically (the factory is
        registered ``slo_aware``).  ``None`` leaves that law inert.
    """

    def __init__(self, invariants=None, enforce: bool = False, classes=None,
                 slos=None):
        self.enforce = enforce
        self.violations: list[Violation] = []
        self.invariants: list[Invariant] = []
        self._closed = False
        names = INVARIANTS.names() if invariants is None else invariants
        for entry in names:
            if isinstance(entry, str):
                invariant = INVARIANTS.create(entry)
            elif isinstance(entry, Invariant):
                invariant = entry
            elif isinstance(entry, type) and issubclass(entry, Invariant):
                invariant = entry()
            else:
                raise ConfigurationError(
                    f"invariants must be registered names, Invariant "
                    f"classes, or instances; got {entry!r}"
                )
            invariant.classes = classes
            invariant.slos = slos
            invariant.bind(self._record)
            self.invariants.append(invariant)
        # most laws watch two or three hooks, so each hook reaches only
        # the laws that override it (fanning every hook out to every
        # law was the observer's main cost on the overhead bench).
        # Inactive laws (is_active false — e.g. the budget law without
        # declared SLOs) skip dispatch entirely but stay in the ledger.
        self._laws = Hooks(inv for inv in self.invariants if inv.is_active())

    def _record(self, violation: Violation) -> None:
        self.violations.append(violation)
        if self.enforce:
            raise InvariantViolationError(violation)

    # ------------------------------------------------------------------
    # dispatch each hook to the invariants that override it
    # ------------------------------------------------------------------

    def on_round(self, round_index, allocations, capacity, shard_id=None):
        self._laws.on_round(round_index, allocations, capacity, shard_id)

    def on_admit(self, spec, round_index, shard_id=None):
        self._laws.on_admit(spec, round_index, shard_id)

    def on_reject(self, spec, round_index, shard_id=None):
        self._laws.on_reject(spec, round_index, shard_id)

    def on_preempt(self, spec, round_index, shard_id=None):
        self._laws.on_preempt(spec, round_index, shard_id)

    def on_migrate(self, move, round_index):
        self._laws.on_migrate(move, round_index)

    def on_renegotiate(
        self, stream_id, old_target, new_target, round_index, shard_id=None
    ):
        self._laws.on_renegotiate(
            stream_id, old_target, new_target, round_index, shard_id
        )

    def on_depart(self, outcome, round_index, shard_id=None):
        self._laws.on_depart(outcome, round_index, shard_id)

    def on_capacity(self, capacity, round_index, shard_id=None):
        self._laws.on_capacity(capacity, round_index, shard_id)

    def on_scale(self, action, round_index):
        self._laws.on_scale(action, round_index)

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Run end-of-run accounting (:func:`repro.serve` calls this
        once the run completes).

        When enforcement already aborted the run, finalizers still
        record their findings but never raise: ``close`` runs inside
        ``serve``'s cleanup, and a second raise there would mask the
        violation that stopped the run.
        """
        if self._closed:
            return
        self._closed = True
        enforce, self.enforce = self.enforce, self.enforce and not self.violations
        try:
            for invariant in self.invariants:
                invariant.finalize()
        finally:
            self.enforce = enforce

    def ledger(self) -> dict:
        """Machine-readable ledger: every checked law and its record."""
        by_name = {inv.name: 0 for inv in self.invariants}
        for violation in self.violations:
            by_name[violation.invariant] = (
                by_name.get(violation.invariant, 0) + 1
            )
        return {
            name: {
                "description": next(
                    (
                        inv.description
                        for inv in self.invariants
                        if inv.name == name
                    ),
                    "",
                ),
                "violations": count,
                "holds": count == 0,
            }
            for name, count in sorted(by_name.items())
        }

    @property
    def ok(self) -> bool:
        return not self.violations
