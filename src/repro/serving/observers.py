"""Lifecycle observers: hooks into the serving loop, zero side effects.

A :class:`RoundObserver` receives the serving loop's lifecycle events —
one ``on_round`` per scheduling round (per shard in a cluster), plus
admission, rejection, migration, and departure events.  Both
:class:`~repro.streams.fleet.FleetRunner` and
:class:`~repro.cluster.runner.ClusterRunner` accept a sequence of
observers; the one round loop fires every hook through a :class:`Hooks`
built over them, and never reads anything back, so observers cannot
change a run's results (asserted by
``tests/serving/test_serving_observers.py``).

This is the attachment point for windowed long-horizon metrics,
autoscaling controllers, and live dashboards: subclass, override the
hooks you care about (all default to no-ops), and pass the instance to
the runner or to :func:`repro.serving.serve`.

Hook conventions
----------------

* The loop fires hooks through :class:`Hooks`, which calls each hook
  only on the observers whose class overrides it, in attach order; a
  hook nobody overrides costs one call to a no-op.
* ``shard_id`` is ``None`` for single-pool (fleet) runs and the shard's
  id for cluster runs; ``on_round`` fires once per round per pool, even
  when the pool is idle (``allocations == {}``).
* ``on_admit`` fires when a stream starts (immediately on arrival or
  later from the admission queue); ``on_reject`` when it is finally
  refused; ``on_depart`` when it finishes, with its full
  :class:`~repro.streams.fleet.StreamOutcome`.
* ``on_migrate`` fires once per executed
  :class:`~repro.cluster.migration.MigrationMove` (cluster only).
* ``on_preempt`` fires when priority admission evicts a queued spec,
  immediately before that spec's final ``on_reject`` (the preempted
  stream is still counted exactly once as rejected).
* ``on_capacity`` declares a pool's nominal capacity: once per pool at
  run start (round 0) and again whenever a capacity event resizes a
  shard mid-run.
* ``on_phase`` reports wall-clock phase timings: per round,
  ``"admission"`` (arrivals routed and offered to a pool's admission
  gate), then ``"migration"`` and ``"balancing"`` when the run has
  those policies; per pool, ``"arbitration"`` and ``"step"``.  The
  round loop only reads the clock when an attached observer actually
  *overrides* ``on_phase`` (:attr:`Hooks.timed`), so bare runs pay
  nothing for the hook's existence.
"""

from __future__ import annotations

from time import perf_counter


class RoundObserver:
    """Base lifecycle observer; every hook is a no-op.

    Subclass and override what you need — the runners call a hook only
    on the observers that override it (see :class:`Hooks`), so
    overriding none of them observes nothing and costs nothing.
    """

    def on_round(self, round_index, allocations, capacity, shard_id=None):
        """One scheduling round arbitrated on one pool.

        ``allocations`` maps stream id to granted cycles this round
        (empty when the pool had no active sessions); ``capacity`` is
        the pool the arbiter split — the *effective* budget when a
        headroom balancer lent cycles.
        """

    def on_admit(self, spec, round_index, shard_id=None):
        """``spec`` was admitted and its session started this round."""

    def on_reject(self, spec, round_index, shard_id=None):
        """``spec`` was finally rejected (at arrival or queue flush)."""

    def on_preempt(self, spec, round_index, shard_id=None):
        """A queued ``spec`` was evicted by a higher-priority arrival.

        Always followed by the same spec's ``on_reject`` in the same
        round — preemption explains *why* that rejection happened.
        """

    def on_migrate(self, move, round_index):
        """One queued or active migration move was executed."""

    def on_renegotiate(
        self, stream_id, old_target, new_target, round_index, shard_id=None
    ):
        """A session's SLA quality target stepped (down under sustained
        starvation, back up when headroom returned); targets are
        normalized [0, 1] (see :mod:`repro.sla.renegotiation`)."""

    def on_depart(self, outcome, round_index, shard_id=None):
        """A stream finished; ``outcome`` carries its full run result."""

    def on_capacity(self, capacity, round_index, shard_id=None):
        """A pool's nominal capacity was declared (run start) or
        changed (mid-run capacity event)."""

    def on_scale(self, action, round_index):
        """An autoscaler's :class:`~repro.horizon.autoscaler.ScaleAction`
        is about to be applied (cluster only).

        Fires *before* the cluster mutates, with ``action.created``
        filled in with the ids of the shards the action will create; the
        ``on_capacity`` declarations for created (positive capacity) and
        retired (zero capacity) shards, and the ``on_migrate`` events
        for relocated sessions, follow in the same round.
        """

    def on_phase(self, phase, seconds, round_index, shard_id=None):
        """One timed phase of one round took ``seconds`` of wall clock.

        Only fired when at least one attached observer overrides this
        hook — the timings are real (non-deterministic) wall-clock
        measurements, never part of a run's results.
        """


#: Every lifecycle hook of :class:`RoundObserver`; a new hook is added
#: here and to the base class, and :class:`Hooks` dispatches it.
HOOKS = (
    "on_round", "on_admit", "on_reject", "on_preempt", "on_migrate",
    "on_renegotiate", "on_depart", "on_capacity", "on_scale", "on_phase",
)


def _ignore(*args, **kwargs) -> None:
    """The dispatch of a hook no observer overrides."""


def _fan_out(methods):
    def dispatch(*args, **kwargs):
        for method in methods:
            method(*args, **kwargs)

    return dispatch


class Hooks:
    """One run's hook dispatch: every hook reaches only its listeners.

    ``Hooks(observers)`` has one attribute per name in :data:`HOOKS`,
    resolved once: it calls, in attach order, the observers whose class
    overrides that hook — a no-op when none does, the observer's bound
    method when one does, a loop when several do.  The round loop fires
    every hook through one instance (``hooks.on_round(...)``), built by
    :meth:`ClusterRunner.run <repro.cluster.runner.ClusterRunner.run>`
    and shared by all of its shards.

    ``timed`` is true when some observer overrides ``on_phase``; only
    then do :meth:`start` and :meth:`lap` read the clock.
    """

    def __init__(self, observers=()) -> None:
        observers = tuple(observers)
        for hook in HOOKS:
            base = getattr(RoundObserver, hook)
            listeners = [
                getattr(observer, hook)
                for observer in observers
                if getattr(type(observer), hook, base) is not base
            ]
            if not listeners:
                dispatch = _ignore
            elif len(listeners) == 1:
                dispatch = listeners[0]
            else:
                dispatch = _fan_out(listeners)
            setattr(self, hook, dispatch)
        self.timed = self.on_phase is not _ignore

    def start(self) -> float:
        """A phase's start time (``0.0`` when nothing is timed)."""
        return perf_counter() if self.timed else 0.0

    def lap(self, phase, t0, round_index, shard_id=None) -> float:
        """Fire ``on_phase`` for ``phase``, begun at ``t0``; returns the
        clock reading it ended at (the next phase's start)."""
        if not self.timed:
            return 0.0
        now = perf_counter()
        self.on_phase(phase, now - t0, round_index, shard_id=shard_id)
        return now


def phase_timing_enabled(observers) -> bool:
    """Does any observer actually override ``on_phase``?

    The round loop reads ``perf_counter`` only then, so attaching
    counting/event observers (which ignore phases) keeps the loop free
    of clock reads.
    """
    return Hooks(observers).timed


class CountingObserver(RoundObserver):
    """Tallies every lifecycle event — the smoke-test observer.

    ``rounds`` counts ``on_round`` invocations (rounds x pools),
    the rest count streams/moves.  Useful as a cheap cross-check that
    runner bookkeeping and observer plumbing agree, and as the simplest
    possible example of the API.
    """

    def __init__(self) -> None:
        self.rounds = 0
        self.admitted = 0
        self.rejected = 0
        self.preempted = 0
        self.migrated = 0
        self.renegotiated = 0
        self.departed = 0
        self.capacity_events = 0
        self.scaled = 0

    def on_round(self, round_index, allocations, capacity, shard_id=None):
        self.rounds += 1

    def on_admit(self, spec, round_index, shard_id=None):
        self.admitted += 1

    def on_reject(self, spec, round_index, shard_id=None):
        self.rejected += 1

    def on_preempt(self, spec, round_index, shard_id=None):
        self.preempted += 1

    def on_migrate(self, move, round_index):
        self.migrated += 1

    def on_renegotiate(
        self, stream_id, old_target, new_target, round_index, shard_id=None
    ):
        self.renegotiated += 1

    def on_depart(self, outcome, round_index, shard_id=None):
        self.departed += 1

    def on_capacity(self, capacity, round_index, shard_id=None):
        self.capacity_events += 1

    def on_scale(self, action, round_index):
        self.scaled += 1

    def counts(self) -> dict:
        return {
            "rounds": self.rounds,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "preempted": self.preempted,
            "migrated": self.migrated,
            "renegotiated": self.renegotiated,
            "departed": self.departed,
            "capacity_events": self.capacity_events,
            "scaled": self.scaled,
        }
