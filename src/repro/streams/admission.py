"""Admission control: accept / queue / reject arriving streams.

Before a stream joins the fleet the admission controller asks whether
its *qmin demand* — the cycles per period its schedule needs at the
lowest quality level — fits the capacity that is still uncommitted.
That comparison is the paper's own schedulability test, Definition 2.2
applied to the qmin schedule (see :meth:`AdmissionController.fits`):
the qmin schedule is the cheapest feasible service the controller can
ever fall back to, so if even qmin does not fit, no arbiter can save
the stream and admitting it would only push already-admitted streams
into overload (the congestion coupling of Alaya et al., "A New
Approach to Manage QoS in Distributed Multimedia Systems").

Decisions:

* ``ACCEPTED`` — the qmin demand fits the remaining capacity; it is
  committed until the stream departs.
* ``QUEUED``  — does not fit right now but fits the whole budget;
  parked until departures free enough capacity.  A retry is one
  comparison for the queue head, so every retry re-checks it.
* ``REJECTED`` — does not fit even with the whole budget to itself (or
  the wait queue is full).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from repro.core.sequences import cumulative
from repro.errors import ConfigurationError
from repro.sim.encoder_loop import SimulationConfig, compiled_controller
# admission builds no simulation; the name stays importable here
# because perfbench's tracer wraps it in this module
from repro.sim.runner import simulation_for  # noqa: F401


class AdmissionDecision(enum.Enum):
    ACCEPTED = "accepted"
    QUEUED = "queued"
    REJECTED = "rejected"


@dataclass(frozen=True)
class AdmissionVerdict:
    """One offer's decision.

    ``preempted`` lists queued specs this offer evicted from the wait
    queue (priority admission only — the base controller never
    preempts).  Each evicted spec is finally rejected: the runner
    records it in the result and fires ``on_reject`` exactly once.
    """

    decision: AdmissionDecision
    preempted: tuple = ()


#: Every controller shape's qmin schedule as cumulative completion
#: times, keyed ``(macroblocks, nominal_budget, decision_overhead,
#: mode)``.  One entry per shape and mode, so it stays as small as a
#: fleet's scale mix; only :func:`repro.sim.runner.reset_caches` clears
#: it, together with :func:`qmin_completions`.
_SCHEDULES: dict[tuple, tuple[float, ...]] = {}


def _shape_key(config: SimulationConfig, mode: str) -> tuple:
    return (config.macroblocks, config.nominal_budget, config.decision_overhead, mode)


@lru_cache(maxsize=1024)
def qmin_completions(
    config: SimulationConfig, mode: str = "average"
) -> tuple[float, ...]:
    """Cumulative qmin completion times over the stream's schedule.

    The schedule and its timing tables belong to the compiled
    controller, a pure function of ``(macroblocks, nominal_budget,
    decision_overhead)``; the content seed, clip length and signal-side
    parameters never enter them.  So the walk runs once per shape and
    mode, straight from
    :func:`~repro.sim.encoder_loop.compiled_controller`, and every
    config of the shape gets the same tuple: a churn of hundreds of
    configs walks each shape's ~900-action schedule once, and admission
    never builds an :class:`EncoderSimulation`.  ``cumulative`` is the
    same left-fold as ``sum``, so the last element *is* the qmin
    demand, to the bit.  The per-config memo holds only a reference to
    the shape's tuple, and :func:`qmin_demand` calls it only for a
    shape it has not seen, so its misses count the shapes admission
    has walked (3 on the benchmark's ``cluster-churn``) plus any
    configs a caller asks about directly.
    """
    key = _shape_key(config, mode)
    if key not in _SCHEDULES:
        compiled = compiled_controller(*key[:3])
        system = compiled.system
        times = system.average_times if mode == "average" else system.worst_times
        _SCHEDULES[key] = tuple(
            cumulative(
                [times.time(action, system.qmin) for action in compiled.tables.schedule]
            )
        )
    return _SCHEDULES[key]


def qmin_demand(config: SimulationConfig, mode: str = "average") -> float:
    """Cycles per period the stream needs at its cheapest quality.

    ``mode="average"`` uses the expected-time tables (statistical
    admission, the default); ``"worst"`` uses the worst-case tables
    (hard admission — overrun-proof but pessimistic).  The last of the
    shape's shared :func:`qmin_completions`, found by a four-field
    shape key — several times cheaper than hashing a whole config on
    every offer, release and placement probe.  A shape not seen yet is
    walked by :func:`qmin_completions`, so the walk and any table
    compile stay inside the entry point perfbench traces by name.
    """
    completions = _SCHEDULES.get(_shape_key(config, mode))
    if completions is None:
        completions = qmin_completions(config, mode)
    return completions[-1] if completions else 0.0


class AdmissionController:
    """Demand-gated admission over a shared capacity budget.

    Parameters
    ----------
    capacity:
        Total shared cycles per scheduling round.
    mode:
        ``"average"`` or ``"worst"`` — which timing tables the qmin
        demand uses (see :func:`qmin_demand`).
    utilization_cap:
        Fraction of capacity admission may commit (headroom for the
        arbiter to lift quality above qmin).
    queue_limit:
        Maximum parked streams (None = unbounded).
    """

    def __init__(
        self,
        capacity: float,
        mode: str = "average",
        utilization_cap: float = 1.0,
        queue_limit: int | None = None,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        if mode not in ("average", "worst"):
            raise ConfigurationError(f"unknown admission mode {mode!r}")
        if not 0.0 < utilization_cap <= 1.0:
            raise ConfigurationError("utilization_cap must be in (0, 1]")
        if queue_limit is not None and queue_limit < 0:
            raise ConfigurationError("queue_limit must be >= 0")
        self.capacity = capacity
        self.mode = mode
        self.utilization_cap = utilization_cap
        self.queue_limit = queue_limit
        self.committed = 0.0
        self.queue: deque = deque()
        self.accepted_count = 0
        self.rejected_count = 0
        self.queued_count = 0

    def reset(self) -> None:
        """Restore the just-constructed state (nothing committed,
        queued, or counted) so one controller can gate several runs
        bit-identically.  ``FleetRunner.reset()`` calls it per run (a
        fleet's caller owns its gate; clusters build fresh ones)."""
        self.committed = 0.0
        self.queue.clear()
        self.accepted_count = 0
        self.rejected_count = 0
        self.queued_count = 0

    # ------------------------------------------------------------------
    # the admission rule
    # ------------------------------------------------------------------

    @property
    def budget(self) -> float:
        """Cycles per round admission is allowed to commit."""
        return self.capacity * self.utilization_cap

    @property
    def remaining(self) -> float:
        return self.budget - self.committed

    def demand(self, config: SimulationConfig) -> float:
        """The stream's qmin demand in this gate's mode: what admitting
        it commits and what its departure releases."""
        return qmin_demand(config, self.mode)

    def fits(self, config: SimulationConfig, available: float | None = None) -> bool:
        """Definition 2.2 for the stream's qmin schedule on ``available``
        cycles per round (default: the uncommitted budget).

        The schedule's only deadline is the uniform cycle deadline, so
        every action's deadline is ``available`` and action ``i``'s
        slack is ``available - c_i`` for its cumulative completion time
        ``c_i`` (:func:`qmin_completions`).  The times are non-negative,
        so the running sum never decreases: the last completion — the
        qmin demand — is the largest, and the worst slack is
        ``available - demand``.  IEEE subtraction of two finite doubles
        is zero only when they are equal and never flips the sign of
        the exact difference, so that slack is non-negative exactly
        when ``demand <= available``: the schedule walk is one
        comparison.  ``tests/streams/test_admission.py`` holds it to
        :func:`~repro.core.feasibility.check_feasibility`.
        """
        if available is None:
            available = self.remaining
        return self.demand(config) <= available

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def offer(self, stream) -> AdmissionVerdict:
        """Decide on an arriving stream (anything with a ``.config``)."""
        config = stream.config if hasattr(stream, "config") else stream
        if self.fits(config):
            self.committed += self.demand(config)
            self.accepted_count += 1
            return AdmissionVerdict(AdmissionDecision.ACCEPTED)
        if self.fits(config, self.budget):
            queued, preempted = self._try_queue(stream)
            if queued:
                self.queued_count += 1
                return AdmissionVerdict(AdmissionDecision.QUEUED, preempted)
        self.rejected_count += 1
        return AdmissionVerdict(AdmissionDecision.REJECTED)

    def _try_queue(self, stream) -> tuple[bool, tuple]:
        """Park a feasible-alone stream in the wait queue if possible.

        Returns ``(queued, preempted)``.  The base policy is plain
        bounded FIFO — a full queue refuses and never evicts; priority
        admission (:mod:`repro.sla.admission`) overrides this to evict
        lower-priority queued specs for arrivals with preemption
        rights.
        """
        if self.queue_limit is not None and len(self.queue) >= self.queue_limit:
            return False, ()
        self.queue.append(stream)
        return True, ()

    def release(self, config: SimulationConfig) -> None:
        """Return a departing stream's committed demand to the pool."""
        self.committed = max(0.0, self.committed - self.demand(config))

    def admit_queued(self) -> list:
        """Pop every queued stream that now fits (FIFO, head-of-line).

        Head-of-line blocking is deliberate: skipping over a large
        queued stream in favour of later small ones would starve it.
        Checking the head is one comparison, so every call re-checks
        it, whatever changed since the last one (a release, a capacity
        event, a queue move).
        """
        admitted = []
        while self.queue:
            index = self._queue_head_index()
            head = self.queue[index]
            config = head.config if hasattr(head, "config") else head
            if not self.fits(config):
                break
            del self.queue[index]
            self.committed += self.demand(config)
            self.accepted_count += 1
            admitted.append(head)
        return admitted

    def _queue_head_index(self) -> int:
        """Which queued stream is next in line (head-of-line FIFO here).

        Priority admission overrides this to drain the highest
        admission priority first (FIFO within a priority); the chosen
        stream still head-of-line blocks everyone behind it, so a
        class can never be starved by later same-class arrivals.
        """
        return 0

    @property
    def acceptance_ratio(self) -> float:
        """Accepted over finally-decided offers (queued are undecided)."""
        decided = self.accepted_count + self.rejected_count
        return self.accepted_count / decided if decided else 1.0
