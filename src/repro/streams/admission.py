"""Admission control: accept / queue / reject arriving streams.

Before a stream joins the fleet the admission controller asks the
paper's own schedulability machinery whether the stream could meet its
cycle deadline on the capacity that is still uncommitted.  The check is
Definition 2.2 applied at the *lowest* quality level: the qmin schedule
is the cheapest feasible service the controller can ever fall back to,
so if even qmin does not fit, no arbiter can save the stream and
admitting it would only push already-admitted streams into overload
(the congestion coupling of Alaya et al., "A New Approach to Manage QoS
in Distributed Multimedia Systems").

Decisions:

* ``ACCEPTED`` — qmin schedule feasible on the remaining capacity; the
  stream's qmin demand is committed until it departs.
* ``QUEUED``  — infeasible right now but feasible on an empty system;
  parked until departures free enough capacity.
* ``REJECTED`` — infeasible even with the whole capacity to itself (or
  the wait queue is full).
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.feasibility import FeasibilityReport
from repro.core.sequences import INFINITY, cumulative
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
    """Decision plus the feasibility evidence it was based on.

    ``preempted`` lists queued specs this offer evicted from the wait
    queue (priority admission only — the base controller never
    preempts).  Each evicted spec is finally rejected: the runner
    records it in the result and fires ``on_reject`` exactly once.
    """

    decision: AdmissionDecision
    demand: float
    remaining_before: float
    report: FeasibilityReport | None
    preempted: tuple = ()


#: Every controller shape's qmin schedule, keyed ``(macroblocks,
#: nominal_budget, decision_overhead, mode)``: the cumulative completion
#: times as a tuple and as a read-only float64 array (for the vectorized
#: slack computation in ``feasibility``).  One entry per shape and mode,
#: so it stays as small as a fleet's scale mix; only
#: :func:`repro.sim.runner.reset_caches` clears it, together with
#: :func:`qmin_completions`.
_SCHEDULES: dict[tuple, tuple[tuple[float, ...], np.ndarray]] = {}


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
    parameters never enter them.  So the walk — the expensive part of
    every feasibility check — runs once per shape and mode, straight
    from :func:`~repro.sim.encoder_loop.compiled_controller`, and every
    config of the shape gets the same tuple: a churn of hundreds of
    configs walks each shape's ~900-action schedule once, and admission
    never builds an :class:`EncoderSimulation`.  :func:`qmin_demand` and
    :meth:`AdmissionController.feasibility` only shift it by the
    available budget.  ``cumulative`` is the same left-fold as ``sum``,
    so the last element *is* the qmin demand, to the bit.  The
    per-config memo holds only a reference to the shape's tuple; since
    every offer's feasibility check reads it, its misses count the
    distinct configs admission has checked.
    """
    key = _shape_key(config, mode)
    if key not in _SCHEDULES:
        compiled = compiled_controller(*key[:3])
        system = compiled.system
        times = system.average_times if mode == "average" else system.worst_times
        completions = tuple(
            cumulative(
                [times.time(action, system.qmin) for action in compiled.tables.schedule]
            )
        )
        array = np.asarray(completions, dtype=np.float64)
        array.setflags(write=False)
        _SCHEDULES[key] = (completions, array)
    return _SCHEDULES[key][0]


def _schedule_of(
    config: SimulationConfig, mode: str
) -> tuple[tuple[float, ...], np.ndarray]:
    """The shape's ``(completions, array)`` by a four-field key, several
    times cheaper than hashing and comparing a whole config on every
    offer, release and placement probe.  A shape not seen yet is walked
    by :func:`qmin_completions`, so the walk and any table compile stay
    inside the entry point perfbench traces by name."""
    key = _shape_key(config, mode)
    if key not in _SCHEDULES:
        qmin_completions(config, mode)
    return _SCHEDULES[key]


def qmin_demand(config: SimulationConfig, mode: str = "average") -> float:
    """Cycles per period the stream needs at its cheapest quality.

    ``mode="average"`` uses the expected-time tables (statistical
    admission, the default); ``"worst"`` uses the worst-case tables
    (hard admission — overrun-proof but pessimistic).  The last of the
    shape's shared :func:`qmin_completions`, found by shape, so the
    fleet runner's ask on every offer and release stays cheap.
    """
    completions = _schedule_of(config, mode)[0]
    return completions[-1] if completions else 0.0


class AdmissionController:
    """Feasibility-gated admission over a shared capacity budget.

    Parameters
    ----------
    capacity:
        Total shared cycles per scheduling round.
    mode:
        ``"average"`` or ``"worst"`` — which timing tables the
        feasibility check uses (see :func:`qmin_demand`).
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
        # capacity only frees on release(); until then re-checking the
        # queue head every fleet round would be wasted schedule walks
        self._freed_since_retry = False

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
        self._freed_since_retry = False

    # ------------------------------------------------------------------
    # feasibility
    # ------------------------------------------------------------------

    @property
    def budget(self) -> float:
        """Cycles per round admission is allowed to commit."""
        return self.capacity * self.utilization_cap

    @property
    def remaining(self) -> float:
        return self.budget - self.committed

    def feasibility(
        self, config: SimulationConfig, available: float | None = None
    ) -> FeasibilityReport:
        """Definition 2.2 for the stream's qmin schedule on ``available``.

        The schedule's only deadline is the uniform cycle deadline, so
        every action's deadline is the available per-round budget: the
        stream fits iff the worst slack is non-negative.
        """
        if available is None:
            available = self.remaining
        # fast path over check_feasibility: the completion times are
        # memoized per (shape, mode) and the uniform deadline enters
        # as a constant, so slack_i = available - completion_i exactly
        # (IEEE subtraction is monotone, so the min slack is
        # available - max(completion) and the first violation is the
        # first completion above the budget — bit-identical to the
        # generic walk).
        completions = qmin_completions(config, self.mode)
        if not completions:
            return FeasibilityReport(
                feasible=True,
                worst_slack=INFINITY,
                completion_times=(),
                slacks=(),
                first_violation=None,
            )
        slacks = tuple((available - _schedule_of(config, self.mode)[1]).tolist())
        # completion times are a nonnegative-term running sum, so the
        # last element is the maximum and the sequence is sorted:
        # min slack = available - last, first violation by bisection
        worst = available - completions[-1]
        position = bisect_right(completions, available)
        first_violation = position if position < len(completions) else None
        return FeasibilityReport(
            feasible=worst >= 0,
            worst_slack=worst,
            completion_times=completions,
            slacks=slacks,
            first_violation=first_violation,
        )

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def offer(self, stream) -> AdmissionVerdict:
        """Decide on an arriving stream (anything with a ``.config``)."""
        config = stream.config if hasattr(stream, "config") else stream
        demand = qmin_demand(config, self.mode)
        remaining = self.remaining
        report = self.feasibility(config, remaining)
        if report.feasible:
            self.committed += demand
            self.accepted_count += 1
            return AdmissionVerdict(
                AdmissionDecision.ACCEPTED, demand, remaining, report
            )
        alone = self.feasibility(config, self.budget)
        if alone.feasible:
            queued, preempted = self._try_queue(stream)
            if queued:
                self.queued_count += 1
                return AdmissionVerdict(
                    AdmissionDecision.QUEUED,
                    demand,
                    remaining,
                    report,
                    preempted=preempted,
                )
        self.rejected_count += 1
        return AdmissionVerdict(
            AdmissionDecision.REJECTED, demand, remaining, report
        )

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
        self.committed = max(0.0, self.committed - qmin_demand(config, self.mode))
        self._freed_since_retry = True

    def mark_freed(self) -> None:
        """Flag that queue feasibility may have changed without a
        release (a queued spec was removed externally, e.g. migrated),
        so the next ``admit_queued`` re-checks the head."""
        self._freed_since_retry = True

    def admit_queued(self, force: bool = False) -> list:
        """Pop every queued stream that now fits (FIFO, head-of-line).

        Head-of-line blocking is deliberate: skipping over a large
        queued stream in favour of later small ones would starve it.
        Cheap no-op unless a departure freed capacity since the last
        retry — ``force`` re-checks anyway (capacity events and
        migration change feasibility without a release).
        """
        if not (self._freed_since_retry or force):
            return []
        self._freed_since_retry = False
        admitted = []
        while self.queue:
            index = self._queue_head_index()
            head = self.queue[index]
            config = head.config if hasattr(head, "config") else head
            report = self.feasibility(config, self.remaining)
            if not report.feasible:
                break
            del self.queue[index]
            self.committed += qmin_demand(config, self.mode)
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
