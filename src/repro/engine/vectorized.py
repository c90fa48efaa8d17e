"""The vectorized engine: step a whole pool of sessions as numpy batches.

Scalar stepping advances one session at a time, running the
per-macroblock decision loop in Python once per frame.  This engine
advances *all* sessions of a pool together in **waves**: each wave
collects at most one eligible frame per session (only the buffer head
can start — completing it moves the free time ``_free_at`` of the
session's :class:`~repro.sim.timeline.FrameTimeline`, which gates the
frame behind it), groups the collected jobs by kernel shape and
granularity, and hands each group to
:func:`repro.engine.kernel.batch_decide` — a wide homogeneous pool of B
sessions does its controller table lookups, deadline comparisons and
quality accounting as ``(B, ...)`` array ops.

Ordering contract (what makes this bit-identical to scalar): every
per-session effect — job completion bookkeeping, arrival processing,
the signal pass, renegotiation — is applied in the caller's session
order, and each session's jobs complete in its own FIFO order.  Since
sessions share no state, the *math* is order-free; re-applying the
*effects* in scalar order makes results, records and event logs
indistinguishable from the scalar engine.

Heterogeneous pools still work: each (shape, granularity) group batches
separately, and ``batch_decide`` runs groups narrower than
``BATCH_MIN_LANES`` lane by lane (same bits, no numpy dispatch).
"""

from __future__ import annotations

# ``scalar_decide`` is unused here but stays importable: external
# profilers (``perfbench/spans.py``) patch both kernel names on this module
from repro.engine.kernel import batch_decide, scalar_decide  # noqa: F401


class _Lane:
    """One session's in-flight round state during a batched step."""

    __slots__ = ("session", "allocation", "speed", "limit")

    def __init__(self, session, allocation: float, speed: float, limit: float):
        self.session = session
        self.allocation = allocation
        self.speed = speed
        self.limit = limit


def _drain(lanes: list[_Lane]) -> None:
    """Encode every eligible frame of every lane, in waves."""
    active = lanes
    while active:
        jobs: list[tuple[_Lane, object]] = []
        still: list[_Lane] = []
        for lane in active:
            job = lane.session.next_job(lane.limit, lane.speed)
            if job is not None:
                jobs.append((lane, job))
                # completing this job may unlock the next buffered frame
                still.append(lane)
        if not jobs:
            break
        groups: dict[tuple, list[tuple[_Lane, object]]] = {}
        for lane, job in jobs:
            session = lane.session
            key = (session._kernel.key, session.granularity)
            groups.setdefault(key, []).append((lane, job))
        for members in groups.values():
            session = members[0][0].session
            timings = batch_decide(
                session._kernel,
                session.granularity,
                [lane.session._bank.grab_plus[job.bank_frame] for lane, job in members],
                [lane.session._bank.me_plus[job.bank_frame] for lane, job in members],
                [job.budget for _, job in members],
            )
            for (lane, job), timing in zip(members, timings):
                lane.session.complete_job(job, timing, lane.speed)
        active = still


def step_sessions(sessions, allocations) -> dict:
    """Step every session one round; return ``{stream_id: renegotiated}``.

    Drop-in batched replacement for the round loop's per-session
    ``session.step(allocations[id])`` calls: same validation, same
    arrival/drain semantics, and each value is what that call would
    have returned (the ``(old, new)`` target change, or ``None``).  The
    caller keeps firing observer hooks from its own session loop, so
    event order is untouched.
    """
    lanes: list[_Lane] = []
    for session in sessions:
        allocation = allocations[session.stream_id]
        speed, limit = session.begin_round(allocation)
        lanes.append(_Lane(session, allocation, speed, limit))

    # phase 1: frames whose start falls inside the arrival window
    _drain(lanes)

    # phase 2: arrivals (buffer skips recorded here), then the
    # backlog-drain window for camera-stopped sessions
    drain_lanes: list[_Lane] = []
    for lane in lanes:
        drain_limit = lane.session.process_arrival()
        if drain_limit is not None:
            lane.limit = drain_limit
            drain_lanes.append(lane)
    _drain(drain_lanes)

    # phase 3: close every round in session order (signal pass, SLA
    # renegotiation)
    return {
        lane.session.stream_id: lane.session.finish_round(lane.allocation)
        for lane in lanes
    }
