"""Controller decision kernels: one scalar, one batched, bit-identical.

A :class:`DecisionKernel` is the pure-math half of the fine-grain
controller for one ``(shape, constraint mode)``: the compiled threshold
table re-indexed *per macroblock* (the table row of each macroblock's
``Motion_Estimate`` action, looked up once instead of per decision),
shared by every session of that shape via an ``lru_cache`` — finishing
the math-vs-state split started by
:func:`repro.sim.encoder_loop.compiled_controller`.  The serving
sessions and the paper simulation
(:class:`~repro.sim.encoder_loop.EncoderSimulation`) both decide
through these kernels.

Two executors consume a kernel:

* :func:`scalar_decide` — one frame, pure-Python loop; the reference.
* :func:`batch_decide` — B frames as lanes: one numpy pass over the
  macroblocks from :data:`BATCH_MIN_LANES` lanes up, else
  :func:`scalar_decide` per lane.

Bit-identity contract: both perform the exact same IEEE-754 double
operations in the exact same order per lane —

    ``elapsed += grab[k]``;
    decide (compare against ``row[c] + shift``, highest feasible level,
    else level 0 + degraded);
    ``elapsed += me[k][column]``

where ``grab`` and ``me`` are **pre-fused** times
(:func:`repro.engine.bank.fuse` folds ``2.0 * overhead`` into ``grab``
and ``7.0 * overhead + post`` into every ``me`` column, for a whole
clip in :class:`~repro.engine.bank.FrameTimeBank` or for one frame in
the paper simulation) — the paper's per-macroblock loop, which charges
the overhead at all nine action boundaries, reduced to two sequential
adds per macroblock with zero per-call precomputation.
Float64 addition and comparison are deterministic functions of their
operands, so identical operand sequences give identical bits.

The kernels also fold the frame's quality statistics (mean / min /
max / churn) into the :class:`FrameTiming` they return: quality levels
are small integers, every partial sum is exactly representable, so the
scalar integer accumulation and the batched ``np.mean`` reductions
produce the same float64 bit for bit.
``tests/engine/test_engine_kernel.py`` asserts all of it exhaustively.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.sim.encoder_loop import FrameTiming, compiled_controller
from repro.video.pipeline import ENCODER_QUALITY_LEVELS


@dataclass(frozen=True)
class DecisionKernel:
    """Per-macroblock decision thresholds for one shape and mode.

    ``rows[k][c]`` is the latest elapsed time (at nominal budget) at
    which level column ``c`` is still feasible when deciding at
    macroblock ``k``; a frame's actual budget enters as a constant
    shift.  ``rows`` (read-only ndarray) feeds the batched executor,
    ``rows_list`` (nested tuples) the scalar one — same values.
    """

    macroblocks: int
    nominal_budget: float
    overhead: float
    constraint_mode: str
    levels: tuple[int, ...]
    rows: np.ndarray
    rows_list: tuple[tuple[float, ...], ...]
    controller_cycles: float
    # thresholds nonincreasing along columns => the feasible set is a
    # prefix and the batch executor can count instead of scanning
    prefix_feasible: bool

    @property
    def key(self) -> tuple:
        """Equal keys mean equal thresholds among :func:`decision_kernel`'s
        kernels (batch groups, table cache); see :func:`kernel_from_rows`."""
        return (
            self.macroblocks,
            self.nominal_budget,
            self.overhead,
            self.constraint_mode,
        )


@lru_cache(maxsize=256)
def decision_kernel(
    macroblocks: int,
    nominal_budget: float,
    decision_overhead: float,
    constraint_mode: str,
) -> DecisionKernel:
    """Build (or fetch) the kernel for one shape and constraint mode."""
    compiled = compiled_controller(macroblocks, nominal_budget, decision_overhead)
    return kernel_from_rows(
        macroblocks, nominal_budget, decision_overhead, constraint_mode,
        compiled.rows[constraint_mode], compiled.me_positions,
    )


def kernel_from_rows(
    macroblocks: int,
    nominal_budget: float,
    decision_overhead: float,
    constraint_mode: str,
    mode_rows: Sequence[Sequence[float]],
    positions: Sequence[int],
) -> DecisionKernel:
    """An uncached kernel over one mode's table (a row per action
    position; ``positions`` holds each macroblock's ``Motion_Estimate``).

    The learning controller decides through kernels built here from its
    relearned tables.  They share :attr:`DecisionKernel.key` with the
    cached kernel of their shape, so only :func:`scalar_decide` may run
    them: :func:`batch_decide`'s threshold cache treats equal keys as
    equal thresholds.
    """
    per_k = tuple(tuple(mode_rows[positions[k]]) for k in range(macroblocks))
    rows = np.asarray(per_k, dtype=np.float64)
    rows.setflags(write=False)
    prefix_feasible = bool(np.all(np.diff(rows, axis=1) <= 0))
    return DecisionKernel(
        macroblocks=macroblocks,
        nominal_budget=nominal_budget,
        overhead=decision_overhead,
        constraint_mode=constraint_mode,
        levels=tuple(ENCODER_QUALITY_LEVELS),
        rows=rows,
        rows_list=per_k,
        controller_cycles=9.0 * decision_overhead * macroblocks,
        prefix_feasible=prefix_feasible,
    )


def kernel_for(simulation, constraint_mode: str) -> DecisionKernel:
    """The kernel matching one simulation's shape (cache-shared)."""
    cfg = simulation.config
    return decision_kernel(
        cfg.macroblocks, cfg.nominal_budget, cfg.decision_overhead, constraint_mode
    )


def scalar_decide(
    kernel: DecisionKernel,
    granularity: int,
    grab: list,
    me: list,
    budget: float,
) -> FrameTiming:
    """Encode one frame's timing under the controller (reference path).

    ``grab`` and ``me`` are the pre-fused bank rows (overhead constants
    already folded in — see the module docstring).
    """
    shift = budget - kernel.nominal_budget
    rows = kernel.rows_list
    levels = kernel.levels
    level_count = len(levels)
    count = kernel.macroblocks
    elapsed = 0.0
    qualities: list[int] = []
    append = qualities.append
    degraded = 0
    decisions = 0
    column = 0
    quality = levels[0]
    total = 0
    churn_total = 0
    low = high = levels[0]
    for k in range(count):
        elapsed += grab[k]
        if k % granularity == 0:
            row = rows[k]
            chosen = -1
            for candidate in range(level_count - 1, -1, -1):
                if elapsed <= row[candidate] + shift:
                    chosen = candidate
                    break
            if chosen < 0:
                chosen = 0  # qmin column
                degraded += 1
            new_quality = levels[chosen]
            # quality only changes at decisions, so the stats update
            # here: |q_k - q_{k-1}| is zero inside a granularity window
            if decisions:
                churn_total += abs(new_quality - quality)
                if new_quality < low:
                    low = new_quality
                elif new_quality > high:
                    high = new_quality
            else:
                low = high = new_quality
            column = chosen
            quality = new_quality
            decisions += 1
        append(quality)
        total += quality
        elapsed += me[k][column]
    return FrameTiming(
        cycles=elapsed,
        qualities=qualities,
        controller_cycles=kernel.controller_cycles,
        decisions=decisions,
        degraded=degraded,
        mean_quality=total / count,
        min_quality=low,
        max_quality=high,
        quality_churn=churn_total / (count - 1) if count > 1 else 0.0,
    )


#: Pre-shifted decision thresholds, cached across rounds: a steady
#: fleet re-presents the same (kernel, granularity, budget vector) wave
#: after wave, and building the ``(decisions, columns, lanes)`` table is
#: a large fraction of a batch call.  Keyed by :attr:`DecisionKernel.key`
#: (not ``id``) plus the raw budget bytes, so a hit is value-correct by
#: construction.  Bounded; cleared by
#: :func:`repro.sim.runner.reset_caches`.
_SHIFTED_LIMIT = 8
_shifted_cache: OrderedDict[tuple, np.ndarray] = OrderedDict()
_shifted_lock = threading.Lock()


def _shifted_thresholds(
    kernel: DecisionKernel, granularity: int, budgets: np.ndarray
) -> np.ndarray:
    """The per-lane shifted threshold table for one batch call.

    With prefix-feasible rows the layout is (decision, column, lane) so
    the feasible-count reduction runs along the short column axis in
    contiguous lane-wide strips; otherwise (decision, lane, column) for
    the high-to-low scan fallback.
    """
    key = (kernel.key, granularity, budgets.tobytes())
    cached = _shifted_cache.get(key)
    if cached is not None:
        return cached
    shift = budgets - kernel.nominal_budget
    dec_rows = kernel.rows[::granularity]
    if kernel.prefix_feasible:
        shifted = dec_rows[:, :, None] + shift[None, None, :]
    else:
        shifted = dec_rows[:, None, :] + shift[None, :, None]
    shifted.setflags(write=False)
    with _shifted_lock:
        while len(_shifted_cache) >= _SHIFTED_LIMIT:
            _shifted_cache.popitem(last=False)
        _shifted_cache[key] = shifted
    return shifted


def clear_shifted_cache() -> None:
    """Drop the cached threshold tables (part of ``reset_caches``)."""
    with _shifted_lock:
        _shifted_cache.clear()


#: Batches narrower than this run :func:`scalar_decide` lane by lane: a
#: numpy pass pays ~11 array calls per macroblock whatever the width.
#: The measured crossover, pinned by the width sweep in
#: ``benchmarks/test_bench_engine.py`` (13-21 lanes by shape, 2 vCPUs).
BATCH_MIN_LANES = 16


def batch_decide(
    kernel: DecisionKernel,
    granularity: int,
    grab: Sequence[np.ndarray],
    me: Sequence[np.ndarray],
    budgets: Sequence[float],
) -> list[FrameTiming]:
    """Encode B frames' timings, one lane per frame; lanes never interact.

    ``grab`` holds B pre-fused ``(N,)`` bank rows and ``me`` B ``(N, L)``
    ones — sequences of rows or stacked ``(B, N)`` / ``(B, N, L)``
    arrays — and ``budgets`` B budgets.  Returns one
    :class:`FrameTiming` per lane, bit-identical to :func:`scalar_decide`
    on the same inputs (see module docstring), whichever way the batch
    runs: per lane below :data:`BATCH_MIN_LANES`, else as one numpy pass.
    """
    lanes = len(budgets)
    if lanes < BATCH_MIN_LANES:
        # ``tolist``/``float`` hand the scalar loop the exact doubles
        return [
            scalar_decide(kernel, granularity, g.tolist(), m.tolist(), float(b))
            for g, m, b in zip(grab, me, budgets)
        ]
    count = kernel.macroblocks
    level_count = len(kernel.levels)
    # stack the rows macroblock-major: (N, B) and (N, B, L)
    grab_plus = np.stack(grab, axis=1)
    me_plus = np.stack(me, axis=1)
    budgets = np.asarray(budgets, dtype=np.float64)
    shifted = _shifted_thresholds(kernel, granularity, budgets)
    decisions = shifted.shape[0]

    # the elapsed chain is sequential per lane (every decision reads the
    # running time), so the loop below is per-macroblock — but each step
    # is two fused adds plus, at decision points, one threshold pass
    # over all lanes at once
    elapsed = np.zeros(lanes)
    lane_columns = np.zeros(lanes, dtype=np.intp)
    columns = np.empty((count, lanes), dtype=np.intp)
    degraded = np.zeros(lanes, dtype=np.int64)
    lane_index = np.arange(lanes)
    # flat-offset gather: me_plus[k] is (lanes, levels) contiguous, so
    # row ``lane``'s chosen column lives at ``lane * levels + column``
    lane_offsets = lane_index * level_count
    flat_index = np.empty(lanes, dtype=np.intp)
    prefix = kernel.prefix_feasible
    if prefix:
        feasible = np.empty((level_count, lanes), dtype=bool)
        zero_mask = np.empty(lanes, dtype=bool)
    else:
        feasible = np.empty((lanes, level_count), dtype=bool)
    for k in range(count):
        elapsed += grab_plus[k]
        if k % granularity == 0:
            if prefix:
                # nonincreasing thresholds: feasible columns form a
                # prefix, so the highest one is (count of True) - 1
                np.less_equal(elapsed, shifted[k // granularity], out=feasible)
                np.add.reduce(
                    feasible, axis=0, dtype=np.intp, out=lane_columns
                )
                degraded += np.equal(lane_columns, 0, out=zero_mask)
                np.subtract(lane_columns, 1, out=lane_columns)
                np.maximum(lane_columns, 0, out=lane_columns)
            else:
                np.less_equal(
                    elapsed[:, None], shifted[k // granularity], out=feasible
                )
                found = feasible.any(axis=1)
                # highest feasible column = first True, high-to-low scan
                best = (level_count - 1) - np.argmax(
                    feasible[:, ::-1], axis=1
                )
                lane_columns = np.where(found, best, 0)
                degraded += ~found
        columns[k] = lane_columns
        np.add(lane_columns, lane_offsets, out=flat_index)
        elapsed += me_plus[k].take(flat_index, mode="clip")

    quality_hist = np.asarray(kernel.levels, dtype=np.int64)[columns.T]
    mean_quality = quality_hist.mean(axis=1)
    min_quality = quality_hist.min(axis=1)
    max_quality = quality_hist.max(axis=1)
    if count > 1:
        churn = np.abs(np.diff(quality_hist, axis=1)).mean(axis=1)
    else:
        churn = np.zeros(lanes)
    controller_cycles = kernel.controller_cycles
    return [
        FrameTiming(
            cycles=float(elapsed[lane]),
            qualities=quality_hist[lane],
            controller_cycles=controller_cycles,
            decisions=decisions,
            degraded=int(degraded[lane]),
            mean_quality=float(mean_quality[lane]),
            min_quality=int(min_quality[lane]),
            max_quality=int(max_quality[lane]),
            quality_churn=float(churn[lane]),
        )
        for lane in range(lanes)
    ]
