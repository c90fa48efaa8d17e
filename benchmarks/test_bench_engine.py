"""Execution-engine bench: the vectorized engine, row by row.

The engine's acceptance criteria, measured on a matrix of serving
workloads rather than one best case:

* ``steady`` — a 256-stream homogeneous fleet in overload (demand at
  ~1.4x the shared capacity), one 256-lane wave per frame: the
  vectorized engine must serve it **at least 5x faster** than scalar.
* ``poisson-churn``, ``heterogeneous-mix``, ``flash-crowd``, an 8-shard
  ``skewed-cluster`` of 256 streams and an open-ended ``diurnal-live``
  run — churn, mixed shapes and sharding make batches narrow, where
  ``batch_decide`` runs lane by lane: the vectorized engine must stay at
  **parity** with scalar (``PARITY_FLOOR``, parity within noise).

Every row serves once per engine under ``InvariantObserver(enforce=True)``
and must reproduce scalar exactly — identical summaries and JSONL event
logs — before it is timed.  A width sweep then times both branches of
``batch_decide`` on the shapes the rows batched and fails when the
module's ``BATCH_MIN_LANES`` lies outside [crossover/2, 2 x crossover]
of the measured crossover, so the constant is pinned by measurement.
Per row, the trajectory (``BENCH_engine.json``) records scalar and
vectorized seconds, their ratio, the batch-call count and the mean
batch width; it also records the crossover.

Timing methodology: the correctness pass doubles as the warm-up (banks,
kernels and compiled tables are shared, deliberately), then min-of-3
with the repeats **interleaved** across engines — back-to-back blocks
would let a slow patch of CI noise land entirely on one engine and skew
the ratio (the failure mode that once produced a negative overhead in
the telemetry bench).  Ratios compare minima within one attempt only,
and each row keeps the best of up to ``ATTEMPTS`` attempts, stopping at
the first that clears its floor: the estimator ``test_bench_obs.py``
uses, because one quiet attempt is evidence about the code where
several noisy ones are evidence about the box.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.engine import kernel as engine_kernel
from repro.engine import vectorized
from repro.engine.kernel import BATCH_MIN_LANES, clear_shifted_cache
from repro.obs import InvariantObserver, StructuredEventLog
from repro.serving import serve
from repro.sim.runner import reset_caches

from conftest import write_bench_trajectory

#: The steady row's floor: scalar seconds / vectorized seconds.
SPEEDUP_FLOOR = 5.0

#: Every other row's floor: the vectorized engine never loses to scalar
#: by more than timing noise.
PARITY_FLOOR = 0.9

#: Interleaved min-of-3 attempts a row may take (best one counts).
ATTEMPTS = 4

#: 256 homogeneous streams, 12 frames each, in the steady row.
STREAMS = 256

ENGINES = ("scalar", "vectorized")


def fleet_row(name: str, kwargs: dict, **spec) -> dict:
    """A fleet row; the pool is sized to 70% of aggregate demand unless
    the spec names a capacity, so every round is an overload round."""
    return {
        "scenario": {"name": name, "kwargs": kwargs},
        "capacity": {"utilization": 0.7},
        "arbiter": "quality-fair",
        "admission": "feasibility",
        "granularity": 1,
    } | spec


#: The matrix.  Each row is sized so one serve lasts at least 0.2 s on
#: either engine (~0.25 s on a 2-vCPU x86 host).
ROWS = {
    "steady": fleet_row("steady", {"count": STREAMS, "frames": 12, "scale": 2}),
    "poisson-churn": fleet_row("poisson-churn", {"rate": 1, "horizon": 200}),
    "heterogeneous-mix": fleet_row(
        "heterogeneous-mix", {"count": 64, "frames": 100}
    ),
    "flash-crowd": fleet_row(
        "flash-crowd",
        {"base": 32, "crowd": 96, "crowd_round": 4, "frames": 80},
    ),
    "skewed-cluster": {
        "topology": "cluster",
        "scenario": {
            "name": "skewed-cluster",
            "kwargs": {"streams": 256, "shards": 8, "frames": 20},
        },
        "placement": "best-fit",
        "migration": "load-balance",
        "balancer": "headroom",
    },
    # open-ended: demand is unbounded, so the pool is absolute
    "diurnal-live": fleet_row(
        "diurnal-live",
        {"base_rate": 1.0, "peak": 3.0, "period_rounds": 60, "loop_frames": 12},
        capacity=9e8,
        max_rounds=150,
    ),
}

#: Bank rows kept per (shape, granularity) for the width sweep.
SWEEP_POOL = 64

#: Widths the sweep times each branch at, around the constant.
SWEEP_WIDTHS = tuple(
    round(BATCH_MIN_LANES * factor) for factor in (0.5, 0.75, 1.0, 1.5, 2.0)
)

#: Interleaved repeats per (shape, width, branch); the minimum counts.
SWEEP_REPEATS = 7


def speedup_of(seconds: dict) -> float:
    return seconds["scalar"] / seconds["vectorized"]


def assert_values_equal(mine, theirs):
    assert len(mine) == len(theirs)
    for x, y in zip(mine, theirs):
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y)
        else:
            assert x == y


@contextmanager
def counting_batches(pool: dict):
    """Count ``batch_decide`` calls and widths; keep up to
    ``SWEEP_POOL`` lanes per shape in ``pool`` for the sweep."""
    widths: list[int] = []
    real = vectorized.batch_decide

    def counted(kernel, granularity, grab, me, budgets):
        widths.append(len(budgets))
        _, _, lanes = pool.setdefault(
            (kernel.key, granularity), (kernel, granularity, [])
        )
        if len(lanes) < SWEEP_POOL:
            lanes.extend(zip(grab, me, budgets))
        return real(kernel, granularity, grab, me, budgets)

    vectorized.batch_decide = counted
    try:
        yield widths
    finally:
        vectorized.batch_decide = real


def checked_run(spec: dict):
    """Serve under invariant enforcement, capturing the event log."""
    log = StructuredEventLog()
    invariants = InvariantObserver(enforce=True)
    result = serve(spec, observers=[log, invariants])
    assert invariants.violations == []
    return result, log.to_jsonl()


def one_attempt(spec: dict) -> dict:
    """Interleaved min-of-3 wall seconds per engine."""
    seconds = {engine: math.inf for engine in ENGINES}
    for _ in range(3):
        for engine in ENGINES:
            start = time.perf_counter()
            serve(spec | {"engine": engine})
            seconds[engine] = min(seconds[engine], time.perf_counter() - start)
    return seconds


def measure_row(name: str, spec: dict, floor: float, pool: dict) -> dict:
    """Check one row bit for bit, then time it (see module docstring)."""
    scalar_result, scalar_log = checked_run(spec | {"engine": "scalar"})
    with counting_batches(pool) as widths:
        result, log = checked_run(spec | {"engine": "vectorized"})
    mine, theirs = scalar_result.summary(), result.summary()
    assert mine.keys() == theirs.keys()
    assert_values_equal(list(mine.values()), list(theirs.values()))
    assert log == scalar_log, f"{name}: vectorized event log diverged"

    best = one_attempt(spec)
    for _ in range(ATTEMPTS - 1):
        if speedup_of(best) >= floor:
            break
        best = max(best, one_attempt(spec), key=speedup_of)
    return {
        "summary": mine,
        "scalar_seconds": best["scalar"],
        "vectorized_seconds": best["vectorized"],
        "speedup": speedup_of(best),
        "batch_calls": len(widths),
        "lanes_mean": sum(widths) / len(widths) if widths else 0.0,
    }


def branch_seconds(kernel, granularity, batch, min_lanes: int) -> float:
    """One ``batch_decide`` call's wall seconds with the crossover
    forced to ``min_lanes`` (a cold threshold table, as in churn)."""
    grab, me, budgets = (list(column) for column in zip(*batch))
    engine_kernel.BATCH_MIN_LANES = min_lanes
    try:
        clear_shifted_cache()
        start = time.perf_counter()
        engine_kernel.batch_decide(kernel, granularity, grab, me, budgets)
        return time.perf_counter() - start
    finally:
        engine_kernel.BATCH_MIN_LANES = BATCH_MIN_LANES


def shape_crossover(kernel, granularity, lanes) -> float:
    """Width at which the numpy pass starts beating the per-lane loop
    on one shape: both branches' times, interleaved and min-of-N per
    width, fitted as lines in the width; ``inf`` if numpy never wins."""
    per_lane, numpy_pass = [], []
    for width in SWEEP_WIDTHS:
        batch = [lanes[i % len(lanes)] for i in range(width)]
        best = {"per-lane": math.inf, "numpy": math.inf}
        for _ in range(SWEEP_REPEATS):
            for branch, min_lanes in (("per-lane", width + 1), ("numpy", 1)):
                best[branch] = min(
                    best[branch],
                    branch_seconds(kernel, granularity, batch, min_lanes),
                )
        per_lane.append(best["per-lane"])
        numpy_pass.append(best["numpy"])
    lane_slope, lane_base = np.polyfit(SWEEP_WIDTHS, per_lane, 1)
    numpy_slope, numpy_base = np.polyfit(SWEEP_WIDTHS, numpy_pass, 1)
    if lane_slope <= numpy_slope:
        return math.inf
    return (numpy_base - lane_base) / (lane_slope - numpy_slope)


@pytest.fixture(scope="module")
def matrix():
    """Every row measured once, the shapes' lanes pooled for the sweep,
    and the trajectory written once every test has filled it in."""
    reset_caches()
    pool: dict = {}
    rows = {
        name: measure_row(
            name,
            spec,
            SPEEDUP_FLOOR if name == "steady" else PARITY_FLOOR,
            pool,
        )
        for name, spec in ROWS.items()
    }
    trajectory: dict = {}
    for name, row in rows.items():
        key = name.replace("-", "_")
        trajectory |= {
            f"{key}_scalar_seconds": round(row["scalar_seconds"], 4),
            f"{key}_vectorized_seconds": round(row["vectorized_seconds"], 4),
            f"{key}_speedup": round(row["speedup"], 2),
            f"{key}_batch_calls": row["batch_calls"],
            f"{key}_lanes_mean": round(row["lanes_mean"], 2),
        }
    yield {"rows": rows, "pool": pool, "trajectory": trajectory}
    write_bench_trajectory("engine", trajectory)
    # release the rows' banks and compiled shapes (the steady row alone
    # holds 256 banks of 810 macroblocks): later modules must start
    # from cold caches, as a fresh process would
    reset_caches()


def test_bench_engine_speedup(matrix):
    """Vectorized >= 5x scalar on the 256-stream overload fleet."""
    row = matrix["rows"]["steady"]
    print(
        f"\nsteady: scalar {row['scalar_seconds']:.3f}s, vectorized "
        f"{row['vectorized_seconds']:.3f}s ({row['speedup']:.2f}x)"
    )
    summary = row["summary"]
    matrix["trajectory"] |= {
        "streams": STREAMS,
        "frames": 12,
        "granularity": 1,
        "utilization": 0.7,
        "served": summary["served"],
        "rejected": summary["rejected"],
        "mean_quality": round(summary["mean_quality"], 4),
    }
    assert summary["served"] == STREAMS
    assert row["speedup"] >= SPEEDUP_FLOOR, (
        f"vectorized speedup {row['speedup']:.2f}x < {SPEEDUP_FLOOR}x floor"
    )


def test_bench_engine_matrix(matrix):
    """Every other row: the vectorized engine is at least at parity."""
    print()
    slow = []
    for name, row in matrix["rows"].items():
        print(
            f"{name:>18}: scalar {row['scalar_seconds']:.3f}s, vectorized "
            f"{row['vectorized_seconds']:.3f}s ({row['speedup']:.2f}x), "
            f"{row['batch_calls']} batches of {row['lanes_mean']:.1f} lanes"
        )
        if name != "steady" and row["speedup"] < PARITY_FLOOR:
            slow.append(f"{name} {row['speedup']:.2f}x")
    assert not slow, f"below the {PARITY_FLOOR}x parity floor: {slow}"


def test_bench_engine_width_crossover(matrix):
    """``BATCH_MIN_LANES`` sits within 2x of the measured crossover."""
    crossovers = sorted(
        (kernel.macroblocks, shape_crossover(kernel, granularity, lanes))
        for kernel, granularity, lanes in matrix["pool"].values()
    )
    crossover = statistics.median(c for _, c in crossovers)
    print(
        "\ncrossover lanes by macroblocks: "
        + ", ".join(f"{mb}: {c:.1f}" for mb, c in crossovers)
        + f"; median {crossover:.1f}, BATCH_MIN_LANES {BATCH_MIN_LANES}"
    )
    matrix["trajectory"] |= {
        "batch_min_lanes": BATCH_MIN_LANES,
        "crossover_lanes": round(crossover, 1),
    }
    assert crossover / 2 <= BATCH_MIN_LANES <= 2 * crossover, (
        f"BATCH_MIN_LANES {BATCH_MIN_LANES} outside [{crossover / 2:.1f}, "
        f"{2 * crossover:.1f}] of the measured crossover {crossover:.1f}"
    )
