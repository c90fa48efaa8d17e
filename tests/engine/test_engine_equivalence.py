"""The vectorized engine is bit-identical to scalar.

The acceptance criterion of the execution-engine tentpole: for **every
registered scenario generator** (fleet and cluster — the list below is
asserted complete against the registry, so a new scenario cannot dodge
the check), serving with ``engine="vectorized"`` reproduces
``engine="scalar"`` exactly —

* result summaries and per-stream series, to the bit,
* the full structured event log, byte for byte as JSONL,
* with ``InvariantObserver(enforce=True)`` attached throughout, so a
  run that merely *looks* right but breaks a runtime invariant aborts.

These pools are narrow, so at the real width crossover every batch runs
``batch_decide``'s per-lane branch; ``vectorized-numpy`` serves each
scenario again with the crossover forced to 1, so the numpy pass is
held to the same bits.
"""

from __future__ import annotations

import math

import pytest

from repro.engine import kernel as engine_kernel
from repro.obs import InvariantObserver, StructuredEventLog
from repro.serving import serve
from repro.serving.registry import (
    SCENARIOS,
    scenario_open_ended,
    scenario_topology,
)

ENGINES_UNDER_TEST = ("vectorized", "vectorized-numpy")

#: Small kwargs per registered scenario (seconds, not minutes, per case).
SCENARIO_KWARGS = {
    "steady": {"count": 3, "frames": 4},
    "heterogeneous-mix": {"count": 4, "frames": 4},
    "poisson-churn": {
        "rate": 0.8, "horizon": 6, "mean_frames": 6, "min_frames": 4,
    },
    "flash-crowd": {
        "base": 2, "crowd": 3, "crowd_round": 2, "frames": 4, "scale": 27,
    },
    "sla-churn": {"rate": 1.0, "horizon": 8, "seed": 5, "initial": 4},
    "gold-rush": {
        "bronze": 4, "gold": 2, "crowd_round": 2, "frames": 6, "scale": 27,
    },
    "skewed-cluster": {"streams": 6, "frames": 4},
    "skewed-churn": {
        "rate": 1.0, "horizon": 6, "mean_frames": 6, "min_frames": 4,
        "initial": 2,
    },
    "shard-outage": {"streams": 6, "frames": 6},
    "flash-crowd-split": {
        "base": 2, "crowd": 4, "crowd_round": 2, "frames": 4,
    },
    "sla-skewed-cluster": {"streams": 8, "frames": 5},
    # open-ended sources run under an explicit max_rounds stop (added
    # by spec_for); small rate profiles keep the drain tail short
    "diurnal-live": {
        "base_rate": 0.4, "peak": 1.2, "period_rounds": 8,
        "loop_frames": 5,
    },
    "flash-live": {
        "base_rate": 0.3, "crowd_round": 3, "crowd_rate": 2.0,
        "crowd_width": 2, "loop_frames": 5,
    },
    "drift-live": {
        "start_rate": 0.3, "end_rate": 1.0, "drift_rounds": 8,
        "loop_frames": 5,
    },
    "diurnal-cluster": {
        "shards": 2, "base_rate": 0.4, "peak": 1.2, "period_rounds": 8,
        "loop_frames": 5, "provision_concurrency": 3.0,
    },
    "flash-cluster": {
        "shards": 2, "base_rate": 0.3, "crowd_round": 3, "crowd_rate": 2.0,
        "crowd_width": 2, "loop_frames": 5, "provision_concurrency": 3.0,
    },
    "drift-cluster": {
        "shards": 2, "start_rate": 0.3, "end_rate": 1.0, "drift_rounds": 8,
        "loop_frames": 5, "provision_concurrency": 3.0,
    },
}

FLEET_NAMES = sorted(
    n for n in SCENARIO_KWARGS if scenario_topology(n) == "fleet"
)
CLUSTER_NAMES = sorted(
    n for n in SCENARIO_KWARGS if scenario_topology(n) == "cluster"
)


def test_every_registered_scenario_is_covered():
    """A newly registered scenario must be added to this suite."""
    assert sorted(SCENARIO_KWARGS) == sorted(SCENARIOS.names())


def spec_for(name, engine):
    """A spec exercising SLA machinery where the scenario carries it."""
    topology = scenario_topology(name)
    spec = {
        "topology": topology,
        "scenario": {"name": name, "kwargs": SCENARIO_KWARGS[name]},
        "engine": engine,
    }
    if topology == "fleet":
        spec["capacity"] = 24e6
        spec["arbiter"] = "quality-fair"
        spec["admission"] = "feasibility"
        if name in ("sla-churn", "gold-rush"):
            spec |= {
                "arbiter": "sla-quality-fair",
                "admission": "priority",
                "renegotiation": {
                    "name": "step", "kwargs": {"patience": 1, "step": 0.2},
                },
            }
    else:
        spec["arbiter"] = "quality-fair"
        spec["placement"] = "best-fit"
        spec["migration"] = "load-balance"
        spec["balancer"] = "headroom"
        if name == "sla-skewed-cluster":
            spec |= {"arbiter": "sla-weighted", "placement": "sla-aware"}
        if scenario_open_ended(name):
            # under-provisioned + gated so queues form and the signal
            # autoscaler has pressure to act on mid-run
            spec["admission"] = "feasibility"
            spec["autoscaler"] = {
                "name": "signal",
                "kwargs": {"window": 4, "cooldown": 8, "sustain": 1,
                           "max_shards": 4},
            }
    if scenario_open_ended(name):
        spec["max_rounds"] = 12
    return spec


@pytest.fixture
def engine(request, monkeypatch):
    """The engine to serve; ``vectorized-numpy`` forces every batch
    onto the numpy pass and checks that it ran."""
    if request.param == "vectorized":
        yield "vectorized"
        return
    passes = []
    real = engine_kernel._shifted_thresholds

    def counted(*args):
        # only the numpy pass builds a shifted threshold table
        passes.append(args)
        return real(*args)

    monkeypatch.setattr(engine_kernel, "BATCH_MIN_LANES", 1)
    monkeypatch.setattr(engine_kernel, "_shifted_thresholds", counted)
    yield "vectorized"
    assert passes, "the numpy pass never ran"


def run_with_log(name, engine):
    """Serve one scenario under enforcement, capturing the event log."""
    log = StructuredEventLog()
    result = serve(
        spec_for(name, engine),
        observers=[log, InvariantObserver(enforce=True)],
    )
    return result, log.to_jsonl()


def assert_values_equal(mine, theirs):
    assert len(mine) == len(theirs)
    for x, y in zip(mine, theirs):
        if isinstance(x, float) and math.isnan(x):
            assert isinstance(y, float) and math.isnan(y)
        else:
            assert x == y


def assert_results_identical(scalar, other):
    mine, theirs = scalar.summary(), other.summary()
    assert mine.keys() == theirs.keys()
    assert_values_equal(list(mine.values()), list(theirs.values()))
    assert_values_equal(
        scalar.per_stream_quality(), other.per_stream_quality()
    )
    assert_values_equal(scalar.per_stream_psnr(), other.per_stream_psnr())
    assert [o.spec.name for o in scalar.outcomes] == [
        o.spec.name for o in other.outcomes
    ]
    for a, b in zip(scalar.outcomes, other.outcomes):
        assert_values_equal(
            list(a.result.quality_series()), list(b.result.quality_series())
        )
        assert_values_equal(
            list(a.result.psnr_series()), list(b.result.psnr_series())
        )
    assert [s.name for s in scalar.rejected] == [
        s.name for s in other.rejected
    ]
    assert [s.name for s in scalar.preempted] == [
        s.name for s in other.preempted
    ]


@pytest.mark.parametrize("engine", ENGINES_UNDER_TEST, indirect=True)
@pytest.mark.parametrize("name", FLEET_NAMES)
def test_fleet_engine_bit_identical(name, engine):
    scalar, scalar_log = run_with_log(name, "scalar")
    other, other_log = run_with_log(name, engine)
    assert_results_identical(scalar, other)
    assert scalar_log == other_log


@pytest.mark.parametrize("engine", ENGINES_UNDER_TEST, indirect=True)
@pytest.mark.parametrize("name", CLUSTER_NAMES)
def test_cluster_engine_bit_identical(name, engine):
    scalar, scalar_log = run_with_log(name, "scalar")
    other, other_log = run_with_log(name, engine)
    assert_results_identical(scalar, other)
    assert scalar.raw.migrations == other.raw.migrations
    assert scalar.raw.shard_demand_cycles == other.raw.shard_demand_cycles
    for mine, theirs in zip(scalar.raw.shard_results, other.raw.shard_results):
        a, b = mine.summary(), theirs.summary()
        assert a.keys() == b.keys()
        assert_values_equal(list(a.values()), list(b.values()))
    assert scalar_log == other_log


def test_cluster_table_labels_rows_by_shard_id():
    """Shard results list survivors, then autoscaled, then retired
    shards, so the per-shard table prints each row's own id."""
    from repro.analysis.report import cluster_table

    result = serve(spec_for("diurnal-cluster", "scalar"))
    ids = [r.shard_id for r in result.raw.shard_results]
    assert ids == ["shard-0", "scale-0", "shard-1"]
    rows = cluster_table(result.raw).splitlines()[2:]
    assert [row.split()[0] for row in rows] == ids + ["cluster"]
    fleet = serve(spec_for("steady", "scalar"))
    assert fleet.raw.shard_id is None
    assert "shard_id" not in fleet.raw.summary()
