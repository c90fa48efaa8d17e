"""The benchmark's workloads: serving specs built from a seed.

Each workload is one :class:`repro.serving.ServingSpec` document.  The
seed is the only input that varies between runs, and it reaches the
program only through the scenario's ``seed`` kwarg.  Arrivals follow an
open-loop schedule in simulated rounds (all at round 0, Poisson, or a
diurnal Poisson rate), so a slow host never thins the load.

This module imports nothing from ``repro``: the orchestrating process
stays free of the package until it measures it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Where a run writes its event, trace and span logs (relative to the
#: checkout root; ignored by git).
OUT_DIR = "perfbench/out"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[..., dict]
    #: the engine the correctness check compares against
    other_engine: str


def fleet_wide(seed: int, out_dir: str = OUT_DIR, size: dict | None = None) -> dict:
    size = size or {}
    return {
        "topology": "fleet",
        "scenario": {
            "name": "steady",
            "kwargs": {
                "count": size.get("count", 256),
                "frames": size.get("frames", 12),
                "scale": 2,
                "seed": seed,
            },
        },
        "capacity": {"utilization": 0.7},
        "arbiter": "quality-fair",
        "admission": "feasibility",
        "engine": "vectorized",
    }


def cluster_churn(seed: int, out_dir: str = OUT_DIR, size: dict | None = None) -> dict:
    size = size or {}
    return {
        "topology": "cluster",
        "scenario": {
            "name": "skewed-churn",
            "kwargs": {
                "rate": size.get("rate", 3),
                "horizon": size.get("horizon", 120),
                "mean_frames": size.get("mean_frames", 8),
                "min_frames": size.get("min_frames", 6),
                "shards": 8,
                "seed": seed,
            },
        },
        "placement": "best-fit",
        "migration": "load-balance",
        "balancer": "headroom",
        "engine": "vectorized",
    }


def live_sla(seed: int, out_dir: str = OUT_DIR, size: dict | None = None) -> dict:
    size = size or {}
    return {
        "topology": "cluster",
        "scenario": {
            "name": "diurnal-cluster",
            # three times the arrivals and shard bounds of the autoscaling
            # bench, provisioned so that no seed's Poisson draws tip the
            # run into overload (there, one seed in three did, moving
            # quality and round p95 by 20-50%)
            "kwargs": {
                "base_rate": 0.75,
                "peak": 2.25,
                "period_rounds": 100,
                "loop_frames": 24,
                "scale": 20,
                "seed": seed,
                "classes": ["gold", "bronze"],
                "shards": 6,
                "provision_concurrency": 45.0,
            },
        },
        "placement": "least-loaded",
        "balancer": "headroom",
        "arbiter": "sla-weighted",
        "admission": {"name": "priority", "kwargs": {"queue_limit": 4}},
        "renegotiation": {
            "name": "step",
            "kwargs": {"patience": 2, "recovery_patience": 2, "step": 0.15},
        },
        "autoscaler": {
            "name": "signal",
            "kwargs": {
                "window": 10,
                "cooldown": 10,
                "sustain": 1,
                "up_pressure": 0.22,
                "min_shards": 6,
                "max_shards": 18,
                "down_utilization": 0.5,
                "down_quality": 5.0,
            },
        },
        "service_classes": ["gold", "bronze"],
        "max_rounds": size.get("rounds", 200),
        "observers": [
            {"name": "telemetry", "kwargs": {"window": 10}},
            {
                "name": "events",
                "kwargs": {
                    "path": f"{out_dir}/live-sla.events.jsonl",
                    "timelines": False,
                },
            },
            {"name": "invariants", "kwargs": {"enforce": True}},
            {"name": "trace", "kwargs": {"path": f"{out_dir}/live-sla.trace.jsonl"}},
        ],
        "slos": [
            {"name": "gold-quality", "objective": "quality", "service_class": "gold"}
        ],
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fleet-wide",
            "256 distinct streams in one pool on the vectorized engine: wide "
            "batch waves and a cold start dominated by per-stream caches",
            fleet_wide,
            "scalar",
        ),
        Workload(
            "cluster-churn",
            "Poisson churn over 8 skewed shards: ~3-lane batches expose "
            "per-call dispatch; placement, migration and balancing run "
            "every round",
            cluster_churn,
            "scalar",
        ),
        Workload(
            "live-sla",
            "open-ended diurnal SLA cluster with autoscaling and the full "
            "observer stack on the scalar engine",
            live_sla,
            "vectorized",
        ),
    )
}

#: The workloads ``BENCHMARK.json`` lists.  ``fleet-wide`` is run by
#: hand only: its three cold starts of 256 distinct streams take about
#: half a minute per run, which left too little of the benchmark's time
#: budget for runs long enough to ride out the shared host's slow spells.
#: Every layer it measures is also measured on one of these two.
BENCHMARKED = ("cluster-churn", "live-sla")

#: Which layer metric should move which end-to-end metric, and where.
LAYER_MAP = [
    {
        "layers": ["sim.simulation_for.*", "streams.admission.qmin.*", "engine.bank.*"],
        "drives": ["setup_s"],
        "workloads": ["fleet-wide"],
        "note": "small on the other two workloads",
    },
    {
        "layers": ["engine.bank.mb"],
        "drives": ["peak_rss_mb"],
        "workloads": ["fleet-wide"],
    },
    {
        "layers": ["engine.kernel.batch.s"],
        "drives": ["frames_per_s"],
        "workloads": ["fleet-wide"],
        "note": "hundreds of lanes per call",
    },
    {
        "layers": [
            "engine.kernel.batch.s",
            "engine.vectorized.dispatch.s",
            "engine.kernel.batch.lanes_mean",
        ],
        "drives": ["frames_per_s"],
        "workloads": ["cluster-churn"],
        "note": "about 3 lanes per call; zero on live-sla",
    },
    {
        "layers": ["engine.kernel.scalar.s"],
        "drives": ["frames_per_s"],
        "workloads": ["live-sla"],
    },
    {
        "layers": ["streams.session.signal.s", "video.encode_frame.s"],
        "drives": ["frames_per_s"],
        "workloads": ["fleet-wide", "cluster-churn", "live-sla"],
        "note": "most on fleet-wide and live-sla",
    },
    {
        "layers": ["streams.arbiter.*", "cluster.*", "horizon.*", "obs.*"],
        "drives": ["stream_round_p95_us"],
        "workloads": ["live-sla", "cluster-churn"],
    },
    {
        "layers": [],
        "drives": [
            "mean_quality",
            "mean_psnr_db",
            "fairness_quality",
            "acceptance_ratio",
            "deadline_met_ratio",
            "encoded_ratio",
        ],
        "workloads": ["fleet-wide", "cluster-churn", "live-sla"],
        "note": "simulated outcomes: bit-identical under any performance "
        "or simplicity change; only a policy change may move them",
    },
]
