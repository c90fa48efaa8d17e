"""Metric catalog: every name the benchmark reports, with its unit and
better direction.  ``BENCHMARK.json`` at the repository root mirrors
these lists (a self-test keeps them in step).

End-to-end metrics marked *host* are CPU time of the one thread that
serves (the load is single-threaded and CPU-bound, so on an idle host
this is its wall time); the *sim* ones are simulated QoS outcomes that
repeat exactly for a seed.
"""

from __future__ import annotations

#: (name, unit, better, bound): bound is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
#: Host bounds are the largest allowed: a shared 2-vCPU host slows the
#: serving thread by up to half for tens of seconds at a time.  The sim
#: bounds cover how much the seed alone moves a workload's QoS.
END_TO_END = (
    # host
    ("setup_s", "s", "lower", 0.25),
    ("frames_per_s", "frames/s", "higher", 0.25),
    ("stream_round_p50_us", "us", "lower", 0.25),
    ("stream_round_p95_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    # sim
    ("mean_quality", "level", "higher", 0.25),
    ("mean_psnr_db", "dB", "higher", 0.05),
    ("fairness_quality", "jain", "higher", 0.2),
    ("acceptance_ratio", "ratio", "higher", 0.05),
    ("deadline_met_ratio", "ratio", "higher", 0.1),
    ("encoded_ratio", "ratio", "higher", 0.05),
)

#: Per-layer metrics of the traced run.  ``.s`` metrics are self
#: seconds per warm ``serve()``; the cache-fill metrics (``*.misses``,
#: ``sim.simulation_for.s``, ``streams.admission.qmin.s``,
#: ``engine.bank.*``) are taken from the cold first ``serve()``.  The
#: ``serving.round_*`` latencies are per round, not per stream, so they
#: follow how many streams a seed keeps active.
PER_LAYER = (
    ("serving.round_p50_ms", "ms", "lower"),
    ("serving.round_p95_ms", "ms", "lower"),
    ("serving.build_s", "s", "lower"),
    ("sim.simulation_for.misses", "count", "lower"),
    ("sim.simulation_for.s", "s", "lower"),
    ("streams.admission.qmin.misses", "count", "lower"),
    ("streams.admission.qmin.s", "s", "lower"),
    ("streams.admission.offer.calls", "count", "lower"),
    ("streams.admission.offer.s", "s", "lower"),
    ("streams.admission.accept_ratio", "ratio", "higher"),
    ("engine.bank.builds", "count", "lower"),
    ("engine.bank.s", "s", "lower"),
    ("engine.bank.mb", "MB", "lower"),
    ("engine.kernel.scalar.calls", "count", "lower"),
    ("engine.kernel.scalar.s", "s", "lower"),
    ("engine.kernel.batch.calls", "count", "lower"),
    ("engine.kernel.batch.s", "s", "lower"),
    ("engine.kernel.batch.lanes_mean", "lanes", "higher"),
    ("engine.vectorized.dispatch.s", "s", "lower"),
    ("streams.session.step.s", "s", "lower"),
    ("streams.session.signal.s", "s", "lower"),
    ("video.encode_frame.calls", "count", "lower"),
    ("video.encode_frame.s", "s", "lower"),
    ("streams.arbiter.allocate.calls", "count", "lower"),
    ("streams.arbiter.allocate.s", "s", "lower"),
    ("sla.renegotiation.s", "s", "lower"),
    ("cluster.shard.step.s", "s", "lower"),
    ("cluster.placement.choose.s", "s", "lower"),
    ("cluster.migration.plan.s", "s", "lower"),
    ("cluster.migration.moves", "count", "lower"),
    ("cluster.balancer.s", "s", "lower"),
    ("horizon.arrivals.s", "s", "lower"),
    ("horizon.autoscaler.plan.s", "s", "lower"),
    ("horizon.autoscaler.signal.s", "s", "lower"),
    ("horizon.scale_actions", "count", "lower"),
    ("obs.telemetry.s", "s", "lower"),
    ("obs.events.s", "s", "lower"),
    ("obs.invariants.s", "s", "lower"),
    ("obs.trace.s", "s", "lower"),
    ("obs.slo.s", "s", "lower"),
    ("serving.unattributed.s", "s", "lower"),
    ("serving.setup.cache_share", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.spans_per_serve", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.wall_overhead_ratio", "ratio", "lower"),
)

#: Self-time span names whose per-warm-serve seconds are reported as
#: ``<name>.s`` (``serving.build`` is reported as ``serving.build_s``).
WARM_SPANS = (
    "streams.admission.offer",
    "engine.kernel.scalar",
    "engine.kernel.batch",
    "engine.vectorized.dispatch",
    "streams.session.step",
    "streams.session.signal",
    "video.encode_frame",
    "streams.arbiter.allocate",
    "sla.renegotiation",
    "cluster.shard.step",
    "cluster.placement.choose",
    "cluster.migration.plan",
    "cluster.balancer",
    "horizon.arrivals",
    "horizon.autoscaler.plan",
    "horizon.autoscaler.signal",
    "obs.telemetry",
    "obs.events",
    "obs.invariants",
    "obs.trace",
    "obs.slo",
    "serving.unattributed",
)

#: Span names whose per-warm-serve call counts are reported.
WARM_CALLS = (
    "streams.admission.offer",
    "engine.kernel.scalar",
    "engine.kernel.batch",
    "video.encode_frame",
    "streams.arbiter.allocate",
)

#: Cold-serve spans whose self seconds are the cache-fill cost.
SETUP_SPANS = ("sim.simulation_for", "streams.admission.qmin", "engine.bank")
