"""Telemetry overhead bench: full observability must be ~free.

The observability acceptance criterion: attaching the **entire**
telemetry suite — windowed metrics, the structured event log, and the
invariant ledger in enforcement mode — to the 1.5x-overload SLA gold
rush must change **no result bit** and stay under the wall-time
ceiling (``OVERHEAD_CEILING``).  A second stack adds the per-session
causal tracer and the SLO engine on top and must stay under
``TRACED_CEILING``.  The measured trajectory (bare seconds,
telemetered seconds, both overhead ratios, event/window/violation
counts) is written to ``BENCH_obs.json`` so the cost
is tracked PR-over-PR.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

from repro.obs import (
    InvariantObserver,
    PerfObserver,
    SloObserver,
    SloSpec,
    StructuredEventLog,
    TelemetryObserver,
    TraceObserver,
    parse_events,
    parse_traces,
)
from repro.serving import serve

from conftest import run_once, write_bench_trajectory
from test_bench_sla import BENCH_CLASSES, sla_spec

#: The wall-time criteria.  The hook-path rework (cached instruments,
#: per-hook invariant dispatch, phase reports fanned only to actual
#: ``on_phase`` listeners, memoized departure quality) cut the
#: four-observer stack from the 8–11% it had crept to roughly in half:
#: summed per-observer A/B cost is ~3–4%, and the full stack measures
#: ~4–6% on a single-core CI box (the gap is cache/allocator pressure,
#: not hook work).  The ceilings sit one noise-margin above that —
#: wall-clock ratios on shared runners jitter by a few percent even as
#: a min over interleaved repeats — so the gate stays deterministic
#: while still catching any re-regression toward the old double-digit
#: cost.  The traced stack runs two more observers (span trees + SLO
#: budget tracking per departure) and gets a proportionally higher
#: ceiling.
OVERHEAD_CEILING = 0.08
TRACED_CEILING = 0.15

#: The SLO the traced stack evaluates (threshold defaults to the gold
#: class's declared target).
BENCH_SLOS = (
    SloSpec(name="gold-quality", objective="quality", service_class="gold"),
)


def _values_equal(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b


def _summaries_identical(bare, other) -> bool:
    a, b = bare.summary(), other.summary()
    if set(a) != set(b):
        return False
    return all(_values_equal(a[k], b[k]) for k in a)


def _assert_bit_identical(bare, other):
    assert _summaries_identical(bare, other)
    assert [o.spec.name for o in bare.outcomes] == [
        o.spec.name for o in other.outcomes
    ]
    for a, b in zip(bare.outcomes, other.outcomes):
        assert np.array_equal(
            a.result.quality_series(),
            b.result.quality_series(),
            equal_nan=True,
        )
    assert [s.name for s in bare.rejected] == [
        s.name for s in other.rejected
    ]


def test_bench_obs_overhead(benchmark, results_dir):
    """Full telemetry on the SLA overload bench: bit-identical, cheap."""
    def bare_run():
        return serve(sla_spec())

    def telemetered_run():
        observers = [
            TelemetryObserver(window=5),
            StructuredEventLog(),
            InvariantObserver(enforce=True, classes=BENCH_CLASSES),
            PerfObserver(),
        ]
        return serve(sla_spec(), observers=observers), observers

    def traced_run():
        observers = [
            TelemetryObserver(window=5),
            StructuredEventLog(),
            InvariantObserver(
                enforce=True, classes=BENCH_CLASSES, slos=BENCH_SLOS
            ),
            PerfObserver(),
            TraceObserver(),
            SloObserver(BENCH_SLOS, classes=BENCH_CLASSES),
        ]
        return serve(sla_spec(), observers=observers), observers

    # warm caches (qmin memoization, imports, observer setup) so all
    # timings are fair
    bare_run()
    telemetered_run()
    traced_run()

    # wall time as the min over repeats with the repeats
    # **interleaved**: timing all bare repeats in one block and all
    # observed repeats in another lets a slow patch of CI noise land
    # entirely on one side — that skew once measured a *negative*
    # telemetry overhead.  Alternating the repeats spreads jitter
    # across every side; quiescing the GC keeps collection pauses
    # (correlated with the observed sides' event allocations) out of
    # the minima.  Ratios compare minima *within* one attempt only —
    # machine speed drifts over seconds (frequency scaling,
    # co-tenants), so minima from different attempts are not
    # comparable — and the gate takes the best attempt of several: a
    # burst of contention can inflate a whole attempt, and one quiet
    # attempt is evidence about the code where six noisy ones are
    # evidence about the box.  Attempts stop early once both ratios
    # are safely inside their ceilings.
    state = {}

    def one_attempt():
        best = {"bare": math.inf, "telemetry": math.inf, "traced": math.inf}
        gc.collect()
        gc.disable()
        try:
            for _ in range(7):
                start = time.perf_counter()
                state["bare"] = bare_run()
                best["bare"] = min(
                    best["bare"], time.perf_counter() - start
                )
                start = time.perf_counter()
                state["telemetered"], state["observers"] = telemetered_run()
                best["telemetry"] = min(
                    best["telemetry"], time.perf_counter() - start
                )
                start = time.perf_counter()
                state["traced"], state["traced_observers"] = traced_run()
                best["traced"] = min(
                    best["traced"], time.perf_counter() - start
                )
        finally:
            gc.enable()
        return best

    def measured():
        state.clear()
        for _ in range(6):
            best = one_attempt()
            overhead = best["telemetry"] / best["bare"] - 1.0
            traced = best["traced"] / best["bare"] - 1.0
            if overhead < state.get("overhead", math.inf):
                state["overhead"] = overhead
                state["bare_s"] = best["bare"]
                state["telemetry_s"] = best["telemetry"]
            if traced < state.get("traced_overhead", math.inf):
                state["traced_overhead"] = traced
                state["traced_s"] = best["traced"]
            if (
                state["overhead"] < 0.8 * OVERHEAD_CEILING
                and state["traced_overhead"] < 0.8 * TRACED_CEILING
            ):
                break
        return dict(state)

    state = run_once(benchmark, measured)
    bare_seconds = state["bare_s"]
    telemetry_seconds = state["telemetry_s"]
    traced_seconds = state["traced_s"]
    bare, telemetered, traced = (
        state["bare"], state["telemetered"], state["traced"],
    )
    metrics, events, invariants, perf = state["observers"]
    tracer = state["traced_observers"][4]
    slo = state["traced_observers"][5]
    # best-attempt ratios (each paired with its own attempt's bare
    # minimum — the stored seconds may come from different attempts)
    overhead = state["overhead"]
    traced_overhead = state["traced_overhead"]

    print(
        f"\nbare {bare_seconds:.3f}s, full telemetry "
        f"{telemetry_seconds:.3f}s ({overhead * 100.0:+.2f}%), "
        f"+tracing+slo {traced_seconds:.3f}s "
        f"({traced_overhead * 100.0:+.2f}%)"
    )
    print(
        f"events={len(events.events)} windows={len(metrics.windows)} "
        f"violations={len(invariants.violations)} "
        f"traces={len(tracer.records())} "
        f"phase_seconds={perf.total_seconds:.3f}"
    )

    # --- the acceptance criterion ---------------------------------
    # not one result bit moved: summary, per-stream outcomes, rejects
    _assert_bit_identical(bare, telemetered)
    _assert_bit_identical(bare, traced)
    # enforcement mode ran clean: every invariant held
    assert invariants.violations == []
    # the event log is live and round-trips losslessly
    assert len(events.events) > 50
    assert parse_events(events.to_jsonl()) == events.events
    # the trace log covers every session and round-trips losslessly
    assert len(tracer.records()) == (
        traced.served_count + traced.rejected_count
    )
    assert tuple(parse_traces(tracer.to_jsonl())) == tracer.records()
    # the SLO engine evaluated the declared objective
    reports = slo.reports()
    assert [r.name for r in reports] == ["gold-quality"]
    # windows closed and phases timed
    assert len(metrics.windows) >= 2
    assert perf.total_seconds > 0
    # the wall-time criteria
    assert overhead < OVERHEAD_CEILING, (
        f"telemetry overhead {overhead:.2%} >= {OVERHEAD_CEILING:.0%}"
    )
    assert traced_overhead < TRACED_CEILING, (
        f"traced overhead {traced_overhead:.2%} >= {TRACED_CEILING:.0%}"
    )

    write_bench_trajectory("obs", {
        "bare_seconds": round(bare_seconds, 4),
        "telemetry_seconds": round(telemetry_seconds, 4),
        "traced_seconds": round(traced_seconds, 4),
        "overhead_ratio": round(overhead, 4),
        "tracing_overhead_ratio": round(traced_overhead, 4),
        "events": len(events.events),
        "traces": len(tracer.records()),
        "windows": len(metrics.windows),
        "invariant_violations": len(invariants.violations),
        "invariants_enforced": sorted(
            inv.name for inv in invariants.invariants
        ),
        "slo_budget_remaining": round(reports[0].budget_remaining, 4),
        "served": telemetered.summary()["served"],
        "rejected": telemetered.summary()["rejected"],
        "mean_quality": round(telemetered.summary()["mean_quality"], 4),
    })
