"""In-process measurement of one workload through ``repro.serve``.

Importing this module imports ``repro``, so the orchestrator imports it
only once the cold-start subprocesses have finished.  Load comes from
this one thread: one ``serve()`` at a time.

A shared host changes speed by tens of percent over seconds.  Two
things keep the figures steady.  Serves and rounds are timed on
:data:`CLOCK`, the CPU time of the serving thread, so time the thread
spends descheduled (other processes, a virtual CPU's steal) does not
count; for this single-threaded, CPU-bound load it equals the wall time
on an idle host.  And every timed ``serve()`` of a run serves the same
spec, so each round is timed as the fastest of its repeats: the run's
figures describe the host at its least disturbed.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import traceback
from time import perf_counter, process_time, thread_time

from repro.obs import InvariantObserver, InvariantViolationError, StructuredEventLog
from repro.serving import RoundObserver, ServingSpec, serve

from perfbench.metrics import SETUP_SPANS, WARM_CALLS, WARM_SPANS
from perfbench.spans import Tracer, accounting_errors, self_times, span_cost

#: The clock of every timed serve and round: CPU seconds of this thread.
CLOCK = thread_time

#: Serves a timed loop makes at least, whatever ``--seconds`` says.
MIN_SERVES = 3


class CheckFailed(Exception):
    """The correctness check failed, so nothing may be measured."""


class RoundTimer(RoundObserver):
    """Host time (:data:`CLOCK`) and streams served per serving round.

    Timestamps only the first ``on_round`` of each round index (a
    cluster fires one per shard); a round's time is the gap to the next
    round's stamp.  ``streams`` holds each stamped round's stream count,
    summed over its shards.
    """

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.streams: list[int] = []
        self._last = None

    def on_round(self, round_index, allocations, capacity, shard_id=None):
        if round_index != self._last:
            self._last = round_index
            self.stamps.append(CLOCK())
            self.streams.append(0)
        self.streams[-1] += len(allocations)

    def gaps_ms(self) -> list[float]:
        return [(b - a) * 1e3 for a, b in zip(self.stamps, self.stamps[1:])]


# ----------------------------------------------------------------------
# outputs
# ----------------------------------------------------------------------


def fingerprint(result) -> str:
    """The run's summary plus full-precision QoS figures, as JSON text.

    Two runs agree when these strings are byte-identical."""
    summary = result.summary()
    summary.update(
        exact_mean_quality=result.mean_quality(),
        exact_mean_psnr=result.mean_psnr(),
        exact_fairness_quality=result.fairness_quality(),
        exact_acceptance_ratio=result.acceptance_ratio,
    )
    return json.dumps(summary, sort_keys=True)


def sim_metrics(result) -> dict[str, float]:
    """The simulated QoS outcomes (repeat exactly for a seed)."""
    frames = result.total_frames()
    return {
        "mean_quality": result.mean_quality(),
        "mean_psnr_db": result.mean_psnr(),
        "fairness_quality": result.fairness_quality(),
        "acceptance_ratio": result.acceptance_ratio,
        "deadline_met_ratio": 1.0 - result.total_deadline_misses() / frames,
        "encoded_ratio": 1.0 - result.total_skips() / frames,
    }


def cache_misses() -> dict[str, int]:
    """Miss counters of the per-stream and per-shape caches."""
    from repro.engine.bank import bank_for
    from repro.engine.kernel import decision_kernel
    from repro.sim.encoder_loop import compiled_controller
    from repro.sim.runner import _simulation
    from repro.streams.admission import qmin_completions

    caches = {
        "bank_for": bank_for,
        "decision_kernel": decision_kernel,
        "compiled_controller": compiled_controller,
        "qmin_completions": qmin_completions,
        "simulation": _simulation,
    }
    misses = {}
    for name, fn in caches.items():
        while not hasattr(fn, "cache_info"):  # a tracing wrapper
            fn = fn.__wrapped__
        misses[name] = fn.cache_info().misses
    return misses


def cold_start(document: dict, started: float) -> dict:
    """The first and second ``serve()`` in a fresh interpreter.

    ``started`` is ``process_time()`` read before ``import repro``; the
    first ``serve()`` fills every lazy cache, so its CPU time including
    the import, minus the second (warm) serve's, is the set-up cost.
    Both serves run in the same stretch of the host's speed, so the
    difference does not depend on how fast the host was then compared
    with the timed loop.
    """
    import resource

    result = serve(document)
    cold_s = process_time() - started
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    start = process_time()
    again = serve(document)
    return {
        "setup_s": cold_s - (process_time() - start),
        "rss_mb": rss_mb,
        "fingerprints": [fingerprint(result), fingerprint(again)],
    }


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------


def check(document: dict, other_engine: str):
    """Serve once under the event log and enforce-mode invariants, then
    on ``other_engine``; returns ``(result, fingerprint, problems)``.

    The two engines must agree byte for byte on the summary and on the
    JSONL event log.
    """
    spec = ServingSpec.from_dict(document)

    def watched(doc):
        log = StructuredEventLog()
        invariants = InvariantObserver(
            enforce=True, classes=spec.service_classes, slos=spec.slos
        )
        result = serve(doc, observers=[log, invariants])
        return result, log.to_jsonl()

    try:
        result, log = watched(document)
        other, other_log = watched({**document, "engine": other_engine})
    except InvariantViolationError as error:
        raise CheckFailed(f"invariant violated: {error}") from error
    problems = []
    expected = fingerprint(result)
    if fingerprint(other) != expected:
        problems.append(f"{other_engine} engine summary differs")
    if other_log != log:
        problems.append(f"{other_engine} engine event log differs")
    return result, expected, problems


# ----------------------------------------------------------------------
# the timed loop
# ----------------------------------------------------------------------


def _timed_serve(document, expected, call=serve):
    """One timed ``serve()``.

    Returns ``(seconds, frames, segment times, streams per round)``,
    timed on :data:`CLOCK`, or ``None`` when the
    serve raised or its outputs differ from ``expected`` (a failed
    operation).
    """
    gc.collect()
    timer = RoundTimer()
    start = CLOCK()
    try:
        result = call(document, observers=[timer])
    except Exception:  # a failed operation, reported and counted
        traceback.print_exc(file=sys.stderr)
        return None
    end = CLOCK()
    if fingerprint(result) != expected:
        return None
    # the serve's own start and end bracket the rounds, so the segments
    # add up to the serve's time (the first and last are not rounds)
    timer.stamps = [start, *timer.stamps, end]
    return end - start, result.total_frames(), timer.gaps_ms(), timer.streams


def timed_loop(
    document: dict, expected: str, seconds: float, interludes=()
) -> dict:
    """Warm ``serve()`` calls for ``seconds`` with a round timer attached.

    The seconds are split into one stretch before each of
    ``interludes`` (untimed callables) and one after the last, so the
    timed serves sample the host across the whole run rather than one
    stretch of it: the host's speed drifts over tens of seconds.
    """
    gaps: list[list[float]] = []
    frames = 0
    streams: list[int] = []
    attempted = failed = 0
    stretches = len(interludes) + 1
    for index in range(stretches):
        start = perf_counter()
        served = 0
        while (
            served < -(-MIN_SERVES // stretches)
            or perf_counter() - start < seconds / stretches
        ):
            served += 1
            timed = _timed_serve(document, expected)
            if timed is None:
                failed += 1
                continue
            _, frames, segments, streams = timed
            gaps.append(segments)
        attempted += served
        if index < len(interludes):
            interludes[index]()
    return {
        "frames": frames,
        "gaps": gaps,
        "streams": streams,
        "attempted": attempted,
        "failed": failed,
    }


def segment_times(gaps: list[list[float]]) -> list[float]:
    """Each segment's host time (ms): the fastest of the run's repeats
    of that same segment.  Every repeat serves the same spec, so this
    filters out interference from the host, segment by segment.  The
    first segment runs from the ``serve()`` call to round 0, the last
    from the last round to the return; the others are rounds."""
    return [min(samples) for samples in zip(*gaps)]


def round_quantiles(segments: list[float]) -> tuple[float, float]:
    """Median and p95 over the rounds (ms)."""
    rounds = segments[1:-1]
    cuts = statistics.quantiles(rounds, n=100)
    return statistics.median(rounds), cuts[94]


def stream_round_quantiles(
    segments: list[float], streams: list[int]
) -> tuple[float, float]:
    """Median and p95 (us) of the host time per stream-round.

    Each round's time is split evenly over the streams it served, and
    every stream-round is one sample, so a round weighs as much as the
    streams in it.  Unlike the plain round time, this does not grow
    with the number of streams a seed's arrivals happen to keep
    active.  ``streams[k]`` belongs to round segment ``k``; rounds that
    served no stream have no samples.
    """
    samples = sorted(
        (ms * 1e3 / count, count)
        for ms, count in zip(segments[1:-1], streams[1:])
        if count
    )
    total = sum(count for _, count in samples)

    def quantile(q: float) -> float:
        seen = 0
        for value, count in samples:
            seen += count
            if seen >= q * total:
                return value

    return quantile(0.5), quantile(0.95)


def measure(
    document: dict, other_engine: str, seconds: float, interludes=()
) -> dict:
    """Correctness check, then the warm timed loop under the cache guard."""
    result, expected, problems = check(document, other_engine)
    before = cache_misses()
    loop = timed_loop(document, expected, seconds, interludes)
    after = cache_misses()
    missed = {k: after[k] - before[k] for k in before if after[k] != before[k]}
    if missed:
        problems.append(f"invalid measurement: cache misses during timed runs {missed}")
    return {
        "expected": expected,
        "sim": sim_metrics(result),
        "problems": problems,
        **loop,
    }


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------


def traced(document: dict, other_engine: str, seconds: float, spans_path) -> dict:
    """Per-layer metrics from a cold traced serve plus warm traced serves
    interleaved with untraced ones.  A warm layer figure is the median
    over the traced serves."""
    tracer = Tracer()
    before = cache_misses()
    tracer.install()
    cold_start_at = perf_counter()
    cold = tracer.root(serve, document, observers=[RoundTimer()])
    cold_wall = perf_counter() - cold_start_at
    tracer.uninstall()
    after = cache_misses()
    cold_spans = tracer.take()
    cold_counts = dict(tracer.counts)
    tracer.counts.clear()

    _, expected, problems = check(document, other_engine)
    if fingerprint(cold) != expected:
        problems.append("traced cold run differs from the checked run")
    problems += [f"cold trace: {e}" for e in accounting_errors(cold_spans)]

    warm_seconds: list[dict[str, float]] = []
    warm_calls: dict[str, int] = {}
    plain_walls: list[float] = []
    plain_gaps: list[list[float]] = []
    traced_walls: list[float] = []
    pair_ratios: list[float] = []
    span_counts: list[int] = []
    last_spans: list = []

    def traced_serve():
        nonlocal last_spans
        tracer.install()
        try:
            timed = _timed_serve(
                document, expected,
                call=lambda doc, observers: tracer.root(
                    serve, doc, observers=observers
                ),
            )
        finally:
            tracer.uninstall()
        spans = tracer.take()
        errors = accounting_errors(spans)
        problems.extend(f"warm trace: {e}" for e in errors)
        if timed is None or errors:
            return None
        last_spans = spans
        span_counts.append(len(spans))
        seconds_of, calls_of, _ = self_times(spans)
        warm_seconds.append(seconds_of)
        for name, value in calls_of.items():
            warm_calls[name] = warm_calls.get(name, 0) + value
        return timed[0]

    def plain_serve():
        timed = _timed_serve(document, expected)
        if timed is None:
            return None
        plain_gaps.append(timed[2])
        return timed[0]

    # interleaved pairs, alternating which side runs first
    pairs = failed = 0
    start = perf_counter()
    while pairs < MIN_SERVES or perf_counter() - start < seconds:
        order = (plain_serve, traced_serve) if pairs % 2 else (traced_serve, plain_serve)
        walls = {fn: fn() for fn in order}
        pairs += 1
        plain, traced_wall = walls[plain_serve], walls[traced_serve]
        failed += (plain is None) + (traced_wall is None)
        if plain is not None:
            plain_walls.append(plain)
        if traced_wall is not None:
            traced_walls.append(traced_wall)
        if plain is not None and traced_wall is not None:
            pair_ratios.append(traced_wall / plain - 1.0)

    unrestored = tracer.restored()
    if unrestored:
        problems.append(f"wrapped names not restored: {unrestored}")

    serves = max(1, len(traced_walls))

    def warm(name):
        if not warm_seconds:
            return float("nan")
        return statistics.median(s.get(name, 0.0) for s in warm_seconds)

    warm_counts = dict(tracer.counts)
    cold_seconds, _, _ = self_times(cold_spans)
    setup_layers = sum(cold_seconds.get(name, 0.0) for name in SETUP_SPANS)
    per_span = span_cost()
    spans_per_serve = statistics.mean(span_counts) if span_counts else 0.0
    round_p50, round_p95 = (
        round_quantiles(segment_times(plain_gaps))
        if plain_gaps
        else (float("nan"), float("nan"))
    )
    layer = {
        "serving.round_p50_ms": round_p50,
        "serving.round_p95_ms": round_p95,
        "serving.build_s": warm("serving.build"),
        "sim.simulation_for.misses": after["simulation"] - before["simulation"],
        "sim.simulation_for.s": cold_seconds.get("sim.simulation_for", 0.0),
        "streams.admission.qmin.misses": (
            after["qmin_completions"] - before["qmin_completions"]
        ),
        "streams.admission.qmin.s": cold_seconds.get("streams.admission.qmin", 0.0),
        "streams.admission.accept_ratio": (
            warm_counts.get("streams.admission.accepted", 0.0)
            / max(1, warm_calls.get("streams.admission.offer", 0))
        ),
        "engine.bank.builds": after["bank_for"] - before["bank_for"],
        "engine.bank.s": cold_seconds.get("engine.bank", 0.0),
        "engine.bank.mb": cold_counts.get("engine.bank.bytes", 0.0) / 1e6,
        "engine.kernel.batch.lanes_mean": (
            warm_counts.get("engine.kernel.batch.lanes", 0.0)
            / max(1, warm_calls.get("engine.kernel.batch", 0))
        ),
        "serving.setup.cache_share": setup_layers / cold_wall,
        "cluster.migration.moves": len(getattr(cold.raw, "migrations", ())),
        "horizon.scale_actions": len(getattr(cold.raw, "scale_actions", ())),
        "trace.wall_s": (
            statistics.median(traced_walls) if traced_walls else float("nan")
        ),
        "trace.spans_per_serve": spans_per_serve,
        # the recorded spans times what one span costs a call, over the
        # untraced wall: resolvable even where the wall difference
        # below drowns in run-to-run noise
        "trace.overhead_ratio": (
            per_span * spans_per_serve / statistics.median(plain_walls)
            if plain_walls
            else float("nan")
        ),
        "trace.wall_overhead_ratio": (
            statistics.median(pair_ratios) if pair_ratios else float("nan")
        ),
    }
    for name in WARM_SPANS:
        layer[f"{name}.s"] = warm(name)
    for name in WARM_CALLS:
        layer[f"{name}.calls"] = warm_calls.get(name, 0) / serves
    if not layer["trace.overhead_ratio"] > 0:
        problems.append(
            f"invalid measurement: tracing overhead "
            f"{layer['trace.overhead_ratio']!r} is not positive"
        )

    with open(spans_path, "w") as handle:
        for label, spans in (("cold", cold_spans), ("warm", last_spans)):
            for name, begin, end, parent in spans:
                handle.write(json.dumps([label, name, begin, end, parent]) + "\n")
    return {
        "layer": layer,
        "problems": problems,
        "attempted": 1 + 2 * pairs,
        "failed": failed,
        "result": cold,
    }
