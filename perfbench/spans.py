"""Layer spans recorded from outside the program.

:class:`Tracer` wraps public functions and methods of each layer at the
name its caller resolves (``repro.streams.session.scalar_decide``,
``repro.engine.vectorized.batch_decide``, ``StreamSession.finish_round``
...).  Each call records a span ``[name, start, end, parent]``; spans
stay in memory until the run ends.  A span's self time is its duration
minus the durations of its direct children.  A call nested directly
inside a span of the same name (a ``super()`` chain) opens no new span.

Only the benchmark process is patched, and :meth:`Tracer.uninstall`
puts every original object back (:meth:`Tracer.restored` checks it).
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

#: Observer classes whose hooks count as observer time, by layer name.
OBSERVER_LAYERS = (
    ("repro.obs.metrics", "TelemetryObserver", "obs.telemetry"),
    ("repro.obs.events", "StructuredEventLog", "obs.events"),
    ("repro.obs.invariants", "InvariantObserver", "obs.invariants"),
    ("repro.obs.tracing", "TraceObserver", "obs.trace"),
    ("repro.obs.slo", "SloObserver", "obs.slo"),
)

ROOT = "serving.unattributed"


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: counters filled by per-call hooks (lanes, accepted offers ...)
        self.counts: dict[str, float] = defaultdict(float)
        #: ids of the autoscalers' private telemetry observers
        self.autoscaler_observers: set[int] = set()
        self._patches: list[tuple] = []
        self.installed = False

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """``fn`` recording one span per call.

        ``name`` is a string or a function of the call's arguments;
        ``after(args, result)`` runs once the span has closed.
        """
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            if stack and spans[stack[-1]][0] == label:
                return fn(*args, **kwargs)
            record = [label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def root(self, fn, *args, **kwargs):
        """Call ``fn`` inside the root span; its self time is the part
        of the call no wrapped layer accounts for."""
        return self.wrap(ROOT, fn)(*args, **kwargs)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans = list(self.spans)
        self.spans.clear()
        return spans

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------

    def _targets(self):
        """``(owner, attribute, name, after)`` for every wrapped callable."""
        import importlib

        import repro.engine.vectorized as vectorized
        import repro.serving.runner as serving_runner
        import repro.sim.runner as sim_runner
        import repro.streams.admission as admission
        import repro.streams.session as session
        from repro.cluster.migration import MigrationPolicy
        from repro.cluster.placement import PlacementPolicy
        from repro.cluster.runner import HeadroomBalancer
        from repro.cluster.shard import Shard
        from repro.horizon.autoscaler import Autoscaler, SignalAutoscaler
        from repro.horizon.sources import OpenEndedScenario
        from repro.sla.renegotiation import StepRenegotiation
        from repro.streams.admission import AdmissionController, AdmissionDecision
        from repro.streams.arbiter import CapacityArbiter
        from repro.streams.session import StreamSession
        from repro.video.encoder_model import AnalyticEncoder

        counts = self.counts
        bank_info = session.bank_for.cache_info
        seen = [bank_info().misses]

        def count_bank(args, bank):
            misses = bank_info().misses
            if misses != seen[0]:
                seen[0] = misses
                counts["engine.bank.bytes"] += sum(
                    getattr(bank, slot).nbytes
                    for slot in ("grab", "me", "post", "grab_plus", "me_plus")
                )

        def count_lanes(args, timings):
            counts["engine.kernel.batch.lanes"] += len(args[4])

        def count_offer(args, verdict):
            if verdict.decision is AdmissionDecision.ACCEPTED:
                counts["streams.admission.accepted"] += 1

        def remember_autoscaler_observer(args, observer):
            if observer is not None:
                self.autoscaler_observers.add(id(observer))

        targets = [
            (serving_runner, "build_scenario", "serving.build", None),
            (serving_runner, "build_runner", "serving.build", None),
            (serving_runner, "build_observers", "serving.build", None),
            (sim_runner, "simulation_for", "sim.simulation_for", None),
            (session, "simulation_for", "sim.simulation_for", None),
            (admission, "simulation_for", "sim.simulation_for", None),
            (admission, "qmin_completions", "streams.admission.qmin", None),
            (session, "bank_for", "engine.bank", count_bank),
            (session, "scalar_decide", "engine.kernel.scalar", None),
            (vectorized, "scalar_decide", "engine.kernel.scalar", None),
            (vectorized, "batch_decide", "engine.kernel.batch", count_lanes),
            (vectorized, "step_sessions", "engine.vectorized.dispatch", None),
            (AdmissionController, "offer", "streams.admission.offer", count_offer),
            (StreamSession, "step", "streams.session.step", None),
            (StreamSession, "finish_round", "streams.session.signal", None),
            (AnalyticEncoder, "encode_frame", "video.encode_frame", None),
            (CapacityArbiter, "allocate", "streams.arbiter.allocate", None),
            (Shard, "step", "cluster.shard.step", None),
            (PlacementPolicy, "choose", "cluster.placement.choose", None),
            (HeadroomBalancer, "effective_capacities", "cluster.balancer", None),
            (OpenEndedScenario, "arrivals_at", "horizon.arrivals", None),
            (SignalAutoscaler, "observer", "horizon.autoscaler.plan",
             remember_autoscaler_observer),
        ]
        targets += [
            (cls, "plan", "cluster.migration.plan", None)
            for cls in _subclasses(MigrationPolicy)
            if "plan" in cls.__dict__
        ]
        targets += [
            (cls, "plan", "horizon.autoscaler.plan", None)
            for cls in _subclasses(Autoscaler)
            if "plan" in cls.__dict__
        ]
        targets += [
            (StepRenegotiation, method, "sla.renegotiation", None)
            for method in ("starved", "headroom", "step_down", "step_up")
        ]
        for module_name, class_name, layer in OBSERVER_LAYERS:
            cls = getattr(importlib.import_module(module_name), class_name)
            if class_name == "TelemetryObserver":
                # the autoscaler's private telemetry is horizon work
                autoscaler_ids = self.autoscaler_observers

                def layer(args, _ids=autoscaler_ids):
                    if id(args[0]) in _ids:
                        return "horizon.autoscaler.signal"
                    return "obs.telemetry"

            targets += [
                (cls, attr, layer, None)
                for attr in sorted(cls.__dict__)
                if (attr.startswith("on_") and attr != "on_phase")
                or attr == "close"
            ]
        return targets

    def install(self) -> None:
        """Wrap every target (idempotent; wrappers are built once)."""
        if self.installed:
            return
        if not self._patches:
            for owner, attr, name, after in self._targets():
                original = (
                    owner.__dict__[attr]
                    if isinstance(owner, type)
                    else getattr(owner, attr)
                )
                wrapper = self.wrap(name, original, after)
                self._patches.append((owner, attr, original, wrapper))
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        """Put every original object back."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self.installed = False

    def restored(self) -> list[str]:
        """Names still pointing at a wrapper (empty when all restored)."""
        wrong = []
        for owner, attr, original, _ in self._patches:
            current = (
                owner.__dict__.get(attr)
                if isinstance(owner, type)
                else getattr(owner, attr)
            )
            if current is not original:
                wrong.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return wrong


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one recorded span adds to a call: a wrapped no-op
    against the bare one, each the fastest of ``repeats`` loops."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("calibration", noop)
    best = {noop: float("inf"), traced: float("inf")}
    for _ in range(repeats):
        for fn in best:
            start = perf_counter()
            for _ in range(calls):
                fn()
            best[fn] = min(best[fn], perf_counter() - start)
            tracer.spans.clear()
    return (best[traced] - best[noop]) / calls


def self_times(spans: list[list]) -> tuple[dict, dict, float]:
    """Per-name self seconds, per-name call counts, and the root span's
    duration (the sum the self times must add up to)."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    wall = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        seconds[name] += (end - start) - child[index]
        calls[name] += 1
        if parent < 0:
            wall += end - start
    return dict(seconds), dict(calls), wall


def accounting_errors(spans: list[list]) -> list[str]:
    """Span-tree consistency: every span closed after it opened and
    inside its parent, and the self times sum to the root wall time."""
    errors = []
    for name, start, end, parent in spans:
        if end < start:
            errors.append(f"{name}: ends before it starts")
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                errors.append(f"{name}: outside its parent span")
    seconds, _, wall = self_times(spans)
    total = sum(seconds.values())
    if abs(total - wall) > 1e-9 * max(1.0, len(spans)):
        errors.append(f"self times sum to {total!r}, root wall is {wall!r}")
    return errors[:10]
