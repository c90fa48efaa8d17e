"""Windowed serving metrics: counters, gauges, histograms, tumbling windows.

:class:`TelemetryObserver` turns the runners' lifecycle hooks into the
continuous signals the long-horizon work (autoscaling, capacity
planning) needs: per-window acceptance, mean/min delivered quality,
per-class Jain fairness, mean headroom, and renegotiation density over
**tumbling windows** of scheduling rounds.  Everything is queryable
mid-run — ``current()`` summarizes the in-progress window, ``windows``
holds every closed one — and totals accumulate in a small
:class:`MetricsRegistry` of named instruments.

The observer only *reads* hook payloads; like every
:class:`~repro.serving.observers.RoundObserver` it is never read back
by a runner, so attaching it cannot change a run's results
(``tests/obs/test_obs_equivalence.py`` asserts bit-identity).
"""

from __future__ import annotations

import math

from repro.analysis.metrics import jain_fairness_index
from repro.errors import ConfigurationError
from repro.serving.observers import RoundObserver


class Counter:
    """A monotonically increasing count (events, streams, rounds)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-written value (current round, last pool capacity)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = math.nan

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming count/mean/min/max over observed samples.

    Deliberately bucket-free: the windows already give time locality,
    so the registry only needs cheap whole-run moments.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        if math.isnan(value):
            return
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": None if self.count == 0 else self.mean,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
        }


class MetricsRegistry:
    """Named instruments, one namespace per kind, create-on-first-use."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # get-then-create, not setdefault: these run on every lifecycle
    # hook, and setdefault would allocate a throwaway instrument per
    # call once the name exists
    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name)
        return instrument

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument (JSON-safe)."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {
                n: (None if math.isnan(g.value) else g.value)
                for n, g in sorted(self.gauges.items())
            },
            "histograms": {
                n: h.to_dict() for n, h in sorted(self.histograms.items())
            },
        }


class TelemetryObserver(RoundObserver):
    """Tumbling-window serving metrics over the observer hooks.

    Parameters
    ----------
    window:
        Window length in scheduling rounds.  Window ``k`` covers rounds
        ``[k * window, (k + 1) * window)``; a window closes the moment
        any hook reports a round at or past its end, so ``windows`` is
        always consistent mid-run.

    Per closed window (see :meth:`current` for the field list): stream
    decisions (admitted / rejected / preempted / departed), acceptance,
    renegotiation density (steps per round — the scale-up pressure
    signal), mean/min departed quality, per-class Jain fairness over
    departures, mean per-pool headroom and overall utilization (the
    scale-down signal).
    """

    def __init__(self, window: int = 50):
        if not isinstance(window, int) or isinstance(window, bool) or window < 1:
            raise ConfigurationError(
                f"window must be an integer >= 1, got {window!r}"
            )
        self.window = window
        self.registry = MetricsRegistry()
        self.windows: list[dict] = []
        self._index = 0
        self._acc = self._fresh()
        self._closed = False
        # stream -> class name, learned at admission; renegotiation
        # hooks only carry the stream id, so per-class densities (the
        # SLA-weighted scale trigger) need this whole-run map
        self._class_of: dict[str, str] = {}
        # instruments resolved once: every hook fires per round (or per
        # stream event), so per-hook registry lookups are pure overhead
        reg = self.registry
        self._round_gauge = reg.gauge("round")
        self._c_pool_rounds = reg.counter("pool_rounds")
        self._c_admitted = reg.counter("admitted")
        self._c_rejected = reg.counter("rejected")
        self._c_preempted = reg.counter("preempted")
        self._c_migrations = reg.counter("migrations")
        self._c_renegotiations = reg.counter("renegotiations")
        self._c_reneg_up = reg.counter("renegotiations_up")
        self._c_reneg_down = reg.counter("renegotiations_down")
        self._c_departed = reg.counter("departed")
        self._c_capacity_events = reg.counter("capacity_events")
        self._c_scale_actions = reg.counter("scale_actions")
        self._h_headroom = reg.histogram("headroom")
        self._h_departure_quality = reg.histogram("departure_quality")

    # ------------------------------------------------------------------
    # window bookkeeping
    # ------------------------------------------------------------------

    def _fresh(self) -> dict:
        return {
            # distinct rounds tracked monotonically (hooks arrive in
            # round order; a shard re-reporting the same round must not
            # double-count), cheaper than a per-window set
            "round_count": 0,
            "last_round": -1,
            "pool_rounds": 0,
            "capacity": 0.0,
            "granted": 0.0,
            "headroom": 0.0,
            "peak_streams": 0,
            "admitted": 0,
            "rejected": 0,
            "preempted": 0,
            "departed": 0,
            "renegotiations": 0,
            "renegotiations_up": 0,
            "renegotiations_down": 0,
            "class_renegotiations": {},
            "scale_actions": 0,
            "class_quality": {},
        }

    def _bump(self, round_index: int) -> None:
        """Close every window that ends at or before ``round_index``."""
        self._closed = False
        while round_index >= (self._index + 1) * self.window:
            self.windows.append(self._summarize())
            self._index += 1
            self._acc = self._fresh()
        self._round_gauge.value = round_index

    def _summarize(self) -> dict:
        acc = self._acc
        rounds = acc["round_count"]
        decided = acc["admitted"] + acc["rejected"]
        qualities = [
            q for qs in acc["class_quality"].values() for q in qs
            if not math.isnan(q)
        ]
        class_means = [
            sum(qs) / len(qs)
            for qs in (
                [q for q in qs if not math.isnan(q)]
                for qs in acc["class_quality"].values()
            )
            if qs
        ]
        return {
            "window": self._index,
            "start_round": self._index * self.window,
            "end_round": (self._index + 1) * self.window,
            "rounds": rounds,
            "admitted": acc["admitted"],
            "rejected": acc["rejected"],
            "preempted": acc["preempted"],
            "departed": acc["departed"],
            "renegotiations": acc["renegotiations"],
            "peak_streams": acc["peak_streams"],
            "acceptance": acc["admitted"] / decided if decided else 1.0,
            "renegotiation_density": (
                acc["renegotiations"] / rounds if rounds else 0.0
            ),
            "renegotiations_up": acc["renegotiations_up"],
            "renegotiations_down": acc["renegotiations_down"],
            "renegotiation_density_by_class": {
                name: count / rounds if rounds else 0.0
                for name, count in sorted(acc["class_renegotiations"].items())
            },
            "scale_actions": acc["scale_actions"],
            "mean_quality": (
                sum(qualities) / len(qualities) if qualities else None
            ),
            "min_quality": min(qualities) if qualities else None,
            "fairness_per_class": (
                jain_fairness_index(class_means) if class_means else None
            ),
            "mean_headroom": (
                acc["headroom"] / acc["pool_rounds"]
                if acc["pool_rounds"]
                else None
            ),
            "utilization": (
                acc["granted"] / acc["capacity"] if acc["capacity"] else None
            ),
        }

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------

    def on_round(self, round_index, allocations, capacity, shard_id=None):
        self._bump(round_index)
        acc = self._acc
        granted = sum(allocations.values()) if allocations else 0.0
        if round_index != acc["last_round"]:
            acc["last_round"] = round_index
            acc["round_count"] += 1
        acc["pool_rounds"] += 1
        acc["capacity"] += capacity
        acc["granted"] += granted
        acc["headroom"] += capacity - granted
        if len(allocations) > acc["peak_streams"]:
            acc["peak_streams"] = len(allocations)
        self._c_pool_rounds.value += 1
        self._h_headroom.observe(capacity - granted)

    def on_admit(self, spec, round_index, shard_id=None):
        self._bump(round_index)
        self._acc["admitted"] += 1
        self._class_of[spec.name] = (
            spec.service_class if spec.service_class is not None else "unclassed"
        )
        self._c_admitted.value += 1

    def on_reject(self, spec, round_index, shard_id=None):
        self._bump(round_index)
        self._acc["rejected"] += 1
        self._c_rejected.value += 1

    def on_preempt(self, spec, round_index, shard_id=None):
        self._bump(round_index)
        self._acc["preempted"] += 1
        self._c_preempted.value += 1

    def on_migrate(self, move, round_index):
        self._bump(round_index)
        self._c_migrations.value += 1

    def on_renegotiate(
        self, stream_id, old_target, new_target, round_index, shard_id=None
    ):
        self._bump(round_index)
        acc = self._acc
        acc["renegotiations"] += 1
        # the direction matters to a capacity controller: down-steps are
        # degradation under pressure, up-steps are headroom-driven
        # recovery (PR-4's scale signals)
        direction = "renegotiations_up" if new_target > old_target else (
            "renegotiations_down"
        )
        acc[direction] += 1
        key = self._class_of.get(stream_id, "unclassed")
        acc["class_renegotiations"][key] = (
            acc["class_renegotiations"].get(key, 0) + 1
        )
        self._c_renegotiations.value += 1
        if new_target > old_target:
            self._c_reneg_up.value += 1
        else:
            self._c_reneg_down.value += 1

    def on_depart(self, outcome, round_index, shard_id=None):
        self._bump(round_index)
        acc = self._acc
        acc["departed"] += 1
        key = (
            outcome.spec.service_class
            if outcome.spec.service_class is not None
            else "unclassed"
        )
        quality = outcome.result.mean_quality()
        acc["class_quality"].setdefault(key, []).append(quality)
        self._c_departed.value += 1
        self._h_departure_quality.observe(quality)

    def on_capacity(self, capacity, round_index, shard_id=None):
        self._bump(round_index)
        self._c_capacity_events.value += 1

    def on_scale(self, action, round_index):
        self._bump(round_index)
        self._acc["scale_actions"] += 1
        self._c_scale_actions.value += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def current(self) -> dict:
        """Summary of the in-progress (not yet closed) window."""
        return self._summarize()

    def snapshot(self) -> dict:
        """Everything, JSON-safe: closed windows, the live window, and
        the registry's whole-run totals."""
        return {
            "window_rounds": self.window,
            "windows": list(self.windows),
            "current": self.current(),
            "totals": self.registry.snapshot(),
        }

    def close(self) -> None:
        """Flush the final partial window (:func:`repro.serve` calls
        this when the run completes).  Idempotent."""
        if self._closed:
            return
        acc = self._acc
        if acc["round_count"] or acc["admitted"] or acc["rejected"]:
            final = self._summarize()
            final["end_round"] = (
                acc["last_round"] + 1
                if acc["round_count"]
                else final["end_round"]
            )
            self.windows.append(final)
            self._index += 1
            self._acc = self._fresh()
        self._closed = True
