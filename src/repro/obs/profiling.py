"""Controller-phase wall-time profiling via the ``on_phase`` hook.

The round loop times its control phases — ``admission``,
``migration`` and ``balancing`` per round, ``arbitration`` and
``step`` per pool — **only** when an attached observer overrides
``on_phase`` (:attr:`~repro.serving.observers.Hooks.timed`), so bare
runs never pay for a ``perf_counter`` read.  :class:`PerfObserver` is that override: it
accumulates per-phase call counts and wall time, answering "where does
the controller spend its budget" for the paper's claim that fine-grain
control stays cheap relative to the work it schedules.
"""

from __future__ import annotations

from repro.serving.observers import RoundObserver


class PerfObserver(RoundObserver):
    """Accumulates wall time per controller phase.

    Overriding ``on_phase`` is what switches phase timing on in every
    runner; the other hooks stay no-ops, so the only added work per
    round is a handful of ``perf_counter`` reads and dict updates.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.max_seconds: dict[str, float] = {}

    def on_phase(self, phase, seconds, round_index, shard_id=None):
        self.calls[phase] = self.calls.get(phase, 0) + 1
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        if seconds > self.max_seconds.get(phase, 0.0):
            self.max_seconds[phase] = seconds

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def breakdown(self) -> dict:
        """Per-phase totals, sorted by share of controller time."""
        total = self.total_seconds
        return {
            phase: {
                "calls": self.calls[phase],
                "seconds": self.seconds[phase],
                "mean_seconds": self.seconds[phase] / self.calls[phase],
                "max_seconds": self.max_seconds[phase],
                "share": self.seconds[phase] / total if total else 0.0,
            }
            for phase in sorted(
                self.seconds, key=lambda p: -self.seconds[p]
            )
        }

    def report(self) -> str:
        """The breakdown as an aligned text table."""
        from repro.analysis.report import _aligned_table

        rows = [
            [
                phase,
                str(stats["calls"]),
                f"{stats['seconds'] * 1e3:.2f}",
                f"{stats['mean_seconds'] * 1e6:.1f}",
                f"{stats['max_seconds'] * 1e6:.1f}",
                f"{stats['share'] * 100.0:.1f}%",
            ]
            for phase, stats in self.breakdown().items()
        ]
        return _aligned_table(
            ["phase", "calls", "total_ms", "mean_us", "max_us", "share"],
            rows,
        )
