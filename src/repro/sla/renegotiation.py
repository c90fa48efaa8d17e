"""Mid-stream renegotiation: step a session's quality target with load.

The paper's controller guarantees timing at whatever quality the
budget affords; the SLA contract adds a *target* the arbiter steers
toward.  Under sustained overload a session that keeps missing its
target only drags surplus away from streams that could still hold
theirs — renegotiation is the pressure valve: after ``patience``
consecutive starved rounds the session's target steps down by
``step`` (never below its class ``min_quality`` floor), and after
``recovery_patience`` consecutive rounds with dedicated-speed headroom
it steps back up (never above the class's contracted target).

A policy instance is **stateless and shared** across sessions — all
counters live in the :class:`~repro.streams.session.StreamSession` —
so one instance may serve a whole fleet (or every shard of a cluster)
and back-to-back runs replay bit-identically.  Each executed step is
reported by the runner through ``RoundObserver.on_renegotiate`` and
tallied per stream in the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class StepRenegotiation:
    """Step-down / step-up target renegotiation.

    Parameters
    ----------
    patience:
        Consecutive starved rounds (quality below target minus
        ``tolerance`` while granted less than dedicated speed) before
        a step down.
    recovery_patience:
        Consecutive headroom rounds (granted at least dedicated-speed
        demand) before a step back up.
    step:
        Normalized quality per renegotiation step.
    """

    patience: int = 3
    recovery_patience: int = 4
    step: float = 0.1
    #: dead band below the target that is not starvation: a seventh of
    #: a quality level, so EWMA jitter just under a met target is none
    tolerance: ClassVar[float] = 0.02

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ConfigurationError("patience must be >= 1")
        if self.recovery_patience < 1:
            raise ConfigurationError("recovery_patience must be >= 1")
        if not self.step > 0:
            raise ConfigurationError("step must be positive")

    def starved(self, quality: float, target: float, granted: float,
                demand: float) -> bool:
        """Is this round a starvation observation?"""
        return quality < target - self.tolerance and granted < demand

    def headroom(self, granted: float, demand: float) -> bool:
        """Is this round a recovery observation (dedicated speed met)?"""
        return granted >= demand

    def step_down(self, target: float, floor: float) -> float:
        return max(floor, target - self.step)

    def step_up(self, target: float, ceiling: float) -> float:
        return min(ceiling, target + self.step)
