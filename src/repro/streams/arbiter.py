"""Capacity arbiters: how the shared processor budget is split per round.

Each scheduling round the fleet runner collects one
:class:`CapacityRequest` per active stream and asks the arbiter to
partition the shared capacity.  Every arbiter maintains two invariants
(asserted by tests):

* **conservation** — allocations sum to exactly the offered capacity
  (nothing is dropped, nothing invented), and
* **no starvation** — every active stream receives at least
  ``floor_share`` of its equal share, so a backlogged stream keeps
  draining even when the fairness logic points all surplus elsewhere.

Three policies are provided, mirroring the quality-fair budget
arbitration of Changuel et al. ("Control of Multiple Remote Servers for
Quality-Fair Delivery of Multimedia Contents"):

* :class:`EqualShareArbiter` — capacity / n each, ignoring demand;
* :class:`WeightedShareArbiter` — proportional to ``weight * demand``
  (a stream with twice the period needs twice the cycles per frame);
* :class:`QualityFairArbiter` — a floor plus a surplus steered toward
  the streams whose *recent delivered quality* is lowest, closing the
  quality gap that demand-blind splits open on heterogeneous mixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CapacityRequest:
    """One stream's per-round capacity request.

    ``demand`` is the cycles/round needed for dedicated-speed service;
    ``recent_quality`` is the normalized [0, 1] recent mean quality
    (nan until the stream has encoded its first frame).
    ``service_class`` and ``target_quality`` are the SLA signals (class
    name and the session's current — possibly renegotiated — normalized
    quality target); classless arbiters ignore both, so non-SLA runs are
    unaffected.
    """

    stream_id: str
    demand: float
    weight: float = 1.0
    recent_quality: float = math.nan
    service_class: str | None = None
    target_quality: float = math.nan

    def __post_init__(self) -> None:
        if self.demand <= 0:
            raise ConfigurationError("demand must be positive")
        if self.weight <= 0:
            raise ConfigurationError("weight must be positive")


class CapacityArbiter:
    """Base class: validates inputs, delegates the split, renormalizes."""

    name = "abstract"

    def __init__(self, floor_share: float = 0.25) -> None:
        if not 0.0 <= floor_share <= 1.0:
            raise ConfigurationError("floor_share must be in [0, 1]")
        self.floor_share = floor_share

    def allocate(
        self, requests: list[CapacityRequest], capacity: float
    ) -> dict[str, float]:
        """Partition ``capacity`` cycles across ``requests``."""
        if capacity < 0:
            raise ConfigurationError("capacity must be >= 0")
        if not requests:
            return {}
        ids = [r.stream_id for r in requests]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate stream ids in requests")
        floor = self.floor_share * capacity / len(requests)
        surplus = capacity - floor * len(requests)
        shares = self._surplus_shares(requests)
        total = sum(shares)
        if total <= 0:
            shares = [1.0] * len(requests)
            total = float(len(requests))
        return {
            r.stream_id: floor + surplus * share / total
            for r, share in zip(requests, shares)
        }

    def _surplus_shares(self, requests: list[CapacityRequest]) -> list[float]:
        raise NotImplementedError


class EqualShareArbiter(CapacityArbiter):
    """Everybody gets capacity / n — the naive demand-blind split."""

    name = "equal-share"

    def _surplus_shares(self, requests: list[CapacityRequest]) -> list[float]:
        return [1.0] * len(requests)


class WeightedShareArbiter(CapacityArbiter):
    """Proportional to ``weight * demand``.

    With unit weights this is demand-proportional service: every stream
    runs at the same *speed fraction*, whatever its period.
    """

    name = "weighted-share"

    def _surplus_shares(self, requests: list[CapacityRequest]) -> list[float]:
        return [r.weight * r.demand for r in requests]


class QualityFairArbiter(CapacityArbiter):
    """Steer surplus toward the streams with the lowest recent quality.

    Each stream's surplus share is ``weight * demand * deficit^pressure``
    where ``deficit = (1 - recent_quality) + deficit_margin`` in the
    normalized quality scale.  Streams that have not delivered a frame
    yet (nan quality) are treated as maximally deficient, so newcomers
    ramp up quickly.  ``pressure`` controls how aggressively quality
    gaps attract capacity (0 degenerates to the weighted arbiter).
    """

    name = "quality-fair"

    #: deficit every stream keeps even at full quality, so nobody
    #: flatlines at the floor
    deficit_margin = 0.05

    def __init__(
        self, floor_share: float = 0.25, pressure: float = 2.0
    ) -> None:
        super().__init__(floor_share=floor_share)
        if pressure < 0:
            raise ConfigurationError("pressure must be >= 0")
        self.pressure = pressure

    def _surplus_shares(self, requests: list[CapacityRequest]) -> list[float]:
        shares = []
        for r in requests:
            quality = 0.0 if math.isnan(r.recent_quality) else r.recent_quality
            deficit = max(0.0, 1.0 - quality) + self.deficit_margin
            shares.append(r.weight * r.demand * deficit**self.pressure)
        return shares


def make_arbiter(name: str, **kwargs) -> CapacityArbiter:
    """Arbiter factory by policy name.

    Thin alias of the serving layer's ``ARBITERS`` registry
    (:mod:`repro.serving.registry`), kept for existing callers — an
    arbiter registered with :func:`repro.serving.register_arbiter` is
    immediately constructible here too.  The import is deferred so the
    streams layer never depends on the serving package at import time.
    """
    from repro.serving.registry import ARBITERS

    return ARBITERS.create(name, **kwargs)
