"""SLA-aware capacity arbitration: class-weighted shares, class targets.

Both arbiters subclass :class:`~repro.streams.arbiter.CapacityArbiter`,
so they inherit the two serving invariants the whole substrate relies
on — grants sum to exactly the offered capacity, and every active
stream receives at least ``floor_share`` of its equal share — for
*arbitrary* class weight vectors (asserted by
``tests/property/test_sla_arbiter_properties.py``).  Class weights
only shape how the **surplus** above the floor is steered, which is
exactly Changuel et al.'s class-weighted quality share on top of the
paper's per-stream guarantees.

* :class:`SlaWeightedArbiter` — surplus proportional to
  ``class_weight * stream_weight * demand``: pure tier pricing, blind
  to delivered quality;
* :class:`SlaQualityFairArbiter` — surplus proportional to
  ``class_weight * stream_weight * demand * deficit^pressure`` where
  the deficit is measured against the stream's **own quality target**
  (its class contract, possibly renegotiated down mid-stream).  A gold
  stream below its 0.85 target out-pulls a bronze stream below its
  0.5 target twice over — once through the class weight, once through
  the larger deficit — which is what holds gold at target under
  overload while bronze degrades gracefully.
"""

from __future__ import annotations

import math

from repro.sla.classes import class_of, resolve_classes
from repro.streams.arbiter import (
    CapacityArbiter,
    CapacityRequest,
    QualityFairArbiter,
)


class SlaWeightedArbiter(CapacityArbiter):
    """Demand-proportional service scaled by class weight."""

    name = "sla-weighted"

    def __init__(self, floor_share: float = 0.25, classes=None) -> None:
        super().__init__(floor_share=floor_share)
        self.classes = resolve_classes(classes)

    def _surplus_shares(self, requests: list[CapacityRequest]) -> list[float]:
        return [
            class_of(self.classes, r.service_class).weight * r.weight * r.demand
            for r in requests
        ]


class SlaQualityFairArbiter(QualityFairArbiter):
    """Steer surplus toward streams furthest below their class target.

    The per-stream target is ``request.target_quality`` when the
    session reports one (sessions of classed streams carry their
    current — possibly renegotiated — target); otherwise the class's
    declared ``target_quality`` from this arbiter's catalog.  Streams
    at or above target still pull ``deficit_margin`` worth of surplus,
    scaled by class weight, so nobody flatlines at the floor.
    """

    name = "sla-quality-fair"

    def __init__(
        self, floor_share: float = 0.25, pressure: float = 2.0, classes=None,
    ) -> None:
        super().__init__(floor_share=floor_share, pressure=pressure)
        self.classes = resolve_classes(classes)

    def _surplus_shares(self, requests: list[CapacityRequest]) -> list[float]:
        shares = []
        for r in requests:
            cls = class_of(self.classes, r.service_class)
            target = (
                r.target_quality
                if not math.isnan(r.target_quality)
                else cls.target_quality
            )
            quality = 0.0 if math.isnan(r.recent_quality) else r.recent_quality
            deficit = max(0.0, target - quality) + self.deficit_margin
            shares.append(
                cls.weight * r.weight * r.demand * deficit**self.pressure
            )
        return shares
