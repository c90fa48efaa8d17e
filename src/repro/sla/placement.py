"""SLA-aware placement: premium streams get comfort, best-effort packs.

Placement is the cluster's first SLA decision: *where* an arrival
lands fixes both whether it is admitted and how big its arbitrated
share can ever get.  :class:`SlaPlacement` splits the catalog at
``premium_priority``:

* **premium** arrivals (admission priority at or above the threshold —
  gold, and silver by default) take the accepting shard with the
  largest *projected per-stream share* (the predictive criterion), so
  a gold stream is never wedged into a nearly-full shard merely
  because it fits;
* **best-effort** arrivals pack best-fit style (tightest accepting
  headroom), preserving the big holes — and the comfortable shares —
  for the premium tiers.

Both halves fall back through the same tiers as best-fit when no
shard accepts immediately (most headroom among feasible-alone shards,
else least loaded).
"""

from __future__ import annotations

from repro.cluster.placement import (
    BestFitPlacement,
    PlacementPolicy,
    PredictivePlacement,
)
from repro.cluster.shard import Shard
from repro.sla.classes import class_of, resolve_classes
from repro.streams.scenarios import StreamSpec


class SlaPlacement(PlacementPolicy):
    """Class-split routing: share-seeking for premium, packing below.

    Parameters
    ----------
    classes:
        Service-class catalog (``None`` = standard gold/silver/bronze).
    """

    name = "sla-aware"

    #: admission priority from which an arrival routes by share: in the
    #: standard catalog gold and silver, not bronze or unclassed (0)
    premium_priority = 1

    def __init__(self, classes=None) -> None:
        self.classes = resolve_classes(classes)
        self._premium = PredictivePlacement()
        self._packer = BestFitPlacement()

    def _choose(
        self, spec: StreamSpec, shards: list[Shard], round_index: int
    ) -> Shard:
        cls = class_of(self.classes, spec.service_class)
        if cls.admission_priority >= self.premium_priority:
            return self._premium._choose(spec, shards, round_index)
        return self._packer._choose(spec, shards, round_index)
