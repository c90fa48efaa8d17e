"""SLA-aware migration: gold gets first claim on rebalancing headroom.

:class:`SlaMigration` is
:class:`~repro.cluster.migration.LoadBalanceMigration` with the claim
order made class-conscious.  The parent's guard rails are untouched —
moves only go where qmin is feasible, never within ``min_residency``
rounds of the last move, and at most ``max_moves_per_round`` active
moves per round (the PR-2 learnings against ping-pong) — but when the
round's migration headroom cannot rescue everyone:

* queued specs relocate toward immediate headroom
  **highest admission priority first** (FIFO within a class), so a
  waiting gold stream claims the open slot a bronze stream would have
  taken in plain queue rebalancing;
* quality-starved **active** sessions are considered for rescue in the
  same priority order, so the per-round move cap and the destination
  headroom go to gold before bronze.
"""

from __future__ import annotations

from repro.cluster.migration import LoadBalanceMigration
from repro.cluster.shard import Shard
from repro.sla.classes import class_of, resolve_classes


class SlaMigration(LoadBalanceMigration):
    """Load-balancing migration with class-priority claim order."""

    name = "sla-aware"

    def __init__(
        self,
        classes=None,
        margin: float = 1.0,
        min_residency: int = 3,
        max_moves_per_round: int = 2,
    ) -> None:
        super().__init__(
            margin=margin,
            min_residency=min_residency,
            max_moves_per_round=max_moves_per_round,
        )
        self.classes = resolve_classes(classes)

    def _priority_of(self, spec) -> int:
        name = getattr(spec, "service_class", None)
        return class_of(self.classes, name).admission_priority

    def _queued_candidates(self, source: Shard) -> list:
        return sorted(
            source.queue,
            key=lambda spec: -self._priority_of(spec),
        )

    def _active_candidates(self, source: Shard) -> list:
        return sorted(
            source.active,
            key=lambda session: -self._priority_of(
                source.spec_of[session.stream_id]
            ),
        )
