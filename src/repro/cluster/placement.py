"""Placement policies: which shard an arriving stream lands on.

Placement is the cluster-level admission decision of Alaya et al. ("A
New Approach to Manage QoS in Distributed Multimedia Systems"): the
verdict a stream gets depends not only on *whether* the cluster has
capacity but on *where* the arrival is sent — a heavy stream routed to
a small shard is rejected even while a big shard sits half empty.

All policies are deterministic (ties break on shard order) so cluster
runs replay bit-identically:

* :class:`RoundRobinPlacement` — blind rotation, the baseline every
  smarter policy is measured against;
* :class:`LeastLoadedPlacement` — lowest (active + queued) demand over
  capacity;
* :class:`BestFitPlacement` — feasibility-aware: among the shards whose
  admission gate would accept the stream *right now*, pick the one that
  the stream fits most tightly (classic best-fit bin packing — large
  holes are preserved for large arrivals, which is exactly what lifts
  global acceptance over round-robin on skewed mixes);
* :class:`QualityAwarePlacement` — feasibility first, then send the
  arrival to the shard whose active streams report the healthiest
  recent quality, so newcomers do not pile onto a struggling pool.
"""

from __future__ import annotations

from repro.cluster.shard import Shard
from repro.errors import ConfigurationError
from repro.streams.scenarios import StreamSpec


class PlacementPolicy:
    """Base class: rank the shards, return the chosen one."""

    name = "abstract"

    def reset(self) -> None:
        """Forget any cross-run state (the runner calls this per run)."""

    def choose(
        self, spec: StreamSpec, shards: list[Shard], round_index: int
    ) -> Shard:
        if not shards:
            raise ConfigurationError("cannot place on an empty cluster")
        return self._choose(spec, shards, round_index)

    def _choose(
        self, spec: StreamSpec, shards: list[Shard], round_index: int
    ) -> Shard:
        raise NotImplementedError

    # shared fallback: prefer a shard that can serve the stream at all
    @staticmethod
    def _serviceable(spec: StreamSpec, shards: list[Shard]) -> list[Shard]:
        return [s for s in shards if s.feasible_alone(spec)]


class RoundRobinPlacement(PlacementPolicy):
    """Rotate through the shards, blind to load and feasibility."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def _choose(
        self, spec: StreamSpec, shards: list[Shard], round_index: int
    ) -> Shard:
        shard = shards[self._next % len(shards)]
        self._next += 1
        return shard


class LeastLoadedPlacement(PlacementPolicy):
    """Send the arrival to the shard with the lowest relative load."""

    name = "least-loaded"

    def _choose(
        self, spec: StreamSpec, shards: list[Shard], round_index: int
    ) -> Shard:
        return min(shards, key=lambda s: (s.load, shards.index(s)))


class BestFitPlacement(PlacementPolicy):
    """Feasibility-aware best-fit over admission headroom.

    Three tiers, each deterministic:

    1. shards that would ACCEPT the stream now — pick the tightest fit
       (smallest headroom left after placing), preserving big holes;
    2. no immediate fit: shards where the stream is feasible alone —
       pick the most headroom, so the queued wait is shortest;
    3. nowhere serviceable: least loaded (the rejection is inevitable,
       spread the bookkeeping).
    """

    name = "best-fit"

    def _choose(
        self, spec: StreamSpec, shards: list[Shard], round_index: int
    ) -> Shard:
        fits = [s for s in shards if s.feasible_now(spec)]
        if fits:
            # tightest fit = the accepting shard with the least
            # headroom (the stream's demand is the same everywhere)
            return min(fits, key=lambda s: (s.headroom(), shards.index(s)))
        alone = self._serviceable(spec, shards)
        if alone:
            return max(
                alone, key=lambda s: (s.headroom(), -shards.index(s))
            )
        return min(shards, key=lambda s: (s.load, shards.index(s)))


class PredictivePlacement(PlacementPolicy):
    """Blend feasibility with the *projected per-stream share*.

    Best-fit maximizes acceptance but packs small shards tight: a
    stream routed to a nearly-full small shard is admitted — and then
    starves, because the shard's arbitrated pool splits across too
    many sessions (the quality collapse the ROADMAP flags under
    churn).  Predictive placement keeps best-fit's feasibility gate
    but ranks the accepting shards by the capacity share the arrival
    would actually *receive*::

        projected = capacity / (active + queued + 1)

    so an arrival lands where its grant is largest, not where it fits
    most snugly.  Falls back to best-fit's tiers when no shard accepts
    immediately.
    """

    name = "predictive"

    def __init__(self) -> None:
        self._fallback = BestFitPlacement()

    def projected_share(self, shard: Shard) -> float:
        """Cycles/round a new arrival would get on this shard."""
        occupants = len(shard.active) + len(shard.queue) + 1
        return shard.capacity / occupants

    def _choose(
        self, spec: StreamSpec, shards: list[Shard], round_index: int
    ) -> Shard:
        fits = [s for s in shards if s.feasible_now(spec)]
        if fits:
            # keyed on the quotient: shares that round to one quotient
            # tie, and a tie goes to shard order
            reference = max(s.capacity for s in shards)
            return max(fits, key=lambda s: (
                self.projected_share(s) / reference, -shards.index(s)
            ))
        return self._fallback._choose(spec, shards, round_index)


class QualityAwarePlacement(PlacementPolicy):
    """Feasibility first, then the shard with the healthiest streams.

    Among the shards that would accept the stream now, pick the one
    whose active sessions report the highest mean recent quality
    (load as tie-break).  Falls back to best-fit ordering when no shard
    accepts immediately.
    """

    name = "quality-aware"

    def __init__(self) -> None:
        self._fallback = BestFitPlacement()

    def _choose(
        self, spec: StreamSpec, shards: list[Shard], round_index: int
    ) -> Shard:
        fits = [s for s in shards if s.feasible_now(spec)]
        if fits:
            return max(
                fits,
                key=lambda s: (
                    s.mean_recent_quality(),
                    -s.load,
                    -shards.index(s),
                ),
            )
        return self._fallback._choose(spec, shards, round_index)


def make_placement(name: str, **kwargs) -> PlacementPolicy:
    """Placement factory by policy name.

    Thin alias of the serving layer's ``PLACEMENTS`` registry
    (:mod:`repro.serving.registry`); policies registered with
    :func:`repro.serving.register_placement` resolve here too.
    """
    from repro.serving.registry import PLACEMENTS

    return PLACEMENTS.create(name, **kwargs)
