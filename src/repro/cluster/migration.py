"""Migration policies: rebalancing streams between shards mid-run.

Placement decides once, at arrival; skew still accumulates — clips end
at different times, capacity events degrade a shard, a correlated
arrival pattern overloads one pool.  Between rounds the cluster runner
asks its :class:`MigrationPolicy` for a list of moves:

* **queued moves** relocate a spec waiting in one shard's admission
  queue to a shard that would accept it immediately (pure win: the
  stream starts rounds earlier and no session state is involved);
* **active moves** detach a live, quality-starved
  :class:`StreamSession` from an overloaded shard and attach it where
  qmin is feasible on the remaining headroom.  Sessions carry their
  whole timeline state, so a move is just a change of which pool
  grants them cycles from the next round on.

Guard rails: a stream is only moved where it is feasible, never twice
within ``min_residency`` rounds (no ping-pong), and at most
``max_moves_per_round`` active moves happen per round (migration has
real-world cost; the cap models it and keeps runs interpretable).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.shard import Shard
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MigrationMove:
    """One planned move (queued spec or active session)."""

    stream_id: str
    source: str
    dest: str
    kind: str  # "queued" | "active"


class MigrationPolicy:
    """Base class; ``plan`` returns the moves for this round."""

    name = "abstract"

    def plan(self, shards: list[Shard], round_index: int) -> list[MigrationMove]:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget any cross-run state (the runner calls this per run)."""


class NoMigration(MigrationPolicy):
    """Streams stay where placement put them (the baseline)."""

    name = "none"

    def plan(self, shards: list[Shard], round_index: int) -> list[MigrationMove]:
        return []


class QueueRebalanceMigration(MigrationPolicy):
    """Drain admission queues toward shards with immediate headroom."""

    name = "queue-rebalance"

    def plan(self, shards: list[Shard], round_index: int) -> list[MigrationMove]:
        moves, _ = self._plan_queued(shards)
        return moves

    def _plan_queued(
        self, shards: list[Shard]
    ) -> tuple[list[MigrationMove], dict[str, float]]:
        """Queued moves plus the per-destination headroom they claim
        (so follow-up planning cannot over-commit a destination)."""
        moves: list[MigrationMove] = []
        claimed = {s.shard_id: 0.0 for s in shards}
        for source in shards:
            for spec in self._queued_candidates(source):
                for dest in shards:
                    if dest is source or dest.admission is None:
                        continue
                    # reserve at the DESTINATION's admission mode — it
                    # is what the dest will actually commit on offer
                    demand = dest.demand_of(spec)
                    if demand > (
                        dest.admission.remaining - claimed[dest.shard_id]
                    ):
                        continue
                    claimed[dest.shard_id] += demand
                    moves.append(
                        MigrationMove(
                            stream_id=spec.name,
                            source=source.shard_id,
                            dest=dest.shard_id,
                            kind="queued",
                        )
                    )
                    break
        return moves, claimed

    def _queued_candidates(self, source: Shard) -> list:
        """Queue-move candidates in claim order (FIFO here; the SLA
        policy overrides this to give gold first claim on headroom)."""
        return source.queue


class LoadBalanceMigration(QueueRebalanceMigration):
    """Queue rebalancing plus moving quality-starved live sessions.

    A session whose normalized recent quality sits below
    ``quality_threshold`` on a shard loaded beyond ``overload`` is a
    candidate; it moves to the least-loaded shard whose remaining
    admission headroom fits its qmin demand (with ``margin`` slack so
    the move actually improves its service, not just its address).
    """

    name = "load-balance"

    def __init__(
        self,
        quality_threshold: float = 0.4,
        overload: float = 1.05,
        margin: float = 1.0,
        min_residency: int = 3,
        max_moves_per_round: int = 2,
    ) -> None:
        if not 0.0 <= quality_threshold <= 1.0:
            raise ConfigurationError("quality_threshold must be in [0, 1]")
        if min_residency < 1:
            raise ConfigurationError("min_residency must be >= 1")
        if max_moves_per_round < 1:
            raise ConfigurationError("max_moves_per_round must be >= 1")
        self.quality_threshold = quality_threshold
        self.overload = overload
        self.margin = margin
        self.min_residency = min_residency
        self.max_moves_per_round = max_moves_per_round
        self._moved_at: dict[str, int] = {}

    def reset(self) -> None:
        self._moved_at = {}

    def plan(self, shards: list[Shard], round_index: int) -> list[MigrationMove]:
        moves, claimed = self._plan_queued(shards)
        active_moves = 0
        # most loaded shards donate first; only overloaded shards donate
        for source in sorted(shards, key=lambda s: -s.load):
            if source.load < self.overload:
                break
            for session in self._active_candidates(source):
                if active_moves >= self.max_moves_per_round:
                    return moves
                quality = session.normalized_recent_quality()
                if not quality < self.quality_threshold:  # nan-safe
                    continue
                last = self._moved_at.get(session.stream_id)
                if last is not None and round_index - last < self.min_residency:
                    continue
                admitted = source.admitted_round.get(session.stream_id)
                if (
                    admitted is not None
                    and round_index - admitted < self.min_residency
                ):
                    continue
                dest = self._destination(session, source, shards, claimed)
                if dest is None:
                    continue
                spec = source.spec_of[session.stream_id]
                claimed[dest.shard_id] += dest.demand_of(spec)
                self._moved_at[session.stream_id] = round_index
                active_moves += 1
                moves.append(
                    MigrationMove(
                        stream_id=session.stream_id,
                        source=source.shard_id,
                        dest=dest.shard_id,
                        kind="active",
                    )
                )
        return moves

    def _active_candidates(self, source: Shard) -> list:
        """Active-move candidates in claim order (shard order here; the
        SLA policy overrides this to rescue gold sessions first)."""
        return list(source.active)

    def _destination(
        self,
        session,
        source: Shard,
        shards: list[Shard],
        claimed: dict[str, float],
    ) -> Shard | None:
        candidates = []
        for dest in shards:
            if dest is source:
                continue
            # the move must leave the stream better off: the dest's
            # per-stream share after adoption must beat the source's
            after = dest.capacity / (len(dest.active) + 1)
            before = source.capacity / max(1, len(source.active))
            if after <= before * self.margin:
                continue
            if dest.admission is not None:
                spec = source.spec_of[session.stream_id]
                remaining = (
                    dest.admission.remaining - claimed[dest.shard_id]
                )
                if dest.demand_of(spec) > remaining:
                    continue
            candidates.append(dest)
        if not candidates:
            return None
        return min(candidates, key=lambda s: (s.load, shards.index(s)))


def make_migration(name: str, **kwargs) -> MigrationPolicy:
    """Migration factory by policy name.

    Thin alias of the serving layer's ``MIGRATIONS`` registry
    (:mod:`repro.serving.registry`); policies registered with
    :func:`repro.serving.register_migration` resolve here too.
    """
    from repro.serving.registry import MIGRATIONS

    return MIGRATIONS.create(name, **kwargs)
