"""Migration policies: queue drains, starvation moves, guard rails."""

import pytest

from repro.cluster.migration import (
    LoadBalanceMigration,
    NoMigration,
    QueueRebalanceMigration,
    make_migration,
)
from repro.cluster.shard import Shard
from repro.errors import ConfigurationError
from repro.experiments.configs import scaled_config
from repro.streams import AdmissionController, WeightedShareArbiter, qmin_demand
from repro.streams.scenarios import StreamSpec


def spec(name, scale=27, seed=3, frames=8):
    return StreamSpec(
        name=name,
        arrival_round=0,
        config=scaled_config(scale=scale, seed=seed, frames=frames),
    )


def shard(shard_id, capacity):
    return Shard(
        shard_id,
        capacity,
        WeightedShareArbiter(),
        AdmissionController(capacity),
    )


class TestNoMigration:
    def test_never_moves(self):
        shards = [shard("s0", 8e6), shard("s1", 30e6)]
        shards[0].offer(spec("a"), 0)
        shards[0].offer(spec("b", seed=9), 0)  # queued
        assert NoMigration().plan(shards, 5) == []


class TestQueueRebalance:
    def test_moves_queued_spec_toward_headroom(self):
        crowded = shard("s0", 8e6)
        idle = shard("s1", 30e6)
        crowded.offer(spec("running"), 0)
        crowded.offer(spec("parked", seed=9), 0)
        assert len(crowded.queue) == 1
        moves = QueueRebalanceMigration().plan([crowded, idle], 3)
        assert len(moves) == 1
        move = moves[0]
        assert (move.stream_id, move.source, move.dest, move.kind) == (
            "parked", "s0", "s1", "queued"
        )

    def test_no_move_without_destination_headroom(self):
        crowded = shard("s0", 8e6)
        tiny = shard("s1", 3e6)  # below qmin, never feasible
        crowded.offer(spec("running"), 0)
        crowded.offer(spec("parked", seed=9), 0)
        assert QueueRebalanceMigration().plan([crowded, tiny], 3) == []

    def test_claims_headroom_across_moves(self):
        # destination can absorb ONE queued stream, not two
        crowded = shard("s0", 8e6)
        dest = shard("s1", 1.5 * qmin_demand(spec("x").config))
        crowded.offer(spec("running"), 0)
        crowded.offer(spec("parked-1", seed=9), 0)
        crowded.offer(spec("parked-2", seed=10), 0)
        moves = QueueRebalanceMigration().plan([crowded, dest], 3)
        assert len(moves) == 1


class TestLoadBalance:
    def _overloaded_pair(self):
        # four streams on a pool sized for ~1.2: deeply starved
        crowded = shard("s0", 1.2 * 11.85e6)
        idle = shard("s1", 60e6)
        for i in range(2):
            crowded.offer(spec(f"c{i}", seed=20 + i), 0)
        return crowded, idle

    def test_moves_starved_session_after_residency(self):
        crowded, idle = self._overloaded_pair()
        policy = LoadBalanceMigration(min_residency=2, max_moves_per_round=1)
        # starve for a few rounds so recent quality drops
        for round_index in range(4):
            crowded.step(round_index)
        assert crowded.load > policy.overload
        moves = policy.plan([crowded, idle], 4)
        assert len(moves) == 1
        assert moves[0].kind == "active"
        assert moves[0].dest == "s1"

    def test_residency_blocks_fresh_streams(self):
        crowded, idle = self._overloaded_pair()
        policy = LoadBalanceMigration(min_residency=10)
        for round_index in range(4):
            crowded.step(round_index)
        assert policy.plan([crowded, idle], 4) == []

    def test_no_move_when_balanced(self):
        a = shard("s0", 60e6)
        b = shard("s1", 60e6)
        a.offer(spec("a"), 0)
        b.offer(spec("b", seed=9), 0)
        a.step(0)
        b.step(0)
        assert LoadBalanceMigration().plan([a, b], 5) == []

    def test_max_moves_cap(self):
        crowded = shard("s0", 1.2 * 11.85e6)
        idle = shard("s1", 120e6)
        for i in range(4):
            crowded.offer(spec(f"c{i}", seed=30 + i), 0)
        policy = LoadBalanceMigration(min_residency=1, max_moves_per_round=2)
        for round_index in range(5):
            crowded.step(round_index)
        moves = policy.plan([crowded, idle], 5)
        assert len([m for m in moves if m.kind == "active"]) <= 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LoadBalanceMigration(min_residency=0)
        with pytest.raises(ConfigurationError):
            LoadBalanceMigration(max_moves_per_round=0)


class TestFactory:
    def test_make_migration(self):
        for name in ("none", "queue-rebalance", "load-balance"):
            assert make_migration(name).name == name
        with pytest.raises(ConfigurationError):
            make_migration("nope")
