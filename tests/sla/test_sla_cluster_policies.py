"""SLA placement/migration: gold gets comfort and first claim."""

from repro.cluster.migration import QueueRebalanceMigration
from repro.cluster.runner import build_shards
from repro.experiments.configs import scaled_config
from repro.sla import SlaMigration, SlaPlacement, sla_skewed_cluster
from repro.sla.scenarios import gold_rush, sla_churn
from repro.streams.admission import qmin_demand
from repro.streams.scenarios import StreamSpec


def small_config(seed=1, frames=5):
    return scaled_config(scale=27, seed=seed, frames=frames)


def spec(name, service_class, seed=1):
    return StreamSpec(name, 0, small_config(seed=seed), service_class=service_class)


def two_shards(small=12e6, big=48e6):
    return build_shards([small, big])


class TestSlaPlacement:
    def test_gold_takes_the_comfortable_shard(self):
        placement = SlaPlacement()
        shards = two_shards()
        chosen = placement.choose(spec("g", "gold"), shards, 0)
        # projected share is biggest on the big shard
        assert chosen.shard_id == shards[1].shard_id

    def test_bronze_packs_the_tight_shard(self):
        placement = SlaPlacement()
        shards = two_shards()
        chosen = placement.choose(spec("b", "bronze"), shards, 0)
        # best-fit: tightest accepting headroom preserves the big hole
        assert chosen.shard_id == shards[0].shard_id

    def test_silver_is_premium_by_default(self):
        placement = SlaPlacement()
        shards = two_shards()
        assert (
            placement.choose(spec("s", "silver"), shards, 0).shard_id
            == shards[1].shard_id
        )

    def test_unclassed_streams_pack(self):
        placement = SlaPlacement()
        shards = two_shards()
        assert (
            placement.choose(spec("u", None), shards, 0).shard_id
            == shards[0].shard_id
        )


class TestSlaMigration:
    def _queued_setup(self):
        """A source whose queue holds bronze-then-gold, and a dest with
        headroom for exactly one of them."""
        demand = qmin_demand(small_config())
        source, dest = build_shards([1.4 * demand, 1.5 * demand])
        keeper_src = spec("keeper-src", "bronze", seed=9)
        keeper_dst = spec("keeper-dst", "bronze", seed=8)
        assert source.offer(keeper_src, 0).value == "accepted"
        assert dest.offer(keeper_dst, 0).value == "accepted"
        # both queue at the source (only ~0.4 demand headroom left)
        assert source.offer(spec("q-bronze", "bronze", seed=2), 0).value == "queued"
        assert source.offer(spec("q-gold", "gold", seed=3), 0).value == "queued"
        # free the destination: one slot opens
        dest.detach("keeper-dst")
        return source, dest

    def test_gold_claims_the_queue_headroom_first(self):
        source, dest = self._queued_setup()
        moves = SlaMigration().plan([source, dest], 1)
        queued = [m for m in moves if m.kind == "queued"]
        assert [m.stream_id for m in queued] == ["q-gold"]

    def test_plain_rebalance_would_move_bronze_instead(self):
        source, dest = self._queued_setup()
        moves = QueueRebalanceMigration().plan([source, dest], 1)
        queued = [m for m in moves if m.kind == "queued"]
        assert [m.stream_id for m in queued] == ["q-bronze"]

    def test_active_candidates_ordered_by_priority(self):
        shards = build_shards([60e6], admission=False)
        shard = shards[0]
        shard.offer(spec("b", "bronze", seed=1), 0)
        shard.offer(spec("g", "gold", seed=2), 0)
        shard.offer(spec("s", "silver", seed=3), 0)
        order = [
            shard.spec_of[session.stream_id].service_class
            for session in SlaMigration()._active_candidates(shard)
        ]
        assert order == ["gold", "silver", "bronze"]


class TestSlaScenarios:
    def test_sla_churn_assigns_the_class_cycle(self):
        scenario = sla_churn(rate=1.0, horizon=6, seed=5, initial=2)
        classes = [s.service_class for s in scenario.specs]
        assert set(classes) <= {"gold", "silver", "bronze"}
        assert "gold" in classes and "bronze" in classes
        # deterministic under a fixed seed
        again = sla_churn(rate=1.0, horizon=6, seed=5, initial=2)
        assert again.specs == scenario.specs

    def test_gold_rush_layers_gold_over_bronze(self):
        scenario = gold_rush(bronze=4, gold=2, crowd_round=3, frames=5)
        bronze = [s for s in scenario.specs if s.service_class == "bronze"]
        gold = [s for s in scenario.specs if s.service_class == "gold"]
        assert len(bronze) == 4 and len(gold) == 2
        assert all(s.arrival_round == 0 for s in bronze)
        assert all(s.arrival_round == 3 for s in gold)

    def test_sla_skewed_cluster_keeps_the_skew(self):
        scenario = sla_skewed_cluster(streams=8, shards=3, frames=4)
        assert scenario.shard_count == 3
        assert scenario.shard_capacities[0] > scenario.shard_capacities[-1]
        assert all(
            s.service_class in {"gold", "silver", "bronze"}
            for s in scenario.arrivals.specs
        )
