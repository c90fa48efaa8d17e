"""End-to-end cluster runs: the PR's acceptance criteria, determinism,
outages, headroom lending, conservation."""

import math
import re

import pytest

from repro.cluster import (
    BestFitPlacement,
    ClusterRunner,
    HeadroomBalancer,
    LeastLoadedPlacement,
    LoadBalanceMigration,
    RoundRobinPlacement,
    build_shards,
    compare_placements,
    flash_crowd_split,
    shard_outage,
    skewed_cluster,
)
from repro.errors import ConfigurationError
from repro.sim.runner import reset_caches


class TestAcceptanceCriteria:
    """ISSUE 2: skewed arrivals, fixed total capacity."""

    def test_feasibility_aware_placement_beats_round_robin_on_acceptance(self):
        scenario = skewed_cluster()
        results = compare_placements(
            scenario, [RoundRobinPlacement(), BestFitPlacement()]
        )
        blind = results["round-robin"]
        aware = results["best-fit"]
        # round-robin sends heavy streams to a shard whose whole budget
        # is below their qmin demand; best-fit never does
        assert blind.rejected_count >= 2
        assert aware.rejected_count == 0
        assert aware.acceptance_ratio > blind.acceptance_ratio + 0.1
        # everything offered is eventually decided under both policies
        offered = len(scenario.arrivals)
        for result in (blind, aware):
            assert result.served_count + result.rejected_count == offered

    def test_migration_improves_cross_shard_fairness(self):
        scenario = skewed_cluster()
        frozen = ClusterRunner(RoundRobinPlacement()).run(scenario)
        mobile = ClusterRunner(
            RoundRobinPlacement(), migration=LoadBalanceMigration()
        ).run(scenario)
        assert mobile.migration_count > 0
        assert (
            mobile.fairness_cross_shard()
            > frozen.fairness_cross_shard() + 0.1
        )
        # per-stream fairness improves too, and served totals match
        assert mobile.fairness_streams() > frozen.fairness_streams()
        assert mobile.served_count == frozen.served_count


class TestDeterminism:
    def test_rerunning_the_same_runner_reproduces_the_run(self):
        # policies carry per-run state (rotation counters, migration
        # cooldowns, lent-cycle tallies) that must reset between runs
        runner = ClusterRunner(
            RoundRobinPlacement(),
            migration=LoadBalanceMigration(),
            balancer=HeadroomBalancer(),
        )
        scenario = skewed_cluster(streams=8, frames=8)
        first = runner.run(scenario)
        second = runner.run(scenario)
        assert first.summary() == second.summary()
        assert first.lent_cycles == second.lent_cycles
        assert first.migrations == second.migrations

    def test_cluster_run_is_deterministic_under_fixed_seed(self):
        first = ClusterRunner(
            RoundRobinPlacement(), migration=LoadBalanceMigration()
        ).run(skewed_cluster())
        reset_caches()
        second = ClusterRunner(
            RoundRobinPlacement(), migration=LoadBalanceMigration()
        ).run(skewed_cluster())
        def canon(summary):
            # nan != nan; an idle shard's quality metrics are nan
            return {
                k: "nan" if isinstance(v, float) and math.isnan(v) else v
                for k, v in summary.items()
            }

        assert canon(first.summary()) == canon(second.summary())
        assert first.migrations == second.migrations
        for a, b in zip(first.shard_results, second.shard_results):
            assert canon(a.summary()) == canon(b.summary())


class TestConservation:
    def test_every_stream_served_exactly_once(self):
        scenario = skewed_cluster()
        result = ClusterRunner(
            LeastLoadedPlacement(), migration=LoadBalanceMigration()
        ).run(scenario)
        served = [
            o.spec.name for r in result.shard_results for o in r.streams
        ]
        rejected = [
            s.name for r in result.shard_results for s in r.rejected
        ]
        assert len(served) == len(set(served))  # no duplicates
        assert sorted(served + rejected) == sorted(
            s.name for s in scenario.arrivals.specs
        )

    def test_migrated_streams_keep_their_full_clip(self):
        scenario = skewed_cluster()
        result = ClusterRunner(
            RoundRobinPlacement(), migration=LoadBalanceMigration()
        ).run(scenario)
        assert result.active_migration_count > 0
        for shard in result.shard_results:
            for outcome in shard.streams:
                assert len(outcome.result) == outcome.spec.config.frames

    def test_balancer_conserves_total_capacity(self):
        shards = build_shards((40e6, 20e6, 10e6))
        from repro.streams.scenarios import steady_fleet

        for i, spec in enumerate(steady_fleet(4, frames=6).specs):
            shards[i % 2].offer(spec, 0)  # load only the first two
        balancer = HeadroomBalancer()
        effective = balancer.effective_capacities(shards)
        assert sum(effective.values()) == pytest.approx(70e6)
        # idle shard donated, loaded shards gained
        assert effective["shard-2"] < 10e6
        assert effective["shard-0"] + effective["shard-1"] > 60e6


class TestOutage:
    def test_outage_migration_rescues_streams(self):
        scenario = shard_outage()
        frozen = ClusterRunner(LeastLoadedPlacement()).run(scenario)
        mobile = ClusterRunner(
            LeastLoadedPlacement(), migration=LoadBalanceMigration()
        ).run(scenario)
        # the outage starves the degraded shard's streams; migration
        # moves them off and closes the fairness gap
        assert mobile.active_migration_count > 0
        assert mobile.fairness_streams() > frozen.fairness_streams()
        assert mobile.total_skips() < frozen.total_skips()
        assert mobile.served_count == frozen.served_count == 9

    def test_headroom_balancer_lends_into_skew(self):
        scenario = skewed_cluster()
        plain = ClusterRunner(RoundRobinPlacement()).run(scenario)
        lent = ClusterRunner(
            RoundRobinPlacement(), balancer=HeadroomBalancer()
        ).run(scenario)
        assert lent.lent_cycles > 0
        assert lent.mean_quality() > plain.mean_quality()


class TestRecovery:
    def test_queued_stream_admitted_promptly_after_capacity_recovery(self):
        """A capacity event changes feasibility without a release, so
        the round it fires the queue must be force-rechecked."""
        from repro.cluster.scenarios import CapacityEvent, ClusterScenario
        from repro.experiments.configs import scaled_config
        from repro.streams import qmin_demand
        from repro.streams.scenarios import Scenario, StreamSpec

        def stream(name, seed, frames, arrival=0):
            return StreamSpec(
                name=name,
                arrival_round=arrival,
                config=scaled_config(scale=27, seed=seed, frames=frames),
            )

        demand = qmin_demand(stream("x", 1, 4).config)
        # shard 0: one short clip + one queued stream; shard 1 busy for
        # a long time so the cluster never goes globally idle early
        # order matters: short -> shard 0, long -> shard 1, parked ties
        # back to shard 0 (equal loads) where it must queue
        arrivals = Scenario(
            "recovery",
            specs=(
                stream("short", 1, frames=3),
                stream("long", 3, frames=30),
                stream("parked", 2, frames=4),
            ),
        )
        scenario = ClusterScenario(
            "recovery",
            arrivals,
            shard_capacities=(1.5 * demand, 1.5 * demand),
            events=(
                CapacityEvent(1, 0, 0.4),   # drop below qmin
                CapacityEvent(10, 0, 1.0),  # recover
            ),
        )
        # least-loaded routes short+long apart; parked queues on shard 0
        result = ClusterRunner(LeastLoadedPlacement()).run(scenario)
        assert result.served_count == 3
        parked = next(
            o
            for r in result.shard_results
            for o in r.streams
            if o.spec.name == "parked"
        )
        # admitted the round capacity recovered, not at global idle
        assert parked.admitted_round == 10


class TestMigrationSafety:
    def test_active_moves_never_overcommit_destination(self):
        """Two starved sessions, destination headroom for one: only one
        may move per plan (claimed headroom is tracked)."""
        from repro.cluster import build_shards
        from repro.experiments.configs import scaled_config
        from repro.streams import qmin_demand
        from repro.streams.scenarios import StreamSpec

        def stream(name, seed):
            return StreamSpec(
                name=name,
                arrival_round=0,
                config=scaled_config(scale=27, seed=seed, frames=10),
            )

        demand = qmin_demand(stream("x", 1).config)
        crowded, dest = build_shards((2.2 * demand, 1.5 * demand))
        for i in range(2):
            crowded.offer(stream(f"c{i}", seed=20 + i), 0)
        # starve both so they are migration candidates
        for round_index in range(5):
            crowded.step(round_index, capacity=0.3 * crowded.capacity)
        policy = LoadBalanceMigration(
            min_residency=1, max_moves_per_round=4, margin=0.0
        )
        moves = policy.plan([crowded, dest], 5)
        active = [m for m in moves if m.kind == "active"]
        assert len(active) == 1  # the second would overcommit dest


class TestFlashCrowd:
    def test_crowd_splits_across_shards(self):
        scenario = flash_crowd_split()
        result = ClusterRunner(LeastLoadedPlacement()).run(scenario)
        assert result.served_count == 12
        assert result.rejected_count == 0
        # the crowd cannot fit on one shard: every shard served some
        assert all(r.served_count > 0 for r in result.shard_results)


class TestResultShape:
    def test_summary_keys_and_table(self):
        from repro.analysis.report import cluster_compare_table, cluster_table

        result = ClusterRunner(LeastLoadedPlacement()).run(
            flash_crowd_split(base=2, crowd=2, shards=2, frames=6)
        )
        summary = result.summary()
        for key in (
            "scenario", "placement", "migration", "shards", "served",
            "rejected", "acceptance_ratio", "migrations", "mean_quality",
            "fairness_streams", "fairness_cross_shard", "load_imbalance",
        ):
            assert key in summary
        assert "shard-0" in cluster_table(result)
        assert "least-loaded" in cluster_compare_table([result])
        assert not math.isnan(result.load_imbalance())


class TestValidation:
    def test_shard_count_mismatch(self):
        scenario = flash_crowd_split(shards=2, base=1, crowd=1, frames=4)
        runner = ClusterRunner(LeastLoadedPlacement())
        with pytest.raises(ConfigurationError):
            runner.run(scenario, shards=build_shards((1e6,) * 3))

    def test_max_rounds_guard(self):
        with pytest.raises(ConfigurationError):
            ClusterRunner(LeastLoadedPlacement(), max_rounds=0)
        scenario = flash_crowd_split(shards=2, base=1, crowd=1, frames=8)
        runner = ClusterRunner(LeastLoadedPlacement(), max_rounds=2)
        with pytest.raises(
            ConfigurationError,
            match=re.escape("scenario 'flash[1+1x2]' exceeded max_rounds=2"),
        ):
            runner.run(scenario)
