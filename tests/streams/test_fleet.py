"""End-to-end fleet runs: determinism, fairness, admission coupling.

Carries the PR's acceptance criteria: a >= 20-stream Poisson-churn
fleet is bit-deterministic under a fixed seed, and the quality-fair
arbiter beats equal-share on Jain fairness over a heterogeneous mix.
"""

import re

import pytest

from repro.analysis.metrics import jain_fairness_index
from repro.errors import ConfigurationError
from repro.sim.runner import reset_caches
from repro.streams import (
    AdmissionController,
    EqualShareArbiter,
    FleetRunner,
    QualityFairArbiter,
    WeightedShareArbiter,
    compare_arbiters,
    flash_crowd,
    heterogeneous_mix,
    poisson_churn,
    steady_fleet,
)


def churn_scenario():
    """>= 20 concurrent streams at round 0 plus Poisson arrival churn."""
    return poisson_churn(
        rate=0.8, horizon=18, mean_frames=14, min_frames=8, seed=5, initial=20
    )


class TestSmallFleet:
    def test_uncontended_fleet_serves_everyone_well(self):
        scenario = steady_fleet(4, frames=12)
        capacity = scenario.total_demand()  # dedicated speed for all
        runner = FleetRunner(capacity, WeightedShareArbiter())
        result = runner.run(scenario)
        assert result.served_count == 4
        assert result.rejected_count == 0
        assert result.acceptance_ratio == 1.0
        assert result.total_frames() == 4 * 12
        assert result.total_skips() == 0
        assert result.peak_concurrency == 4
        assert result.mean_quality() > 3.0
        assert result.fairness_quality() > 0.95
        summary = result.summary()
        for key in (
            "scenario", "arbiter", "served", "acceptance_ratio",
            "fairness_quality", "mean_psnr", "skips", "deadline_misses",
        ):
            assert key in summary

    def test_contention_costs_quality(self):
        scenario = steady_fleet(4, frames=12)
        full = FleetRunner(
            scenario.total_demand(), WeightedShareArbiter()
        ).run(scenario)
        halved = FleetRunner(
            0.5 * scenario.total_demand(), WeightedShareArbiter()
        ).run(scenario)
        assert halved.mean_quality() < full.mean_quality() - 1.0


class TestDeterminism:
    def test_churn_fleet_is_deterministic_under_fixed_seed(self):
        scenario = churn_scenario()
        assert len(scenario) >= 20
        capacity = 0.6 * 20 * 16e6  # tight shared budget
        first = FleetRunner(
            capacity, QualityFairArbiter(), AdmissionController(capacity)
        ).run(scenario)
        assert first.peak_concurrency >= 20
        # drop every memoized simulation: the replay must rebuild from
        # seeds alone, not reuse shared state
        reset_caches()
        second = FleetRunner(
            capacity, QualityFairArbiter(), AdmissionController(capacity)
        ).run(churn_scenario())
        assert first.summary() == second.summary()
        assert [o.result.summary() for o in first.streams] == [
            o.result.summary() for o in second.streams
        ]
        assert [
            list(o.result.psnr_series()) for o in first.streams
        ] == [list(o.result.psnr_series()) for o in second.streams]


class TestFairness:
    def test_quality_fair_beats_equal_share_on_heterogeneous_mix(self):
        scenario = heterogeneous_mix(21, frames=20, seed=11)
        capacity = 0.55 * scenario.total_demand()
        results = compare_arbiters(
            scenario, capacity, [EqualShareArbiter(), QualityFairArbiter()]
        )
        equal = results["equal-share"]
        fair = results["quality-fair"]
        assert equal.served_count == fair.served_count == 21
        # the headline criterion, with a wide margin
        assert fair.fairness_quality() > equal.fairness_quality() + 0.1
        # fairness is not bought with a collapse of total quality
        assert fair.mean_quality() > 0.6 * equal.mean_quality()

    def test_jain_index_units(self):
        assert jain_fairness_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_fairness_index([1.0, 0.0, 0.0]) == pytest.approx(1 / 3)
        assert jain_fairness_index([]) != jain_fairness_index([])  # nan
        assert jain_fairness_index([0.0, 0.0]) == 1.0
        # nan = stream that never delivered -> counts as zero share
        assert jain_fairness_index([2.0, float("nan")]) == pytest.approx(0.5)


class TestAdmissionCoupling:
    def test_flash_crowd_queues_then_serves(self):
        scenario = flash_crowd(base=2, crowd=4, crowd_round=2, frames=8, scale=27)
        # room for ~3 concurrent qmin streams only
        capacity = 15e6
        runner = FleetRunner(
            capacity, QualityFairArbiter(), AdmissionController(capacity)
        )
        result = runner.run(scenario)
        # everything is eventually served (queued streams start late)
        assert result.served_count == 6
        crowd = [o for o in result.streams if o.spec.name.startswith("crowd")]
        delays = [o.admitted_round - o.spec.arrival_round for o in crowd]
        assert max(delays) > 0  # at least one crowd stream had to wait
        assert result.peak_concurrency <= 4

    def test_oversized_streams_are_rejected(self):
        from repro.streams import qmin_demand

        scenario = steady_fleet(3, frames=6, scale=15)  # heavy streams
        # below a single heavy stream's qmin demand: nothing can ever fit
        capacity = 0.9 * qmin_demand(scenario.specs[0].config)
        runner = FleetRunner(
            capacity, EqualShareArbiter(), AdmissionController(capacity)
        )
        result = runner.run(scenario)
        assert result.served_count == 0
        assert result.rejected_count == 3
        assert result.acceptance_ratio == 0.0

    def test_without_admission_everything_runs(self):
        scenario = flash_crowd(base=2, crowd=3, crowd_round=1, frames=6, scale=27)
        runner = FleetRunner(5e6, EqualShareArbiter())  # heavily overloaded
        result = runner.run(scenario)
        assert result.served_count == 5
        assert result.rejected_count == 0


class TestValidation:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            FleetRunner(0.0, EqualShareArbiter())
        with pytest.raises(ConfigurationError):
            FleetRunner(1.0, EqualShareArbiter(), max_rounds=0)
        # checked when the first session is built, not by a modulo by 0
        runner = FleetRunner(1e9, EqualShareArbiter(), granularity=0)
        with pytest.raises(ConfigurationError, match="granularity"):
            runner.run(steady_fleet(2, frames=3))

    def test_runaway_scenario_hits_max_rounds(self):
        # 8-frame streams need more than two rounds to finish
        runner = FleetRunner(1e9, EqualShareArbiter(), max_rounds=2)
        with pytest.raises(
            ConfigurationError,
            match=re.escape("'steady[2]' exceeded max_rounds=2"),
        ):
            runner.run(steady_fleet(2, frames=8))

    def test_duplicate_stream_names_rejected(self):
        from repro.streams.scenarios import Scenario, steady_fleet

        base = steady_fleet(2, frames=5)
        doubled = Scenario(name="dup", specs=base.specs + base.specs[:1])
        runner = FleetRunner(1e9, EqualShareArbiter())
        with pytest.raises(ConfigurationError):
            runner.run(doubled)
