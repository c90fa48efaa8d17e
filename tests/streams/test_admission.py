"""Admission control against the paper's feasibility analysis."""

import math

import pytest

from repro.core.feasibility import check_feasibility
from repro.errors import ConfigurationError
from repro.experiments.configs import scaled_config
from repro.sim.encoder_loop import compiled_controller
from repro.streams.admission import (
    AdmissionController,
    AdmissionDecision,
    qmin_demand,
)
from repro.streams.scenarios import StreamSpec


def small_config(seed=1, frames=5):
    """Scale-27 stream: period ~11.85 Mcyc, qmin avg demand ~4.7 Mcyc."""
    return scaled_config(scale=27, seed=seed, frames=frames)


class TestQminDemand:
    def test_average_below_worst(self):
        config = small_config()
        assert qmin_demand(config, "average") < qmin_demand(config, "worst")

    def test_demand_below_period(self):
        # the scaled operating point leaves qmin headroom inside a period
        config = small_config()
        assert 0 < qmin_demand(config, "average") < config.period


class TestFitsIsDefinition22:
    """``fits`` is one comparison; the schedule walk of
    :func:`check_feasibility` under the uniform cycle deadline is the
    reference it must agree with on every budget, the boundary
    included."""

    @pytest.mark.parametrize("mode", ["average", "worst"])
    @pytest.mark.parametrize("scale", [12, 20, 27])
    def test_matches_check_feasibility(self, scale, mode):
        config = scaled_config(scale=scale, seed=1, frames=5)
        controller = AdmissionController(capacity=config.period, mode=mode)
        compiled = compiled_controller(
            config.macroblocks, config.nominal_budget, config.decision_overhead
        )
        system = compiled.system
        times = system.average_times if mode == "average" else system.worst_times
        d = controller.demand(config)
        budgets = (
            d,
            math.nextafter(d, 0.0),
            math.nextafter(d, math.inf),
            d / 2,
            2 * d,
            0.0,
            -d,
        )
        for available in budgets:
            reference = check_feasibility(
                compiled.tables.schedule,
                lambda action: times.time(action, system.qmin),
                lambda action: available,
            )
            assert controller.fits(config, available) == reference.feasible, (
                available
            )


class TestDecisions:
    def test_accept_when_feasible(self):
        config = small_config()
        controller = AdmissionController(capacity=10 * config.period)
        verdict = controller.offer(StreamSpec("s0", 0, config))
        assert verdict.decision is AdmissionDecision.ACCEPTED
        assert controller.committed == pytest.approx(qmin_demand(config))

    def test_reject_when_infeasible_even_alone(self):
        config = small_config()
        controller = AdmissionController(capacity=qmin_demand(config) / 2)
        verdict = controller.offer(StreamSpec("big", 0, config))
        assert verdict.decision is AdmissionDecision.REJECTED
        assert controller.committed == 0.0

    def test_queue_then_admit_after_release(self):
        config = small_config()
        demand = qmin_demand(config)
        controller = AdmissionController(capacity=1.5 * demand)
        first = StreamSpec("first", 0, config)
        second = StreamSpec("second", 0, small_config(seed=2))
        assert controller.offer(first).decision is AdmissionDecision.ACCEPTED
        assert controller.offer(second).decision is AdmissionDecision.QUEUED
        assert len(controller.queue) == 1
        # nothing departs: queue stays parked
        assert controller.admit_queued() == []
        controller.release(first.config)
        admitted = controller.admit_queued()
        assert admitted == [second]
        assert not controller.queue

    def test_queue_limit_zero_rejects(self):
        config = small_config()
        demand = qmin_demand(config)
        controller = AdmissionController(capacity=1.5 * demand, queue_limit=0)
        controller.offer(StreamSpec("first", 0, config))
        verdict = controller.offer(StreamSpec("second", 0, small_config(seed=2)))
        assert verdict.decision is AdmissionDecision.REJECTED

    def test_worst_mode_more_conservative(self):
        config = small_config()
        # capacity between average and worst qmin demand: statistical
        # admission accepts, hard admission does not
        capacity = (qmin_demand(config, "average") + qmin_demand(config, "worst")) / 2
        statistical = AdmissionController(capacity=capacity, mode="average")
        hard = AdmissionController(capacity=capacity, mode="worst")
        assert (
            statistical.offer(StreamSpec("s", 0, config)).decision
            is AdmissionDecision.ACCEPTED
        )
        assert (
            hard.offer(StreamSpec("s", 0, config)).decision
            is AdmissionDecision.REJECTED
        )

    def test_utilization_cap_shrinks_budget(self):
        config = small_config()
        demand = qmin_demand(config)
        controller = AdmissionController(capacity=2 * demand, utilization_cap=0.5)
        assert controller.budget == pytest.approx(demand)
        assert controller.offer(StreamSpec("a", 0, config)).decision is (
            AdmissionDecision.ACCEPTED
        )
        # a second stream exceeds the capped budget even though raw
        # capacity would fit it
        follow_up = controller.offer(StreamSpec("b", 0, small_config(seed=3)))
        assert follow_up.decision is not AdmissionDecision.ACCEPTED

    def test_acceptance_ratio(self):
        config = small_config()
        controller = AdmissionController(capacity=10 * config.period)
        assert controller.acceptance_ratio == 1.0
        controller.offer(StreamSpec("a", 0, config))
        tiny = AdmissionController(capacity=qmin_demand(config) / 2)
        tiny.offer(StreamSpec("b", 0, config))
        assert controller.acceptance_ratio == 1.0
        assert tiny.acceptance_ratio == 0.0


class TestValidation:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(capacity=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionController(capacity=1.0, mode="optimistic")
        with pytest.raises(ConfigurationError):
            AdmissionController(capacity=1.0, utilization_cap=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionController(capacity=1.0, queue_limit=-1)
