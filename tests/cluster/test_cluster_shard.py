"""Shard mechanics: admission routing, stepping, migration primitives."""

import pytest

from repro.cluster.shard import Shard
from repro.errors import ConfigurationError
from repro.experiments.configs import scaled_config
from repro.streams import (
    AdmissionController,
    AdmissionDecision,
    WeightedShareArbiter,
    qmin_demand,
)
from repro.streams.scenarios import StreamSpec


def spec(name, scale=27, seed=3, frames=6, arrival=0):
    return StreamSpec(
        name=name,
        arrival_round=arrival,
        config=scaled_config(scale=scale, seed=seed, frames=frames),
    )


def make_shard(capacity=30e6, admission=True):
    gate = AdmissionController(capacity) if admission else None
    return Shard("s0", capacity, WeightedShareArbiter(), gate)


class TestOfferAndStep:
    def test_accepted_stream_runs_to_completion(self):
        shard = make_shard()
        decision = shard.offer(spec("a"), round_index=0)
        assert decision is AdmissionDecision.ACCEPTED
        assert shard.busy
        rounds = 0
        while shard.busy:
            shard.step(rounds)
            rounds += 1
        assert len(shard.outcomes) == 1
        outcome = shard.outcomes[0]
        assert outcome.spec.name == "a"
        assert outcome.admitted_round == 0
        assert len(outcome.result) == 6
        # committed demand fully released on departure
        assert shard.admission.committed == pytest.approx(0.0)

    def test_rejected_when_infeasible_alone(self):
        shard = make_shard(capacity=3e6)  # below scale-27 qmin (~4.7M)
        decision = shard.offer(spec("big"), round_index=0)
        assert decision is AdmissionDecision.REJECTED
        assert shard.rejected[0].name == "big"
        assert not shard.busy

    def test_ungated_shard_accepts_everything(self):
        shard = make_shard(admission=False)
        for i in range(5):
            assert shard.offer(spec(f"s{i}", seed=i), 0) is (
                AdmissionDecision.ACCEPTED
            )
        assert len(shard.active) == 5

    def test_queued_then_admitted_on_departure(self):
        capacity = 1.5 * qmin_demand(spec("x").config)
        shard = make_shard(capacity=capacity)
        assert shard.offer(spec("first", frames=4), 0) is (
            AdmissionDecision.ACCEPTED
        )
        assert shard.offer(spec("second", seed=9), 0) is (
            AdmissionDecision.QUEUED
        )
        assert len(shard.queue) == 1
        rounds = 0
        while shard.spec_of.get("first"):
            shard.step(rounds)
            shard.admit_queued(rounds + 1)
            rounds += 1
        assert "second" in shard.spec_of

    def test_load_and_headroom_signals(self):
        shard = make_shard(capacity=30e6)
        assert shard.load == 0.0
        assert shard.headroom() == pytest.approx(30e6)
        shard.offer(spec("a"), 0)
        assert shard.active_demand == pytest.approx(spec("a").config.period)
        assert shard.load > 0
        assert shard.headroom() < 30e6
        assert shard.mean_recent_quality() == 1.0  # nothing encoded yet


class TestCapacityEvents:
    def test_set_capacity_shrinks_admission_budget(self):
        shard = make_shard(capacity=30e6)
        shard.set_capacity(6e6)
        assert shard.capacity == 6e6
        assert shard.admission.budget == pytest.approx(6e6)
        assert shard.nominal_capacity == 30e6
        with pytest.raises(ConfigurationError):
            shard.set_capacity(0.0)

    def test_reject_stuck_queue_flushes_unservable(self):
        capacity = 1.5 * qmin_demand(spec("x").config)
        shard = make_shard(capacity=capacity)
        shard.offer(spec("running", frames=4), 0)
        assert shard.offer(spec("waiting", seed=9), 0) is (
            AdmissionDecision.QUEUED
        )
        # capacity collapses below qmin: the queued spec can never fit
        shard.set_capacity(0.5 * qmin_demand(spec("x").config))
        flushed = shard.reject_stuck_queue()
        assert flushed == 1
        assert not shard.queue
        assert shard.rejected[-1].name == "waiting"

    def test_capacity_raise_starts_the_queue_head(self):
        """A capacity event frees room without any release; the next
        plain retry sees it and starts the queued head."""
        demand = qmin_demand(spec("x").config)
        shard = make_shard(capacity=1.5 * demand)
        shard.offer(spec("running", frames=4), 0)
        assert shard.offer(spec("waiting", seed=9), 0) is (
            AdmissionDecision.QUEUED
        )
        assert shard.admit_queued(1) == 0
        shard.set_capacity(3 * demand)
        assert shard.admit_queued(1) == 1
        assert "waiting" in shard.spec_of
        assert not shard.queue


class TestMigrationPrimitives:
    def test_detach_attach_preserves_commitment(self):
        a = make_shard(capacity=30e6)
        b = make_shard(capacity=30e6)
        my_spec = spec("mover", frames=8)
        a.offer(my_spec, 0)
        a.step(0)
        committed = a.admission.committed
        assert committed > 0
        session, moved_spec, admitted = a.detach("mover")
        assert a.admission.committed == pytest.approx(0.0)
        assert not a.active
        b.attach(session, moved_spec, admitted)
        assert b.admission.committed == pytest.approx(committed)
        # the session continues where it left off on the new shard
        rounds = 1
        while b.busy:
            b.step(rounds)
            rounds += 1
        assert len(b.outcomes) == 1
        assert len(b.outcomes[0].result) == 8

    def test_detach_unknown_stream_raises(self):
        shard = make_shard()
        with pytest.raises(ConfigurationError):
            shard.detach("ghost")

    def test_attach_duplicate_raises(self):
        a = make_shard()
        my_spec = spec("dup")
        a.offer(my_spec, 0)
        session = a.active[0]
        with pytest.raises(ConfigurationError):
            a.attach(session, my_spec, 0)

    def test_pop_queued_unblocks_head_of_line(self):
        """Migrating a blocking queued spec away unblocks the line:
        the spec behind it may now fit."""
        heavy = spec("heavy", scale=12)   # qmin ~10.7M
        light1 = spec("light1", seed=8)   # qmin ~4.7M
        big = spec("big", scale=12, seed=9)
        light2 = spec("light2", seed=10)
        shard = make_shard(capacity=16e6)
        assert shard.offer(heavy, 0) is AdmissionDecision.ACCEPTED
        assert shard.offer(light1, 0) is AdmissionDecision.ACCEPTED
        assert shard.offer(big, 0) is AdmissionDecision.QUEUED
        assert shard.offer(light2, 0) is AdmissionDecision.QUEUED
        # a light departure frees capacity; every retry stops at the
        # blocked head-of-line ('big' still does not fit)
        shard.admission.release(light1.config)
        assert shard.admit_queued(1) == 0
        assert shard.admit_queued(2) == 0
        # migration pops 'big' -> 'light2' fits and starts on the
        # next retry
        assert shard.pop_queued("big") is not None
        assert shard.admit_queued(3) == 1
        assert "light2" in shard.spec_of

    def test_pop_queued(self):
        capacity = 1.2 * qmin_demand(spec("x").config)
        shard = make_shard(capacity=capacity)
        shard.offer(spec("running"), 0)
        shard.offer(spec("parked", seed=9), 0)
        popped = shard.pop_queued("parked")
        assert popped is not None and popped.name == "parked"
        assert shard.pop_queued("parked") is None
        assert not shard.queue


class TestValidation:
    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            Shard("bad", 0.0, WeightedShareArbiter())

    def test_duplicate_start_rejected(self):
        shard = make_shard(capacity=60e6)
        shard.offer(spec("same"), 0)
        with pytest.raises(ConfigurationError):
            shard.offer(spec("same"), 0)

    def test_result_snapshot(self):
        shard = make_shard()
        shard.offer(spec("a", frames=4), 0)
        rounds = 0
        while shard.busy:
            shard.step(rounds)
            rounds += 1
        result = shard.result("scenario-x", rounds)
        assert result.scenario_name == "scenario-x"
        assert result.served_count == 1
        assert result.capacity == shard.nominal_capacity
