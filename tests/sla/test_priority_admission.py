"""Priority admission: class-ordered queues, queued-spec preemption."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.configs import scaled_config
from repro.sla import PriorityAdmissionController, ServiceClass
from repro.streams.admission import AdmissionDecision, qmin_demand
from repro.streams.scenarios import StreamSpec


def small_config(seed=1, frames=5):
    return scaled_config(scale=27, seed=seed, frames=frames)


def spec(name, service_class, seed=1):
    return StreamSpec(name, 0, small_config(seed=seed), service_class=service_class)


def tight_controller(**kwargs):
    """Room for exactly one qmin stream: everybody else queues."""
    config = small_config()
    return PriorityAdmissionController(
        capacity=1.5 * qmin_demand(config), **kwargs
    )


class TestPriorityDrain:
    def test_gold_drains_before_earlier_bronze(self):
        controller = tight_controller()
        first = spec("keeper", "bronze", seed=9)
        assert controller.offer(first).decision is AdmissionDecision.ACCEPTED
        b = spec("waiting-bronze", "bronze", seed=2)
        g = spec("waiting-gold", "gold", seed=3)
        assert controller.offer(b).decision is AdmissionDecision.QUEUED
        assert controller.offer(g).decision is AdmissionDecision.QUEUED
        controller.release(first.config)
        admitted = controller.admit_queued()
        # gold queued later but drains first
        assert [s.name for s in admitted] == ["waiting-gold"]
        controller.release(g.config)
        assert [s.name for s in controller.admit_queued()] == ["waiting-bronze"]

    def test_fifo_within_a_priority(self):
        controller = tight_controller()
        keeper = spec("keeper", "bronze", seed=9)
        controller.offer(keeper)
        early = spec("early-gold", "gold", seed=2)
        late = spec("late-gold", "gold", seed=3)
        controller.offer(early)
        controller.offer(late)
        controller.release(keeper.config)
        assert [s.name for s in controller.admit_queued()] == ["early-gold"]

    def test_highest_priority_head_blocks_the_line(self):
        # strict priority: while the gold head does not fit, feasible
        # bronze behind it must NOT be admitted around it
        config = small_config()
        controller = PriorityAdmissionController(
            capacity=1.5 * qmin_demand(config)
        )
        keeper = spec("keeper", "bronze", seed=9)
        controller.offer(keeper)
        controller.offer(spec("gold-head", "gold", seed=2))
        controller.offer(spec("bronze-tail", "bronze", seed=3))
        # nothing released: no admissions at all
        assert controller.admit_queued() == []
        assert len(controller.queue) == 2


class TestPreemption:
    def test_gold_evicts_queued_bronze_when_full(self):
        controller = tight_controller(queue_limit=1)
        keeper = spec("keeper", "bronze", seed=9)
        controller.offer(keeper)
        bronze = spec("victim", "bronze", seed=2)
        assert controller.offer(bronze).decision is AdmissionDecision.QUEUED
        verdict = controller.offer(spec("gold", "gold", seed=3))
        assert verdict.decision is AdmissionDecision.QUEUED
        assert [s.name for s in verdict.preempted] == ["victim"]
        assert [s.name for s in controller.queue] == ["gold"]
        assert controller.preempted_count == 1
        # the eviction is the victim's final rejection — counted once
        assert controller.rejected_count == 1

    def test_latest_of_the_lowest_priority_loses(self):
        controller = tight_controller(queue_limit=3)
        controller.offer(spec("keeper", "bronze", seed=9))
        controller.offer(spec("b-old", "bronze", seed=2))
        controller.offer(spec("s-mid", "silver", seed=3))
        controller.offer(spec("b-new", "bronze", seed=4))
        verdict = controller.offer(spec("gold", "gold", seed=5))
        assert [s.name for s in verdict.preempted] == ["b-new"]
        assert [s.name for s in controller.queue] == ["b-old", "s-mid", "gold"]

    def test_no_preemption_without_rights_or_lower_victim(self):
        controller = tight_controller(queue_limit=1)
        controller.offer(spec("keeper", "bronze", seed=9))
        controller.offer(spec("queued-gold", "gold", seed=2))
        # bronze has no preempt right: plain rejection on a full queue
        verdict = controller.offer(spec("bronze", "bronze", seed=3))
        assert verdict.decision is AdmissionDecision.REJECTED
        assert verdict.preempted == ()
        # gold may preempt, but only strictly lower priorities
        verdict = controller.offer(spec("second-gold", "gold", seed=4))
        assert verdict.decision is AdmissionDecision.REJECTED
        assert controller.preempted_count == 0
        assert [s.name for s in controller.queue] == ["queued-gold"]

    def test_running_streams_are_never_preempted(self):
        # an accepted stream's commitment is untouched by any later
        # gold arrival — only the queue is ever evicted
        controller = tight_controller(queue_limit=0)
        keeper = spec("keeper", "bronze", seed=9)
        controller.offer(keeper)
        committed_before = controller.committed
        verdict = controller.offer(spec("gold", "gold", seed=2))
        assert verdict.decision is AdmissionDecision.REJECTED
        assert verdict.preempted == ()
        assert controller.committed == committed_before

    def test_unbounded_queue_never_preempts(self):
        controller = tight_controller()
        controller.offer(spec("keeper", "bronze", seed=9))
        controller.offer(spec("victim", "bronze", seed=2))
        verdict = controller.offer(spec("gold", "gold", seed=3))
        assert verdict.decision is AdmissionDecision.QUEUED
        assert verdict.preempted == ()
        assert controller.preempted_count == 0


class TestCatalogAndReset:
    def test_custom_catalog_controls_priorities(self):
        vip = ServiceClass(
            "vip", weight=2.0, admission_priority=5, preempt=True
        )
        basic = ServiceClass("basic", weight=1.0, admission_priority=0)
        controller = PriorityAdmissionController(
            capacity=1.5 * qmin_demand(small_config()),
            queue_limit=1,
            classes=[vip, basic],
        )
        controller.offer(spec("keeper", "basic", seed=9))
        controller.offer(spec("victim", "basic", seed=2))
        verdict = controller.offer(spec("vip", "vip", seed=3))
        assert [s.name for s in verdict.preempted] == ["victim"]

    def test_unclassed_streams_queue_at_lowest_priority(self):
        controller = tight_controller()
        assert controller.priority_of(spec("x", None)) == 0
        assert not controller.may_preempt(spec("x", None))

    def test_reset_clears_preemption_state(self):
        controller = tight_controller(queue_limit=1)
        controller.offer(spec("keeper", "bronze", seed=9))
        controller.offer(spec("victim", "bronze", seed=2))
        controller.offer(spec("gold", "gold", seed=3))
        assert controller.preempted_count == 1
        controller.reset()
        assert controller.preempted_count == 0
        assert controller.rejected_count == 0
        assert not controller.queue

    def test_queue_limit_zero_still_validates(self):
        with pytest.raises(ConfigurationError):
            PriorityAdmissionController(capacity=1e6, queue_limit=-1)
