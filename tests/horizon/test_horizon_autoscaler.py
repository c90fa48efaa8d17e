"""The autoscaler subsystem: actions, policies, spec wiring.

Covers :class:`ScaleAction`'s structural validation, the
:class:`SignalAutoscaler` control loop driven hook-by-hook (window
timing, hysteresis, cooldown, both scale directions, both pressure
terms), :class:`ScheduledAutoscaler` replay, and the serving-spec
integration (registry construction, cluster-only validation).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.errors import ConfigurationError
from repro.horizon import (
    SCALE_KINDS,
    Autoscaler,
    ScaleAction,
    ScheduledAutoscaler,
    SignalAutoscaler,
)
from repro.serving.registry import AUTOSCALERS
from repro.serving.spec import ServingSpec


def fake_shard(shard_id="shard-0", capacity=1e6, active=(), queue=()):
    return SimpleNamespace(
        shard_id=shard_id,
        capacity=capacity,
        active=list(active),
        queue=list(queue),
    )


def fake_spec(name="s", service_class=None):
    return SimpleNamespace(name=name, service_class=service_class)


class TestScaleAction:
    def test_kinds_catalog(self):
        assert SCALE_KINDS == ("add", "remove", "split", "merge")

    def test_legal_shapes(self):
        add = ScaleAction(kind="add", capacities=[2e6])
        assert add.capacities == (2e6,) and add.provisioned == 2e6
        remove = ScaleAction(kind="remove", shards=["shard-1"])
        assert remove.shards == ("shard-1",) and remove.provisioned == 0.0
        split = ScaleAction(
            kind="split", shards=("shard-0",), capacities=(1e6, 1e6)
        )
        assert split.provisioned == 0.0
        merge = ScaleAction(kind="merge", shards=("a", "b"))
        assert merge.capacities == ()
        merged = ScaleAction(kind="merge", shards=("a", "b"),
                             capacities=(3e6,))
        assert merged.capacities == (3e6,)

    @pytest.mark.parametrize("kwargs", [
        {"kind": "grow", "capacities": (1e6,)},
        {"kind": "add"},
        {"kind": "add", "capacities": (1e6, 1e6)},
        {"kind": "add", "shards": ("shard-0",), "capacities": (1e6,)},
        {"kind": "add", "capacities": (-1e6,)},
        {"kind": "add", "capacities": (0.0,)},
        {"kind": "remove"},
        {"kind": "remove", "shards": ("a", "b")},
        {"kind": "remove", "shards": ("a",), "capacities": (1e6,)},
        {"kind": "split", "shards": ("a",), "capacities": (1e6,)},
        {"kind": "split", "shards": (), "capacities": (1e6, 1e6)},
        {"kind": "merge", "shards": ("a",)},
        {"kind": "merge", "shards": ("a", "b"), "capacities": (1e6, 2e6)},
        {"kind": "merge", "shards": ("a", "a")},
    ])
    def test_illegal_shapes_are_refused(self, kwargs):
        with pytest.raises(ConfigurationError):
            ScaleAction(**kwargs)

    def test_to_dict_round_trips_the_fields(self):
        action = ScaleAction(
            kind="split", shards=("shard-0",), capacities=(1e6, 2e6),
            reason="why",
        )
        assert action.to_dict() == {
            "kind": "split", "shards": ["shard-0"],
            "capacities": [1e6, 2e6], "reason": "why", "created": [],
            "action_id": "",
        }


class TestBasePolicy:
    def test_static_policy_never_scales(self):
        policy = Autoscaler()
        assert policy.observer() is None
        assert policy.plan([fake_shard()], 0) == []
        policy.reset()  # no-op, must not raise


class TestScheduledAutoscaler:
    def test_replays_actions_at_their_rounds_only(self):
        first = ScaleAction(kind="add", capacities=(1e6,))
        second = ScaleAction(kind="remove", shards=("shard-0",))
        policy = ScheduledAutoscaler(schedule=((3, first), (3, second),
                                               (7, first)))
        assert policy.plan([], 0) == []
        assert policy.plan([], 3) == [first, second]
        assert policy.plan([], 7) == [first]
        assert policy.plan([], 8) == []


class TestSignalValidation:
    @pytest.mark.parametrize("kwargs", [
        {"window": 0}, {"window": 2.5}, {"window": True},
        {"up_pressure": 0.0}, {"down_utilization": 0.0},
        {"down_utilization": 1.0}, {"sustain": 0}, {"cooldown": 0},
        {"down_quality": 0.0}, {"down_quality": -1.0}, {"min_shards": 0},
        {"min_shards": 4, "max_shards": 2},
    ])
    def test_bad_parameters_are_refused(self, kwargs):
        with pytest.raises(ConfigurationError):
            SignalAutoscaler(**kwargs)


class TestSignalControlLoop:
    """Drive the policy's private telemetry hook by hook."""

    def run_rounds(self, policy, shards, rounds, rejects_per_round=0):
        """Feed quiet-or-congested rounds; return all planned actions."""
        telemetry = policy.observer()
        actions = []
        for r in rounds:
            for shard in shards:
                telemetry.on_round(
                    r, {"x": shard.capacity}, shard.capacity,
                    shard_id=shard.shard_id,
                )
            for _ in range(rejects_per_round):
                telemetry.on_reject(fake_spec(), r)
            actions.extend((r, a) for a in policy.plan(shards, r))
        return actions

    def test_decisions_only_land_on_window_boundaries(self):
        policy = SignalAutoscaler(window=5, sustain=1, cooldown=5)
        shards = [fake_shard()]
        telemetry = policy.observer()
        telemetry.on_round(2, {}, 1e6, shard_id="shard-0")
        telemetry.on_reject(fake_spec(), 2)
        assert policy.plan(shards, 2) == []          # mid-window
        assert policy._up_streak == 0

    def test_sustained_rejections_scale_up(self):
        policy = SignalAutoscaler(window=4, sustain=2, cooldown=4)
        shards = [fake_shard(capacity=2e6)]
        actions = self.run_rounds(
            policy, shards, range(12), rejects_per_round=1
        )
        # windows close at rounds 3, 7 — two qualifying windows
        assert actions
        round_index, action = actions[0]
        assert round_index == 7
        assert action.kind == "add"
        assert action.capacities == (2e6,)   # mean of live shards

    def test_queue_backlog_alone_scales_up(self):
        policy = SignalAutoscaler(
            window=4, sustain=1, cooldown=4, up_pressure=0.15,
        )
        queued = [fake_spec(f"q{i}") for i in range(8)]
        shards = [fake_shard(queue=queued), fake_shard("shard-1")]
        # weighted backlog: 0.05 * 8 / 2 shards = 0.2 >= 0.15
        actions = self.run_rounds(policy, shards, range(4))
        assert [a.kind for _, a in actions] == ["add"]

    def test_one_noisy_window_is_hysteresis_filtered(self):
        policy = SignalAutoscaler(window=4, sustain=2, cooldown=4)
        shards = [fake_shard()]
        telemetry = policy.observer()
        # one congested window, then a busy (not quiet) one
        actions = self.run_rounds(policy, shards, range(4),
                                  rejects_per_round=2)
        actions += self.run_rounds(policy, shards, range(4, 8))
        assert actions == []

    def test_cooldown_spaces_consecutive_actions(self):
        policy = SignalAutoscaler(window=2, sustain=1, cooldown=9)
        shards = [fake_shard()]
        actions = self.run_rounds(
            policy, shards, range(20), rejects_per_round=1
        )
        rounds = [r for r, _ in actions]
        assert rounds
        assert all(b - a >= 9 for a, b in zip(rounds, rounds[1:]))

    def test_quiet_low_utilization_scales_down_the_emptiest(self):
        policy = SignalAutoscaler(
            window=4, sustain=2, cooldown=4, down_utilization=0.6
        )
        busy = fake_shard("shard-0", active=[1, 2, 3])
        idle = fake_shard("shard-1")
        telemetry = policy.observer()
        actions = []
        for r in range(8):
            # utilization 0.25: granted 0.5e6 of 2e6 across both pools
            for shard in (busy, idle):
                telemetry.on_round(
                    r, {"x": 0.25e6}, 1e6, shard_id=shard.shard_id
                )
            actions.extend(policy.plan([busy, idle], r))
        assert [a.kind for a in actions] == ["remove"]
        assert actions[0].shards == ("shard-1",)

    def test_quality_saturation_scales_down_at_full_utilization(self):
        # work-conserving arbiters grant the whole pool, so utilization
        # sits at 1.0 even when the fleet is twice the workload; the
        # down_quality signal must still shrink it
        policy = SignalAutoscaler(
            window=4, sustain=2, cooldown=4, down_quality=6.5
        )
        busy = fake_shard("shard-0", active=[1, 2])
        spare = fake_shard("shard-1", active=[3])
        telemetry = policy.observer()

        def departure(quality):
            return SimpleNamespace(
                spec=fake_spec(),
                result=SimpleNamespace(mean_quality=lambda: quality),
            )

        actions = []
        for r in range(8):
            for shard in (busy, spare):
                telemetry.on_round(
                    r, {"x": 1e6}, 1e6, shard_id=shard.shard_id
                )
            telemetry.on_depart(departure(6.8), r)
            actions.extend(policy.plan([busy, spare], r))
        assert [a.kind for a in actions] == ["remove"]
        assert actions[0].shards == ("shard-1",)

    def test_unsaturated_quality_does_not_scale_down(self):
        policy = SignalAutoscaler(
            window=4, sustain=1, cooldown=4, down_quality=6.5
        )
        telemetry = policy.observer()
        shards = [fake_shard("shard-0"), fake_shard("shard-1")]
        for r in range(4):
            for shard in shards:
                telemetry.on_round(
                    r, {"x": 1e6}, 1e6, shard_id=shard.shard_id
                )
            telemetry.on_depart(
                SimpleNamespace(
                    spec=fake_spec(),
                    result=SimpleNamespace(mean_quality=lambda: 4.0),
                ),
                r,
            )
        assert policy.plan(shards, 3) == []

    def test_min_shards_floor_blocks_scale_down(self):
        policy = SignalAutoscaler(
            window=4, sustain=1, cooldown=4, min_shards=1
        )
        only = fake_shard()
        telemetry = policy.observer()
        for r in range(4):
            telemetry.on_round(r, {"x": 0.1e6}, 1e6, shard_id="shard-0")
        assert policy.plan([only], 3) == []

    def test_max_shards_ceiling_blocks_scale_up(self):
        policy = SignalAutoscaler(
            window=2, sustain=1, cooldown=2, max_shards=1
        )
        shards = [fake_shard()]
        actions = self.run_rounds(policy, shards, range(4),
                                  rejects_per_round=3)
        assert actions == []

    def test_reset_clears_streaks_and_telemetry(self):
        policy = SignalAutoscaler(window=2, sustain=2, cooldown=2)
        shards = [fake_shard()]
        self.run_rounds(policy, shards, range(2), rejects_per_round=1)
        assert policy._up_streak == 1
        policy.reset()
        assert policy._up_streak == 0
        assert policy.observer().current()["rounds"] == 0

    def test_pressure_weights_gold_rejections_heavier(self):
        gold = SignalAutoscaler(classes=[
            {"name": "gold", "weight": 4.0},
        ])
        summary = {
            "renegotiations": 4,
            "renegotiations_down": 4,
            "renegotiation_density_by_class": {"gold": 0.5},
            "rounds": 10,
            "rejected": 0,
        }
        unweighted = dict(summary)
        unweighted["renegotiation_density_by_class"] = {"unclassed": 0.5}
        assert gold.pressure(summary) == pytest.approx(4.0 * 0.5)
        assert gold.pressure(unweighted) == pytest.approx(0.5)


class TestServingSpecIntegration:
    def test_signal_autoscaler_is_registered(self):
        assert "signal" in AUTOSCALERS.names()
        policy = AUTOSCALERS.create("signal", window=10)
        assert isinstance(policy, SignalAutoscaler)
        assert policy.window == 10

    def test_autoscaler_is_cluster_only(self):
        with pytest.raises(ConfigurationError, match="autoscaler"):
            ServingSpec.from_dict({
                "scenario": {"name": "steady"},
                "capacity": 24e6,
                "autoscaler": "signal",
            })

    def test_cluster_spec_round_trips_the_autoscaler(self):
        spec = ServingSpec.from_dict({
            "topology": "cluster",
            "scenario": {"name": "diurnal-cluster"},
            "placement": "best-fit",
            "autoscaler": {"name": "signal", "kwargs": {"window": 8}},
            "max_rounds": 40,
        })
        document = spec.to_dict()
        assert document["autoscaler"] == {
            "name": "signal", "kwargs": {"window": 8},
        }
        again = ServingSpec.from_dict(document)
        assert again.autoscaler == spec.autoscaler
