"""Mid-stream renegotiation: targets step down under starvation, back up."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.configs import scaled_config
from repro.sla import GOLD, StepRenegotiation
from repro.streams.session import StreamSession


def session(policy=None, frames=30, target=GOLD.target_quality,
            floor=GOLD.min_quality):
    return StreamSession(
        stream_id="s",
        config=scaled_config(scale=27, seed=3, frames=frames),
        service_class="gold",
        quality_target=target,
        quality_floor=floor,
        renegotiation=policy,
    )


def starve(s, rounds):
    """Step with a grant far below dedicated speed."""
    events = []
    for _ in range(rounds):
        renegotiated = s.step(0.05 * s.demand)
        if renegotiated is not None:
            events.append(renegotiated)
    return events


class TestStepDown:
    def test_sustained_starvation_steps_the_target_down(self):
        policy = StepRenegotiation(patience=2, step=0.1)
        s = session(policy)
        events = starve(s, 10)
        assert events, "expected at least one step down"
        old, new = events[0]
        assert old == pytest.approx(GOLD.target_quality)
        assert new == pytest.approx(GOLD.target_quality - 0.1)
        assert s.renegotiation_count == len(events)
        # every event is a strict step in one direction, floor-clamped
        for old, new in events:
            assert new < old
            assert new >= GOLD.min_quality

    def test_target_never_steps_below_the_class_floor(self):
        policy = StepRenegotiation(patience=1, step=0.3)
        s = session(policy)
        starve(s, 20)
        assert s.quality_target == pytest.approx(GOLD.min_quality)
        count = s.renegotiation_count
        starve(s, 5)
        assert s.renegotiation_count == count  # parked at the floor

    def test_no_policy_means_no_renegotiation(self):
        s = session(None)
        assert starve(s, 8) == []
        assert s.quality_target == pytest.approx(GOLD.target_quality)

    def test_unclassed_session_never_renegotiates(self):
        s = StreamSession(
            stream_id="u",
            config=scaled_config(scale=27, seed=3, frames=20),
            renegotiation=StepRenegotiation(patience=1),
        )
        assert math.isnan(s.quality_target)
        for _ in range(6):
            assert s.step(0.05 * s.demand) is None
        assert s.renegotiation_count == 0


class TestStepUp:
    def test_headroom_steps_the_target_back_up(self):
        policy = StepRenegotiation(patience=1, recovery_patience=2, step=0.2)
        s = session(policy)
        starve(s, 6)
        stepped_down = s.quality_target
        assert stepped_down < GOLD.target_quality
        # dedicated-speed grants: recovery after recovery_patience rounds
        ups = []
        for _ in range(10):
            renegotiated = s.step(1.2 * s.demand)
            if renegotiated is not None:
                ups.append(renegotiated)
            if s.finished:
                break
        assert ups, "expected a step back up"
        assert all(new > old for old, new in ups)
        # never above the original contract
        assert s.quality_target <= GOLD.target_quality + 1e-12

    def test_counters_reset_between_directions(self):
        policy = StepRenegotiation(patience=3, recovery_patience=3)
        s = session(policy)
        # alternate starved/headroom rounds: neither side accumulates
        for i in range(12):
            grant = 0.05 * s.demand if i % 2 == 0 else 1.2 * s.demand
            s.step(grant)
        assert s.renegotiation_count == 0


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"patience": 0},
            {"recovery_patience": 0},
            {"step": 0.0},
            {"step": -0.1},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            StepRenegotiation(**kwargs)

    def test_session_target_validation(self):
        with pytest.raises(ConfigurationError):
            session(target=1.5)
        with pytest.raises(ConfigurationError):
            session(target=0.3, floor=0.6)
