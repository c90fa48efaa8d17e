"""Integration tests for repro.sim.encoder_loop: the full system simulation.

Uses the tiny configuration (81 macroblocks, 60 frames) — the same
dynamics as the paper-scale run, sized for CI.
"""

import numpy as np
import pytest

from repro.core.policies import FixedQualityPolicy, MaximalQualityPolicy
from repro.errors import ConfigurationError
from repro.experiments.configs import tiny_config
from repro.sim.encoder_loop import EncoderSimulation, SimulationConfig


@pytest.fixture(scope="module")
def simulation():
    return EncoderSimulation(tiny_config())


class TestConfigValidation:
    def test_defaults_are_paper_scale(self):
        config = SimulationConfig()
        assert config.period == 320e6
        assert config.macroblocks == 1620
        assert config.frame_pixels == 720 * 576
        assert config.nominal_budget == 320e6

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(period=0.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(buffer_capacity=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(macroblocks=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(decision_overhead=-1.0)

    def test_frames_truncation(self):
        simulation = EncoderSimulation(tiny_config(frames=10))
        assert len(simulation.contents) == 10


class TestControlledRun:
    def test_zero_skips_zero_misses(self, simulation):
        result = simulation.run_controlled()
        assert result.skip_count == 0
        assert result.deadline_miss_count == 0
        assert result.degraded_step_count == 0

    def test_every_frame_within_budget(self, simulation):
        result = simulation.run_controlled()
        for frame in result.frames:
            assert frame.encode_cycles <= frame.budget + 1e-6

    def test_latency_bounded_by_one_period(self, simulation):
        result = simulation.run_controlled()
        assert result.max_latency() <= simulation.config.period + 1e-6

    def test_quality_spans_levels_with_load(self, simulation):
        result = simulation.run_controlled()
        qualities = result.quality_series()
        assert np.nanmax(qualities) >= 5.0  # easy content rides high
        # bursts force downgrades: some frame averages near the middle
        # of Q, and individual macroblocks pushed down to level 4
        assert np.nanmin(qualities) <= 4.1
        mins = [f.min_quality for f in result.frames if not f.skipped]
        assert min(mins) <= 4

    def test_deterministic_given_config(self):
        first = EncoderSimulation(tiny_config()).run_controlled()
        second = EncoderSimulation(tiny_config()).run_controlled()
        assert list(first.psnr_series()) == list(second.psnr_series())
        assert first.summary() == second.summary()

    def test_decisions_counted(self, simulation):
        result = simulation.run_controlled()
        encoded = [f for f in result.frames if not f.skipped]
        assert all(f.decisions == simulation.config.macroblocks for f in encoded)

    def test_granularity_reduces_decisions(self, simulation):
        result = simulation.run_controlled(granularity=9)
        encoded = [f for f in result.frames if not f.skipped]
        expected = -(-simulation.config.macroblocks // 9)  # ceil division
        assert all(f.decisions == expected for f in encoded)

    def test_invalid_arguments(self, simulation):
        with pytest.raises(ConfigurationError):
            simulation.run_controlled(constraint_mode="bogus")
        with pytest.raises(ConfigurationError):
            simulation.run_controlled(granularity=0)
        with pytest.raises(ConfigurationError, match="granularity"):
            simulation.run_controlled(granularity=2.5)
        policy = MaximalQualityPolicy()
        with pytest.raises(ConfigurationError, match="constraint_mode"):
            simulation.run_controlled_with_policy(
                policy, "bad-mode", constraint_mode="bogus"
            )
        for granularity in (0, -1, 2.5, True):
            with pytest.raises(ConfigurationError, match="granularity"):
                simulation.run_controlled_with_policy(
                    policy, "bad-granularity", granularity=granularity
                )


class TestConstantRun:
    def test_constant_quality_recorded(self, simulation):
        result = simulation.run_constant(3)
        encoded = [f for f in result.frames if not f.skipped]
        assert all(f.mean_quality == 3.0 for f in encoded)
        assert all(f.controller_cycles == 0.0 for f in encoded)

    def test_high_quality_overloads_and_skips(self, simulation):
        # the tiny config's 60-frame prefix is the calm first sequence
        # (motion ~0.25), so q=6 is only marginally loaded there; q=7 at
        # ~124 % average load overruns even on calm content
        result = simulation.run_constant(7)
        assert result.skip_count > 0

    def test_low_quality_never_skips(self, simulation):
        result = simulation.run_constant(0)
        assert result.skip_count == 0

    def test_invalid_quality(self, simulation):
        with pytest.raises(ConfigurationError):
            simulation.run_constant(99)


class TestBufferSemantics:
    def test_bigger_buffer_reduces_skips(self):
        from dataclasses import replace

        base = tiny_config()
        k1 = EncoderSimulation(replace(base, buffer_capacity=1)).run_constant(5)
        k3 = EncoderSimulation(replace(base, buffer_capacity=3)).run_constant(5)
        assert k3.skip_count <= k1.skip_count

    def test_budget_shrinks_when_started_late(self):
        """With K=2, queued frames start late and get budget < K*P."""
        from dataclasses import replace

        config = replace(tiny_config(), buffer_capacity=2)
        simulation = EncoderSimulation(config)
        result = simulation.run_controlled()
        budgets = [f.budget for f in result.frames if not f.skipped]
        assert max(budgets) <= 2 * config.period + 1e-6
        # controlled with K=2 has slack to start late at least sometimes
        assert min(budgets) < 2 * config.period


class TestPolicyAndSignalIntegration:
    def test_policy_run_is_safe(self, simulation):
        result = simulation.run_controlled_with_policy(
            FixedQualityPolicy(2), label="fixed2"
        )
        assert result.skip_count == 0
        assert result.deadline_miss_count == 0
        encoded = [f for f in result.frames if not f.skipped]
        # fixed policy requests q=2 whenever feasible
        assert np.mean([f.mean_quality for f in encoded]) <= 2.5

    def test_iframes_marked(self, simulation):
        result = simulation.run_controlled()
        assert result.frames[0].is_iframe
        iframe_count = sum(1 for f in result.frames if f.is_iframe)
        assert iframe_count == len({c.sequence for c in simulation.contents})

    def test_psnr_assigned_to_every_frame(self, simulation):
        result = simulation.run_controlled()
        assert all(np.isfinite(f.psnr) for f in result.frames)

    def test_bits_track_rate_target(self, simulation):
        result = simulation.run_controlled()
        target = simulation.config.rate_control.target_bits_per_frame
        mean_bits = np.mean([f.bits for f in result.frames])
        assert abs(mean_bits - target) / target < 0.15


class TestPolicyLoopMatchesKernel:
    """The smoothness-policy loop is the kernel's decision loop with a
    policy choosing: under the paper's maximal policy it must return
    the policy-less (kernel) frame bit for bit."""

    @pytest.fixture(scope="class")
    def simulations(self):
        return [
            EncoderSimulation(tiny_config()),
            EncoderSimulation(tiny_config(seed=3, frames=42)),
        ]

    @pytest.mark.parametrize("granularity", [1, 2, 9])
    @pytest.mark.parametrize("mode", ["both", "average", "worst"])
    def test_maximal_policy_returns_the_kernel_frame(
        self, simulations, mode, granularity
    ):
        policy = MaximalQualityPolicy()
        compared = 0
        for simulation in simulations:
            nominal = simulation.config.nominal_budget
            for scale in (1.0, 0.7, 0.3):
                for content in simulation.contents:
                    kernel, looped = (
                        simulation._encode_controlled_frame(
                            np.random.default_rng(content.index),
                            content,
                            scale * nominal,
                            mode,
                            granularity,
                            policy=chosen,
                        )
                        for chosen in (None, policy)
                    )
                    assert looped.cycles == kernel.cycles
                    assert looped.qualities == kernel.qualities
                    assert looped.degraded == kernel.degraded
                    assert looped.decisions == kernel.decisions
                    compared += 1
        assert compared == 3 * (60 + 42)
