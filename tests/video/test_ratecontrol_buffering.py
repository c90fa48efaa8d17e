"""Tests for repro.video.ratecontrol."""

import pytest

from repro.errors import ConfigurationError
from repro.video.ratecontrol import RateControlConfig, VirtualBufferRateController


class TestRateControlConfig:
    def test_target_bits_per_frame(self):
        config = RateControlConfig(bitrate=1_100_000.0, fps=25.0)
        assert config.target_bits_per_frame == 44_000.0

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            RateControlConfig(bitrate=0.0)
        with pytest.raises(ConfigurationError):
            RateControlConfig(reaction=0.0)
        with pytest.raises(ConfigurationError):
            RateControlConfig(min_allocation_fraction=2.0, max_allocation_fraction=1.0)


class TestVirtualBufferRateController:
    def test_nominal_allocation_equals_target(self):
        controller = VirtualBufferRateController()
        assert controller.allocate() == controller.target

    def test_overspending_reduces_next_allocation(self):
        controller = VirtualBufferRateController()
        controller.commit(controller.target * 2)
        assert controller.allocate() < controller.target

    def test_underspending_raises_next_allocation(self):
        controller = VirtualBufferRateController()
        controller.commit(controller.target * 0.2)
        assert controller.allocate() > controller.target

    def test_skip_frees_almost_a_full_frame_of_bits(self):
        controller = VirtualBufferRateController()
        controller.commit_skip()
        boost = controller.allocate() - controller.target
        expected = controller.config.reaction * (
            controller.target - controller.config.skip_flag_bits
        )
        assert boost == pytest.approx(expected)

    def test_iframe_boost(self):
        controller = VirtualBufferRateController()
        assert controller.allocate(is_iframe=True) == pytest.approx(
            2.0 * controller.target
        )

    def test_allocation_clamped(self):
        controller = VirtualBufferRateController()
        for _ in range(50):
            controller.commit(controller.target * 3)  # massive overspend
        assert controller.allocate() >= 0.3 * controller.target
        for _ in range(100):
            controller.commit_skip()
        assert controller.allocate() <= 3.0 * controller.target

    def test_long_run_converges_to_bitrate(self):
        """Closed loop: spending what is allocated tracks the target rate."""
        controller = VirtualBufferRateController()
        for _ in range(500):
            controller.commit(controller.allocate())
        achieved = controller.achieved_bitrate()
        assert achieved == pytest.approx(controller.config.bitrate, rel=0.02)

    def test_negative_spend_rejected(self):
        with pytest.raises(ConfigurationError):
            VirtualBufferRateController().commit(-1.0)
