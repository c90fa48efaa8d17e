"""Tests for repro.video.encoder_model: the analytic frame encoder."""

import numpy as np
import pytest

from repro.video.content import FrameContent
from repro.video.encoder_model import AnalyticEncoder
from repro.video.ratecontrol import VirtualBufferRateController


def frame(index=0, motion=0.4, iframe=False):
    return FrameContent(
        index=index,
        sequence=0,
        frame_in_sequence=index,
        is_scene_start=iframe,
        motion_activity=motion,
        texture_variance=400.0,
    )


@pytest.fixture
def encoder():
    return AnalyticEncoder(rng=np.random.default_rng(3), bits_noise=0.0)


class TestEncodeFrame:
    def test_outcome_fields(self, encoder):
        psnr, bits = encoder.encode_frame(frame(), qualities=3)
        assert bits > 0
        assert 12.0 < psnr < 50.0

    def test_rate_controller_committed(self, encoder):
        before = encoder.rate_controller.frames_committed
        encoder.encode_frame(frame(), qualities=3)
        assert encoder.rate_controller.frames_committed == before + 1

    def test_bits_noise_perturbs_spending(self):
        noisy = AnalyticEncoder(rng=np.random.default_rng(1), bits_noise=0.2)
        spent = {noisy.encode_frame(frame(i), 3)[1] for i in range(5)}
        assert len(spent) == 5  # all different

    def test_quality_improves_psnr(self, encoder):
        low_psnr, _ = encoder.encode_frame(frame(0), qualities=1)
        high_psnr, _ = encoder.encode_frame(frame(1), qualities=7)
        assert high_psnr > low_psnr


class TestSkipFrame:
    def test_skip_outcome(self, encoder):
        psnr, bits = encoder.skip_frame(frame())
        assert psnr < 25.0
        assert bits == encoder.rate_controller.config.skip_flag_bits

    def test_skip_frees_bits_for_the_next_frame(self):
        """The paper's observation behind Figs. 8/9."""
        with_skip = AnalyticEncoder(
            rate_controller=VirtualBufferRateController(),
            rng=np.random.default_rng(0),
            bits_noise=0.0,
        )
        without_skip = AnalyticEncoder(
            rate_controller=VirtualBufferRateController(),
            rng=np.random.default_rng(0),
            bits_noise=0.0,
        )
        with_skip.skip_frame(frame(0))
        without_skip.encode_frame(frame(0), 3)
        psnr_after_skip, bits_after_skip = with_skip.encode_frame(frame(1), 3)
        psnr_after_encode, bits_after_encode = without_skip.encode_frame(
            frame(1), 3
        )
        assert bits_after_skip > bits_after_encode
        assert psnr_after_skip > psnr_after_encode

    def test_invalid_pixels_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            AnalyticEncoder(pixels=0)
