"""Analytic frame encoder: content + qualities + rate control -> bits, PSNR.

Combines the rate-distortion model and the virtual-buffer rate
controller into the per-frame encoder the simulation loop calls.  The
*timing* side of encoding (cycles consumed) lives in the platform
simulator; this module owns only the signal side (bits and PSNR), so
the two concerns stay independently testable.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.video.content import FrameContent
from repro.video.ratecontrol import VirtualBufferRateController
from repro.video.rd_model import RateDistortionModel

#: PAL SD frame: 720 x 576 luma pixels (1620 macroblocks of 256 pixels).
DEFAULT_FRAME_PIXELS = 720 * 576


class AnalyticEncoder:
    """Per-frame bits/PSNR production (the encoder's signal path).

    Parameters
    ----------
    rd_model:
        The rate-distortion model.
    rate_controller:
        Stateful bit allocator (one per run).
    pixels:
        Luma pixels per frame.
    rng:
        Source of the small spending noise (a real encoder never hits
        its allocation exactly; quantizer steps are discrete).
    bits_noise:
        Log-normal sigma of spending around the allocation.
    """

    def __init__(
        self,
        rd_model: RateDistortionModel | None = None,
        rate_controller: VirtualBufferRateController | None = None,
        pixels: int = DEFAULT_FRAME_PIXELS,
        rng: np.random.Generator | None = None,
        bits_noise: float = 0.05,
    ) -> None:
        if pixels <= 0:
            raise ConfigurationError("pixels must be positive")
        self.rd_model = rd_model if rd_model is not None else RateDistortionModel()
        self.rate_controller = (
            rate_controller if rate_controller is not None else VirtualBufferRateController()
        )
        self.pixels = pixels
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.bits_noise = bits_noise

    def encode_frame(
        self, content: FrameContent, qualities
    ) -> tuple[float, float]:
        """Encode one frame at the given per-macroblock (or scalar)
        qualities; returns its ``(psnr, bits)``."""
        allocation = self.rate_controller.allocate(is_iframe=content.is_iframe)
        spent = allocation
        if self.bits_noise > 0:
            spent = float(
                allocation * np.exp(self.rng.normal(0.0, self.bits_noise))
            )
        psnr = self.rd_model.encoded_psnr(content, qualities, spent, self.pixels)
        self.rate_controller.commit(spent)
        return psnr, spent

    def skip_frame(self, content: FrameContent) -> tuple[float, float]:
        """Account a skipped frame (previous frame redisplayed); returns
        its ``(psnr, bits)``."""
        self.rate_controller.commit_skip()
        return (
            self.rd_model.skip_psnr(content),
            self.rate_controller.config.skip_flag_bits,
        )
