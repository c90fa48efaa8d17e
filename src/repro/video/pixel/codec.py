"""The toy encoder/decoder: motion search + DCT + quantization.

One class drives the whole per-frame pipeline of
:mod:`repro.video.pixel`; the decoder is implicit (the encoder
reconstructs exactly what a decoder would, and uses it as the next
reference — closed-loop prediction, like the paper's
``Inverse_Quantize -> Inverse_DCT -> Reconstruct`` chain in Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.video.pixel.bits import estimate_frame_bits, estimate_motion_bits
from repro.video.pixel.dct import blockwise_dct, blockwise_idct
from repro.video.pixel.motion import motion_compensate, motion_search
from repro.video.pixel.quant import dequantize, quantize, step_for_quantizer
from repro.video.psnr import psnr


@dataclass(frozen=True)
class EncodedFrame:
    """Everything the toy codec produced for one frame."""

    index: int
    is_iframe: bool
    quality: int
    quantizer: int
    bits: float
    psnr: float
    reconstructed: np.ndarray
    motion_vectors: np.ndarray | None


class ToyVideoCodec:
    """A stateful encoder over a frame sequence.

    Parameters
    ----------
    quantizer:
        MPEG-style quantizer parameter (1..31); fixed here — rate
        control experiments live in the analytic model.
    """

    def __init__(self, quantizer: int = 8):
        self.quantizer = quantizer
        self.step = step_for_quantizer(quantizer)
        self._reference: np.ndarray | None = None
        self._frames_encoded = 0

    def reset(self) -> None:
        self._reference = None
        self._frames_encoded = 0

    def encode_frame(
        self, frame: np.ndarray, quality: int, force_iframe: bool = False
    ) -> EncodedFrame:
        """Encode one frame; the first (or a forced) frame is intra."""
        original = np.asarray(frame, dtype=np.float64)
        intra = force_iframe or self._reference is None
        if intra:
            vectors = None
            prediction = np.zeros_like(original)
        else:
            vectors = motion_search(original, self._reference, quality)
            prediction = motion_compensate(self._reference, vectors)
        residual = original - prediction
        levels = quantize(blockwise_dct(residual), self.step)
        reconstructed_residual = blockwise_idct(dequantize(levels, self.step))
        reconstructed = np.clip(prediction + reconstructed_residual, 0, 255)

        bits = estimate_frame_bits(levels)
        if vectors is not None:
            bits += estimate_motion_bits(vectors)
        quality_psnr = psnr(original, reconstructed)

        self._reference = reconstructed
        encoded = EncodedFrame(
            index=self._frames_encoded,
            is_iframe=intra,
            quality=quality,
            quantizer=self.quantizer,
            bits=bits,
            psnr=quality_psnr,
            reconstructed=reconstructed,
            motion_vectors=vectors,
        )
        self._frames_encoded += 1
        return encoded

    def encode_sequence(
        self, frames, qualities, scene_starts=()
    ) -> list[EncodedFrame]:
        """Encode a whole sequence with per-frame quality levels."""
        frames = list(frames)
        if isinstance(qualities, int):
            qualities = [qualities] * len(frames)
        if len(qualities) != len(frames):
            raise ConfigurationError(
                f"{len(frames)} frames but {len(qualities)} quality levels"
            )
        starts = set(scene_starts)
        return [
            self.encode_frame(frame, quality, force_iframe=(index in starts))
            for index, (frame, quality) in enumerate(zip(frames, qualities))
        ]
