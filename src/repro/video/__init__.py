"""MPEG-4 encoder substrate.

The paper evaluates its controller on an STMicroelectronics MPEG-4
encoder.  That code is proprietary; this package provides the
documented substitute (DESIGN.md section 2):

* :mod:`repro.video.pipeline` — the Fig. 2 macroblock precedence graph
  with the published Fig. 5 timing tables;
* :mod:`repro.video.content` — the synthetic 582-frame / 9-sequence
  camera benchmark;
* :mod:`repro.video.rd_model` + :mod:`repro.video.ratecontrol` +
  :mod:`repro.video.encoder_model` — the analytic encoder (bits/PSNR);
* :mod:`repro.video.pixel` — a real pixel-level toy codec used to
  validate the analytic model's monotonicities.

The K-frame input buffer with skip-on-overflow is part of the stream
timeline, :class:`repro.sim.timeline.FrameTimeline`.
"""

from repro.video.content import (
    FrameContent,
    SequenceSpec,
    generate_content,
    paper_benchmark_sequences,
)
from repro.video.encoder_model import AnalyticEncoder
from repro.video.pipeline import (
    ME_ACTION,
    MACROBLOCK_ACTIONS,
    macroblock_application,
    macroblock_graph,
    paper_timing_tables,
)
from repro.video.ratecontrol import RateControlConfig, VirtualBufferRateController
from repro.video.rd_model import RateDistortionModel

__all__ = [
    "AnalyticEncoder",
    "FrameContent",
    "MACROBLOCK_ACTIONS",
    "ME_ACTION",
    "RateControlConfig",
    "RateDistortionModel",
    "SequenceSpec",
    "VirtualBufferRateController",
    "generate_content",
    "macroblock_application",
    "macroblock_graph",
    "paper_benchmark_sequences",
    "paper_timing_tables",
]
