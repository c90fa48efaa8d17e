"""System simulation: camera -> input buffer -> encoder (+controller) -> output.

This package reproduces the paper's experimental setup (Fig. 3): a
camera produces a frame every ``P`` cycles into an input buffer of size
``K``; the encoder consumes frames FIFO; arrivals that find the buffer
full are skipped.  There is one timeline, :mod:`repro.sim.timeline`,
walked by the paper simulation and by every serving stream; the camera
is its arrival rule (frame ``f`` at ``f * P``), not a class.  The
encoder's compute time per frame comes from the platform timing model;
its bits/PSNR from the analytic encoder model.
"""

from repro.sim.encoder_loop import EncoderSimulation, SimulationConfig
from repro.sim.results import FrameRecord, RunResult
from repro.sim.runner import (
    run_adaptive,
    run_constant,
    run_controlled,
    run_paper_comparison,
)

__all__ = [
    "EncoderSimulation",
    "FrameRecord",
    "RunResult",
    "SimulationConfig",
    "run_adaptive",
    "run_constant",
    "run_controlled",
    "run_paper_comparison",
]
