"""Pre-drawn per-clip execution times: the state side of the engine split.

The scalar session used to draw each frame's stochastic action times
*while encoding it* (~10 generator calls per frame, on the hot path,
interleaved with scheduling).  A :class:`FrameTimeBank` instead draws
the **entire clip's** times once, at session construction, into dense
arrays:

* ``grab``  — ``(frames, macroblocks)`` Grab times,
* ``me``    — ``(frames, macroblocks, levels)`` Motion_Estimate times
  for every quality level (I-frames hold the intra cost in every
  column, mirroring :meth:`EncoderSimulation._draw_frame_times`),
* ``post``  — ``(frames, macroblocks)`` summed post-ME action times.

The bank also pre-fuses the decision kernels' per-macroblock constants
(see the :mod:`repro.engine.kernel` contract) so neither executor adds
them on the hot path:

* ``grab_plus`` — ``2.0 * overhead + grab``,
* ``me_plus``   — ``me + (7.0 * overhead + post)`` broadcast over
  levels.

:func:`fuse` is the one place that operation order is written: the bank
calls it once for the whole clip, and the paper simulation calls it on
each frame's own draws before handing them to the same kernel.  Both
the scalar and the batched kernels read the same bank, so cross-engine
bit-identity of the stochastic inputs is structural: there is exactly
one draw per (frame, macroblock, action), made before any engine runs.

Draw order is part of the determinism contract (same config + salt =>
same bank, independent of scheduling): per bulk pass over the whole
clip — (1) macroblock motion normals, (2) Grab betas, (3) post-ME betas
in ``_POST_ME_ACTIONS`` order with the compress motion scaling,
(4) Motion_Estimate betas per level in quality order, (5) I-frame rows
overwritten by intra draws in frame order.  Deterministic distributions
(``Cav == Cwc``) consume no randomness, exactly like ``sample_many``.

The order is fixed; how a step draws may change only if the stream
does not.  Unscaled laws (Grab, every post-ME action but Compress, the
intra rows) draw with scalar Beta parameters, which consume the same
stream as per-element ones at ~2/3 the cost, and the eight
Motion_Estimate levels draw in one level-major call
(:func:`~repro.platform.distributions.sample_stacked`), which is step
(4)'s level-by-level order.  ``tests/engine/test_engine_kernel.py``
assembles the bank from a one-call-per-law reference sampler and
compares every byte.

Unlike the per-frame scheme, the bank draws times for *every* frame of
the clip, including frames the timeline later skips — which is what
makes the draws independent of scheduling (and hence of the engine).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.platform.distributions import sample_stacked
from repro.sim.encoder_loop import _POST_ME_ACTIONS
from repro.video.pipeline import COMPRESS_ACTION, GRAB_ACTION


def fuse(
    overhead: float, grab: np.ndarray, me: np.ndarray, post: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(grab_plus, me_plus)`` for one frame's ``(N,)``/``(N, L)`` draws
    or a whole clip's (a leading frame axis on all three)."""
    return 2.0 * overhead + grab, me + (7.0 * overhead + post)[..., None]


class FrameTimeBank:
    """All stochastic action times for one session's clip.

    Parameters
    ----------
    simulation:
        The session's (shared) :class:`EncoderSimulation`; supplies the
        clip contents, the per-action time distributions, and the
        config's motion/load parameters.  Only read, never mutated.
    rng:
        The session-private timing generator (salted by stream id), to
        be consumed exactly once, here.
    """

    __slots__ = (
        "grab",
        "me",
        "post",
        "grab_plus",
        "me_plus",
        "frames",
        "macroblocks",
    )

    def __init__(self, simulation, rng: np.random.Generator) -> None:
        cfg = simulation.config
        contents = simulation.contents
        levels = simulation._levels
        frames = len(contents)
        count = cfg.macroblocks
        total = frames * count

        # (1) per-macroblock motion around each frame's activity, the
        # bulk form of video.content.macroblock_motion
        frame_motion = np.asarray(
            [content.motion_activity for content in contents], dtype=np.float64
        )
        mb_motion = np.clip(
            rng.normal(frame_motion[:, None], cfg.motion_spread, size=(frames, count)),
            0.02,
            0.98,
        )
        scales = cfg.load_model.scales(mb_motion)

        # (2) Grab, (3) post-ME sum with compress scaled by motion
        fixed = simulation._fixed_dists
        grab = fixed[GRAB_ACTION].sample_many(rng, total).reshape(frames, count)
        post = np.zeros((frames, count))
        compress_scale = 0.8 + cfg.compress_motion_slope * mb_motion
        for action in _POST_ME_ACTIONS:
            action_scales = (
                compress_scale.ravel() if action == COMPRESS_ACTION else 1.0
            )
            post += fixed[action].sample_many(rng, total, action_scales).reshape(
                frames, count
            )

        # (4) Motion_Estimate, every level in one level-major call;
        # (5) I-frames run intra at the minimum-level cost whatever the
        # controller asks for
        me_dists = simulation._me_dists
        me = np.ascontiguousarray(
            sample_stacked(rng, [me_dists[q] for q in levels], scales.ravel())
            .reshape(len(levels), frames, count)
            .transpose(1, 2, 0)
        )
        iframe_rows = [f for f, content in enumerate(contents) if content.is_iframe]
        if iframe_rows:
            qmin = simulation.quality_set.qmin
            intra = me_dists[qmin].sample_many(
                rng, len(iframe_rows) * count
            ).reshape(len(iframe_rows), count)
            me[iframe_rows] = intra[:, :, None]

        # the kernels' fused constants, folded in once at build time
        grab_plus, me_plus = fuse(cfg.decision_overhead, grab, me, post)

        for array in (grab, me, post, grab_plus, me_plus):
            array.setflags(write=False)
        self.grab = grab
        self.me = me
        self.post = post
        self.grab_plus = grab_plus
        self.me_plus = me_plus
        self.frames = frames
        self.macroblocks = count

    def frame_lists(self, frame: int) -> tuple[list, list]:
        """One frame's fused ``(grab_plus, me_plus)`` rows as Python lists.

        The scalar kernel's tight loop indexes lists, not arrays (array
        scalar extraction is ~5x slower per element); ``tolist()``
        preserves the exact IEEE doubles, so both kernels consume
        identical values.
        """
        return (
            self.grab_plus[frame].tolist(),
            self.me_plus[frame].tolist(),
        )


@lru_cache(maxsize=1024)
def bank_for(config, salt: str) -> FrameTimeBank:
    """The (shared, read-only) bank for one config and rng salt.

    The draws are a pure function of ``(config, salt)`` and the arrays
    are write-protected, so sessions recreated across runs — back-to-
    back benches, engine comparisons, ``reset()``-then-rerun — reuse
    one bank instead of re-drawing the whole clip.  Cleared by
    :func:`repro.sim.runner.reset_caches`.
    """
    from repro.sim.runner import simulation_for

    simulation = simulation_for(config)
    return FrameTimeBank(simulation, simulation._rng(salt))
