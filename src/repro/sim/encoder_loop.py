"""The encoder system simulation (Fig. 3): camera, buffers, encoder, controller.

The camera/buffer/encoder timeline and the display-order signal pass
are :class:`repro.sim.timeline.FrameTimeline`, the one implementation
of the paper's section-3 rules that every serving stream walks too;
this module walks it at speed 1.0 with one decision per frame:

* the *controlled* encoder runs the table-driven QoS controller inside
  the frame: at every macroblock's ``Motion_Estimate`` the maximal
  quality satisfying ``Qual_Const`` at the current cycle count is
  selected.  Decisions at the other actions would be no-ops (their
  times are quality-independent — Fig. 5), so the simulation evaluates
  the constraint only where it can change the outcome while still
  charging instrumentation overhead at *every* action boundary.  The
  decision is the serving engine's own kernel
  (:func:`repro.engine.kernel.scalar_decide`) run on the frame's draws;
* the *constant-quality* encoder (industrial practice baseline) encodes
  every frame at a fixed level, pays no instrumentation, and overruns
  freely — overruns surface as buffer overflows, i.e. skips.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from repro.core.action import QualitySet
from repro.core.controller import CONSTRAINT_MODES
from repro.core.policies import DecisionContext
from repro.core.tables import ControllerTables
from repro.core.timing import QualityTimeTable
from repro.errors import ConfigurationError
from repro.platform.distributions import BoundedTimeDistribution
from repro.sim.results import RunResult
from repro.sim.timeline import EncodeJob, FrameTimeline
from repro.video.content import (
    FrameContent,
    MotionLoadModel,
    generate_content,
    macroblock_motion,
)
from repro.video.pipeline import (
    COMPRESS_ACTION,
    ENCODER_QUALITY_LEVELS,
    FIXED_ACTION_TIMES,
    GRAB_ACTION,
    MACROBLOCK_ACTIONS,
    ME_ACTION,
    MOTION_ESTIMATE_TIMES,
    macroblock_application,
)
from repro.video.ratecontrol import RateControlConfig
from repro.video.rd_model import RateDistortionModel

#: Actions executed after Motion_Estimate within a macroblock.
_POST_ME_ACTIONS = tuple(
    a for a in MACROBLOCK_ACTIONS if a not in (GRAB_ACTION, ME_ACTION)
)


def _inflate_application(
    macroblocks: int,
    decision_overhead: float,
    average_times: QualityTimeTable | None = None,
):
    """The application with instrumentation overhead folded into the
    timing tables (every action's Cav/Cwc grows by the per-boundary
    overhead), exactly as the paper's compiler accounts for its own
    generated code — so the safety guarantee covers the instrumented
    application.  ``average_times`` (raw, un-inflated) overrides the
    published averages — the hook the learning controller uses.
    """
    application = macroblock_application(macroblocks)
    if average_times is not None:
        application = replace(application, average_times=average_times)
    if decision_overhead > 0:
        av_entries: dict[str, object] = {}
        wc_entries: dict[str, object] = {}
        base_av = application.average_times
        base_wc = application.worst_times
        for action in MACROBLOCK_ACTIONS:
            av_entries[action] = {
                q: base_av.time(action, q) + decision_overhead
                for q in ENCODER_QUALITY_LEVELS
            }
            wc_entries[action] = {
                q: base_wc.time(action, q) + decision_overhead
                for q in ENCODER_QUALITY_LEVELS
            }
        application = replace(
            application,
            average_times=QualityTimeTable(ENCODER_QUALITY_LEVELS, av_entries),
            worst_times=QualityTimeTable(ENCODER_QUALITY_LEVELS, wc_entries),
        )
    return application


@dataclass(frozen=True)
class CompiledController:
    """A compiled controller, shared across same-shape simulations.

    Everything here is a pure function of ``(macroblocks,
    nominal_budget, decision_overhead)`` — neither the content seed nor
    the rate-control/RD parameters enter table compilation — so a fleet
    of same-shape streams that differ only in content shares ONE table
    compile (the dominant construction cost).  All fields are treated
    as read-only by every holder.
    """

    application: object
    system: object
    tables: ControllerTables
    rows: dict
    me_positions: tuple


@lru_cache(maxsize=64)
def compiled_controller(
    macroblocks: int, nominal_budget: float, decision_overhead: float
) -> CompiledController:
    """Compile (and memoize) the controller tables for one shape."""
    application = _inflate_application(macroblocks, decision_overhead)
    system = application.system(budget=nominal_budget)
    system.validate()
    tables = ControllerTables.from_system(system)
    rows = {
        "both": tables.combined_bound.tolist(),
        "average": tables.average_bound.tolist(),
        "worst": tables.worst_bound.tolist(),
    }
    return CompiledController(
        application=application,
        system=system,
        tables=tables,
        rows=rows,
        me_positions=tuple(application.positions_of(ME_ACTION)),
    )


def validate_controller_settings(constraint_mode: str, granularity: int = 1) -> None:
    """Require a known constraint mode and an ``int`` granularity >= 1."""
    if constraint_mode not in CONSTRAINT_MODES:
        raise ConfigurationError(
            f"constraint_mode: must be one of {CONSTRAINT_MODES}, "
            f"got {constraint_mode!r}"
        )
    if type(granularity) is not int or granularity < 1:
        raise ConfigurationError(
            f"granularity: must be an integer >= 1, got {granularity!r}"
        )


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulated deployment.

    Defaults reproduce the paper's operating point: ``P = 320 Mcycle``,
    ``K = 1``, ``N = 1620`` macroblocks (PAL SD), 1.1 Mbit/s at 25 fps.
    """

    period: float = 320e6
    buffer_capacity: int = 1
    macroblocks: int = 1620
    frames: int | None = None
    seed: int = 42
    decision_overhead: float = 200.0
    floor_fraction: float = 0.2
    concentration: float = 8.0
    motion_spread: float = 0.08
    compress_motion_slope: float = 0.5
    rate_control: RateControlConfig = field(default_factory=RateControlConfig)
    rd_model: RateDistortionModel = field(default_factory=RateDistortionModel)
    load_model: MotionLoadModel = field(default_factory=MotionLoadModel)
    bits_noise: float = 0.05

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ConfigurationError("period must be positive")
        if self.buffer_capacity < 1:
            raise ConfigurationError("buffer capacity K must be >= 1")
        if self.macroblocks < 1:
            raise ConfigurationError("macroblocks N must be >= 1")
        if self.decision_overhead < 0:
            raise ConfigurationError("decision overhead must be >= 0")

    @property
    def frame_pixels(self) -> int:
        """256 pixels per macroblock (16x16 luma blocks)."""
        return 256 * self.macroblocks

    @property
    def nominal_budget(self) -> float:
        """The budget when the encoder starts a frame on arrival: K*P."""
        return self.buffer_capacity * self.period


@dataclass(frozen=True)
class FrameTiming:
    """Timing-pass output for one encoded frame.

    Every producer fills the quality statistics (mean, min, max and the
    mean |delta q| between consecutive macroblocks) where the decision
    history is at hand: the engine kernels
    (:func:`~repro.engine.kernel.scalar_decide` and
    :func:`~repro.engine.kernel.batch_decide`), the smoothness-policy
    loop and the constant-quality encoder.  Nothing recomputes them:
    the timeline's signal pass copies them into the frame's
    :class:`~repro.sim.results.FrameRecord`.  They stay exact because
    quality levels are small integers, so any summation order gives the
    same float64.  A deliberate skip carries none.
    """

    cycles: float
    qualities: object  # scalar int or per-macroblock list
    controller_cycles: float
    decisions: int
    degraded: int
    deliberate_skip: bool = False
    mean_quality: float = float("nan")
    min_quality: int = 0
    max_quality: int = 0
    quality_churn: float = 0.0


class EncoderSimulation:
    """Simulates the full camera/buffer/encoder system on the benchmark.

    Build once per configuration; each ``run_*`` method is an
    independent, reproducible experiment (seeded off the config seed
    and a per-run salt) that keeps its state in local variables, so
    runs on one shared simulation may nest or interleave.
    """

    def __init__(
        self,
        config: SimulationConfig | None = None,
        contents: Sequence[FrameContent] | None = None,
    ) -> None:
        self.config = config if config is not None else SimulationConfig()
        if contents is None:
            # limit= truncates the AR(1) draw sequence bit-identically,
            # so short clips skip the unused tail's generation cost
            contents = generate_content(
                seed=self.config.seed, limit=self.config.frames
            )
        if self.config.frames is not None:
            contents = list(contents)[: self.config.frames]
        self.contents: list[FrameContent] = list(contents)
        self.quality_set: QualitySet = ENCODER_QUALITY_LEVELS
        self._levels = list(self.quality_set)
        self._build_timing()
        self._build_controller_tables()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build_timing(self) -> None:
        cfg = self.config
        self._me_dists = {
            q: BoundedTimeDistribution(
                average=av,
                ceiling=wc,
                floor_fraction=cfg.floor_fraction,
                concentration=cfg.concentration,
            )
            for q, (av, wc) in MOTION_ESTIMATE_TIMES.items()
        }
        self._fixed_dists = {
            action: BoundedTimeDistribution(
                average=av,
                ceiling=wc,
                floor_fraction=cfg.floor_fraction,
                concentration=cfg.concentration,
            )
            for action, (av, wc) in FIXED_ACTION_TIMES.items()
        }

    def _build_controller_tables(self) -> None:
        """Attach the (shared) compiled controller for this shape.

        Table compilation is memoized across simulations through
        :func:`compiled_controller`: two configs that differ only in
        content seed, clip length or signal-side parameters reuse the
        same tables object — a 50-stream homogeneous fleet compiles
        once, not 50 times.
        """
        cfg = self.config
        compiled = compiled_controller(
            cfg.macroblocks, cfg.nominal_budget, cfg.decision_overhead
        )
        self.application = compiled.application
        self.system = compiled.system
        self.tables = compiled.tables
        self._me_positions = compiled.me_positions
        # worst-case ceilings used to keep biased platforms inside the
        # C <= Cwc contract (DESIGN.md: the method's only assumption)
        self._grab_ceiling = FIXED_ACTION_TIMES[GRAB_ACTION][1]
        self._post_ceiling = sum(
            wc for action, (_, wc) in FIXED_ACTION_TIMES.items()
            if action != GRAB_ACTION
        )
        self._me_ceilings = [MOTION_ESTIMATE_TIMES[q][1] for q in self._levels]

    def _rng(self, salt: str) -> np.random.Generator:
        # zlib.crc32 (not hash()) so the stream is stable across
        # processes: hash() of a str is randomized per interpreter
        # (PYTHONHASHSEED), which made runs irreproducible between
        # pytest invocations and would break fleet determinism.
        digest = zlib.crc32(salt.encode("utf-8")) % (2**31)
        return np.random.default_rng(np.random.SeedSequence([self.config.seed, digest]))

    # ------------------------------------------------------------------
    # per-frame time draws
    # ------------------------------------------------------------------

    def _draw_frame_times(
        self,
        rng: np.random.Generator,
        content: FrameContent,
        quality: int | None,
        bias: float = 1.0,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw (grab, ME, post-ME-sum) actual times for one frame.

        ``quality=None`` draws ME times for *all* levels (shape N x |Q|),
        otherwise only the requested level.  I-frames perform no real
        motion search: ME runs at its minimum-level cost whatever the
        controller asks for (the contract ``C <= Cwc_theta`` still holds
        since ``Cwc`` is non-decreasing in q).

        ``bias`` models a systematically mis-calibrated platform (the
        deployed silicon is slower/faster than the profiled one); biased
        times are clipped at the worst-case ceilings so the safety
        contract continues to hold — only the *average* estimates are
        wrong, which is precisely the situation the paper's section-4
        learning extension addresses.
        """
        cfg = self.config
        count = cfg.macroblocks
        mb_motion = macroblock_motion(
            rng, content.motion_activity, count, cfg.motion_spread
        )
        scales = cfg.load_model.scales(mb_motion)
        grab = self._fixed_dists[GRAB_ACTION].sample_many(rng, count)
        post = np.zeros(count)
        compress_scale = 0.8 + cfg.compress_motion_slope * mb_motion
        for action in _POST_ME_ACTIONS:
            action_scales = compress_scale if action == COMPRESS_ACTION else 1.0
            post += self._fixed_dists[action].sample_many(rng, count, action_scales)
        if content.is_iframe:
            intra = self._me_dists[self.quality_set.qmin].sample_many(rng, count)
            if quality is None:
                me_array: np.ndarray = np.tile(intra[:, None], (1, len(self._levels)))
            else:
                me_array = intra
        elif quality is None:
            me_array = np.column_stack([
                self._me_dists[q].sample_many(rng, count, scales)
                for q in self._levels
            ])
        else:
            me_array = self._me_dists[quality].sample_many(rng, count, scales)
        if bias != 1.0:
            grab = np.minimum(grab * bias, self._grab_ceiling)
            post = np.minimum(post * bias, self._post_ceiling)
            if me_array.ndim == 2:
                me_array = np.minimum(me_array * bias, np.asarray(self._me_ceilings))
            else:
                ceiling = self._me_ceilings[
                    self._levels.index(quality if quality is not None else 0)
                ]
                me_array = np.minimum(me_array * bias, ceiling)
        return grab, me_array, post

    # ------------------------------------------------------------------
    # per-frame encoders (timing pass)
    # ------------------------------------------------------------------

    def _encode_controlled_frame(
        self,
        rng: np.random.Generator,
        content: FrameContent,
        budget: float,
        constraint_mode: str,
        granularity: int,
        policy=None,
        bias: float = 1.0,
    ) -> FrameTiming:
        """One frame under the fine-grain controller: the engine kernel on
        this frame's fused draws, or, with a smoothness ``policy``, the
        same walk with the policy choosing among the feasible levels."""
        # lazy: repro.engine imports this module
        from repro.engine.bank import fuse
        from repro.engine.kernel import kernel_for, scalar_decide

        grab, me, post = self._draw_frame_times(rng, content, quality=None, bias=bias)
        grab_plus, me_plus = fuse(self.config.decision_overhead, grab, me, post)
        grab_plus, me_plus = grab_plus.tolist(), me_plus.tolist()
        kernel = kernel_for(self, constraint_mode)
        if policy is None:
            return scalar_decide(kernel, granularity, grab_plus, me_plus, budget)

        reset = getattr(policy, "reset", None)
        if callable(reset):
            reset()
        shift = budget - kernel.nominal_budget
        rows = kernel.rows_list
        levels = self._levels
        positions = self._me_positions
        elapsed = 0.0
        qualities: list[int] = []
        degraded = 0
        decisions = 0
        column = 0  # qmin column
        previous_quality: int | None = None
        for k in range(kernel.macroblocks):
            elapsed += grab_plus[k]
            if k % granularity == 0:
                feasible = tuple(
                    levels[c]
                    for c, limit in enumerate(rows[k])
                    if elapsed <= limit + shift
                )
                if feasible:
                    context = DecisionContext(
                        step=positions[k],
                        previous_quality=previous_quality,
                        quality_set=self.quality_set,
                    )
                    column = levels.index(policy.select(feasible, context))
                else:
                    column = 0
                    degraded += 1
                decisions += 1
            previous_quality = levels[column]
            qualities.append(previous_quality)
            elapsed += me_plus[k][column]
        count = len(qualities)
        churn = sum(abs(b - a) for a, b in zip(qualities, qualities[1:]))
        return FrameTiming(
            cycles=elapsed,
            qualities=qualities,
            controller_cycles=kernel.controller_cycles,
            decisions=decisions,
            degraded=degraded,
            mean_quality=sum(qualities) / count,
            min_quality=min(qualities),
            max_quality=max(qualities),
            quality_churn=churn / (count - 1) if count > 1 else 0.0,
        )

    def _encode_constant_frame(
        self, rng: np.random.Generator, content: FrameContent, quality: int
    ) -> FrameTiming:
        grab, me, post = self._draw_frame_times(rng, content, quality=quality)
        cycles = float(sum(grab.tolist()) + sum(me.tolist()) + sum(post.tolist()))
        return FrameTiming(
            cycles=cycles,
            qualities=quality,
            controller_cycles=0.0,
            decisions=0,
            degraded=0,
            mean_quality=float(quality),
            min_quality=int(quality),
            max_quality=int(quality),
        )

    # ------------------------------------------------------------------
    # the timeline
    # ------------------------------------------------------------------

    def _run_timeline(
        self, label: str, decide: Callable[[EncodeJob], FrameTiming]
    ) -> RunResult:
        """Walk the clip's :class:`FrameTimeline` at speed 1.0: before
        each arrival, encode what starts by it; then drain the buffer."""
        period = self.config.period
        timeline = FrameTimeline(self.config, self.contents, self._rng("signal"))
        for frame in range(len(self.contents)):
            timeline.encode_through(frame * period, 1.0, decide)
            timeline.arrive(frame)
        timeline.encode_through(math.inf, 1.0, decide)
        timeline.emit_signal()
        return timeline.result(label)

    # ------------------------------------------------------------------
    # public run drivers
    # ------------------------------------------------------------------

    def run_controlled(
        self,
        constraint_mode: str = "both",
        granularity: int = 1,
        label: str | None = None,
        time_bias: float = 1.0,
    ) -> RunResult:
        """The paper's controlled encoder.

        ``granularity`` counts macroblocks between quality re-decisions
        (1 = the paper's fine-grain control; ``macroblocks`` = decide
        once per frame, emulating coarse-grain prior art).
        ``time_bias`` deploys on a mis-calibrated platform (see
        :meth:`_draw_frame_times`) while the controller keeps trusting
        the published averages.
        """
        validate_controller_settings(constraint_mode, granularity)
        if label is None:
            label = f"controlled(K={self.config.buffer_capacity})"
            if constraint_mode != "both":
                label += f"[{constraint_mode}]"
            if granularity != 1:
                label += f"[g={granularity}]"
            if time_bias != 1.0:
                label += f"[bias={time_bias}]"
        rng = self._rng(f"controlled-{constraint_mode}-{granularity}")

        def decide(job):
            return self._encode_controlled_frame(
                rng, self.contents[job.frame], job.budget, constraint_mode,
                granularity, bias=time_bias,
            )

        return self._run_timeline(label, decide)

    def run_learning_controlled(
        self,
        time_bias: float = 1.0,
        relearn_every: int = 25,
        alpha: float = 0.1,
        label: str | None = None,
        constraint_mode: str = "both",
    ) -> RunResult:
        """Controlled run with online average-time learning (paper §4).

        "Application of learning techniques for better estimation of
        the average execution times": an EWMA estimator observes actual
        durations and the controller tables are regenerated from the
        learned averages every ``relearn_every`` frames.  The
        *worst-case* tables stay untouched, so Proposition 2.1's safety
        guarantee is preserved no matter what the estimator does; what
        learning buys is decision accuracy — fewer late in-frame
        corrections when the platform's true means drift from the
        profiled ones (``time_bias``).

        Per-action observations: ME at its decided level; the grab and
        the aggregated post-ME sum split equally across their actions —
        with uniform cycle deadlines only suffix *sums* of averages
        enter the constraints, so any sum-preserving split yields
        identical tables.
        """
        # lazy: repro.engine imports this module
        from repro.engine.bank import fuse
        from repro.engine.kernel import kernel_for, kernel_from_rows, scalar_decide
        from repro.tool.timing_analysis import EwmaAverageEstimator

        validate_controller_settings(constraint_mode)
        if relearn_every < 1:
            raise ConfigurationError("relearn_every must be >= 1")
        if label is None:
            label = f"learning(K={self.config.buffer_capacity},bias={time_bias})"
        cfg = self.config
        raw_application = macroblock_application(cfg.macroblocks)
        estimator = EwmaAverageEstimator(raw_application.average_times, alpha=alpha)
        post_actions = _POST_ME_ACTIONS
        state = {"frames_since_relearn": 0, "kernel": kernel_for(self, constraint_mode)}
        rng = self._rng(f"learning-{constraint_mode}-{time_bias}")

        def rebuild_kernel():
            learned_raw = estimator.learned_table(self.quality_set)
            # clamp into the model's Cav <= Cwc invariant
            entries: dict[str, dict[int, float]] = {}
            for action in MACROBLOCK_ACTIONS:
                entries[action] = {
                    q: min(
                        learned_raw.time(action, q),
                        raw_application.worst_times.time(action, q),
                    )
                    for q in self.quality_set
                }
            learned = QualityTimeTable(self.quality_set, entries)
            application = _inflate_application(
                cfg.macroblocks, cfg.decision_overhead, average_times=learned
            )
            system = application.system(budget=cfg.nominal_budget)
            tables = ControllerTables.from_system(system)
            mode_matrix = {
                "both": tables.combined_bound,
                "average": tables.average_bound,
                "worst": tables.worst_bound,
            }[constraint_mode]
            state["kernel"] = kernel_from_rows(
                cfg.macroblocks, cfg.nominal_budget, cfg.decision_overhead,
                constraint_mode, mode_matrix.tolist(), self._me_positions,
            )

        def decide(job):
            content = self.contents[job.frame]
            grab, me, post = self._draw_frame_times(
                rng, content, quality=None, bias=time_bias
            )
            grab_plus, me_plus = fuse(cfg.decision_overhead, grab, me, post)
            timing = scalar_decide(
                state["kernel"], 1, grab_plus.tolist(), me_plus.tolist(), job.budget
            )
            # feed the estimator (skip the atypical intra frames); one
            # frame-mean observation per action keeps the loop cheap,
            # and quality-independent actions are credited at *every*
            # level so all candidate-q table rows stay calibrated
            if not content.is_iframe:
                share = 1.0 / len(post_actions)
                grab_mean = float(np.mean(grab))
                post_share_mean = float(np.mean(post)) * share
                for q in self._levels:
                    estimator.observe(GRAB_ACTION, q, grab_mean)
                    for action in post_actions:
                        estimator.observe(action, q, post_share_mean)
                q_array = np.asarray(timing.qualities)
                columns = np.array([self._levels.index(q) for q in timing.qualities])
                chosen_times = me[np.arange(len(q_array)), columns]
                for q in np.unique(q_array):
                    mask = q_array == q
                    estimator.observe(
                        ME_ACTION, int(q), float(np.mean(chosen_times[mask]))
                    )
            state["frames_since_relearn"] += 1
            if state["frames_since_relearn"] >= relearn_every:
                state["frames_since_relearn"] = 0
                rebuild_kernel()
            return timing

        return self._run_timeline(label, decide)

    def run_controlled_with_policy(
        self,
        policy,
        label: str,
        constraint_mode: str = "both",
        granularity: int = 1,
    ) -> RunResult:
        """Controlled run with a quality-selection policy (smoothness etc.).

        The policy picks from the constraint-satisfying set at each
        decision, so every policy inherits the safety guarantee.
        """
        validate_controller_settings(constraint_mode, granularity)
        rng = self._rng(f"controlled-policy-{label}")

        def decide(job):
            return self._encode_controlled_frame(
                rng, self.contents[job.frame], job.budget, constraint_mode,
                granularity, policy=policy,
            )

        return self._run_timeline(label, decide)

    def run_constant(self, quality: int, label: str | None = None) -> RunResult:
        """The industrial-practice baseline: a fixed quality level."""
        if quality not in self.quality_set:
            raise ConfigurationError(f"quality {quality} not in Q")
        if label is None:
            label = f"constant(q={quality},K={self.config.buffer_capacity})"
        rng = self._rng(f"constant-{quality}")

        def decide(job):
            return self._encode_constant_frame(rng, self.contents[job.frame], quality)

        return self._run_timeline(label, decide)

    def run_frame_adaptive(self, policy, label: str) -> RunResult:
        """Frame-level adaptive baselines (PID, elastic, skip-over...).

        ``policy`` follows :class:`repro.baselines.base.FramePolicy`:
        it proposes one quality level per frame from per-frame feedback —
        the coarse-grain adaptation granularity of the prior art the
        paper contrasts with.
        """
        rng = self._rng(f"adaptive-{label}")
        from repro.baselines.skip_over import SKIP

        def decide(job):
            quality = int(policy.next_quality())
            if quality == SKIP:
                # the policy drops this instance: only the skip flag is
                # written, costing (almost) nothing
                return FrameTiming(
                    cycles=1_000.0,
                    qualities=self.quality_set.qmin,
                    controller_cycles=0.0,
                    decisions=1,
                    degraded=0,
                    deliberate_skip=True,
                )
            if quality not in self.quality_set:
                quality = min(max(quality, self.quality_set.qmin), self.quality_set.qmax)
            timing = self._encode_constant_frame(rng, self.contents[job.frame], quality)
            policy.observe(
                encode_cycles=timing.cycles, budget=job.budget, period=self.config.period
            )
            return timing

        return self._run_timeline(label, decide)
