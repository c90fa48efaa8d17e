"""One QoS-controlled encoder stream inside a shared-capacity fleet.

A :class:`StreamSession` is the paper's single-application system — a
:class:`~repro.sim.timeline.FrameTimeline` (the one camera/buffer
timeline and signal pass, which the paper simulation walks too) deciding
through the controller tables on pre-drawn stochastic times — that the
fleet runner can advance **one scheduling round at a time**.  Each
round spans one camera period of the stream's own timeline: a new frame
arrives (or the tail backlog drains) and any frame whose start time
falls inside the round is encoded under the capacity the arbiter
granted.

Capacity semantics
------------------

The arbiter grants ``allocation`` cycles of shared processor per round.
A stream whose config demands ``period`` cycles per round at dedicated
speed therefore runs at ``speed = allocation / period``:

* work of ``c`` cycles occupies ``c / speed`` wall-cycles of the
  stream's timeline (a starved encoder stays busy longer, so the input
  buffer overflows and frames skip — exactly the paper's overload
  surface), and
* a frame that would enjoy a wall-clock budget ``B`` only receives
  ``B * speed`` cycles of actual work, which the table-driven
  controller absorbs through its deadline-shift mechanism, degrading
  quality smoothly instead of overrunning.

Same-config sessions share one :class:`EncoderSimulation` (via
:func:`repro.sim.runner.simulation_for`) because table compilation
dominates construction cost; only the simulation's pure per-frame
primitives are used here, so the sharing is safe (see the caching
contract in :mod:`repro.sim.runner`).
"""

from __future__ import annotations

import math

from repro.engine.bank import bank_for
from repro.engine.kernel import kernel_for, scalar_decide
from repro.errors import ConfigurationError
from repro.sim.encoder_loop import SimulationConfig, validate_controller_settings
from repro.sim.results import RunResult
from repro.sim.runner import simulation_for
from repro.sim.timeline import EncodeJob, FrameTimeline

#: Grants below this fraction of demand are clamped: the stream is
#: effectively paused rather than simulated at absurd slowdowns.
MIN_SPEED = 1e-3


class StreamSession(FrameTimeline):
    """A steppable per-stream controller on its own :class:`FrameTimeline`.

    Parameters
    ----------
    stream_id:
        Unique name inside the fleet; also salts this stream's random
        streams so same-config sessions see different content timing.
    config:
        The stream's :class:`SimulationConfig` (period, buffers, size).
    constraint_mode / granularity:
        Passed through to the fine-grain controller.
    weight:
        Relative importance for weighted arbiters.
    service_class:
        SLA class name carried into every capacity request (``None``
        = unclassed; SLA-aware policies serve best-effort).
    quality_target / quality_floor:
        Normalized [0, 1] delivered-quality contract: the current
        target (nan disables SLA targeting) and the floor
        renegotiation may step down to.  The initial target is also
        the ceiling a recovered session steps back up to.
    renegotiation:
        Optional stateless policy (see
        :class:`repro.sla.renegotiation.StepRenegotiation`) moving
        ``quality_target`` with observed starvation/headroom; all its
        counters live on this session.
    lifetime:
        Optional :class:`repro.streams.scenarios.IdleDeparture` policy
        switching the session to *unbounded* mode: the camera keeps
        producing frames past the clip length (content loops over the
        banked frames) until the idle detector — or an explicit
        :meth:`shutdown` — stops it, after which the backlog drains
        like any finite clip.  ``None`` keeps finite-clip semantics.
    """

    #: smoothing of the ``recent_quality`` EWMA that arbiters, migration
    #: and renegotiation read: a frame's weight halves within two frames
    quality_ewma = 0.35

    def __init__(
        self,
        stream_id: str,
        config: SimulationConfig,
        constraint_mode: str = "both",
        granularity: int = 1,
        weight: float = 1.0,
        service_class: str | None = None,
        quality_target: float = math.nan,
        quality_floor: float = 0.0,
        renegotiation=None,
        lifetime=None,
    ) -> None:
        validate_controller_settings(constraint_mode, granularity)
        if weight <= 0:
            raise ConfigurationError(f"stream weight must be positive, got {weight}")
        if not math.isnan(quality_target) and not 0.0 <= quality_target <= 1.0:
            raise ConfigurationError("quality_target must be in [0, 1] or nan")
        if not 0.0 <= quality_floor <= 1.0:
            raise ConfigurationError("quality_floor must be in [0, 1]")
        if not math.isnan(quality_target) and quality_floor > quality_target:
            raise ConfigurationError(
                "quality_floor must not exceed quality_target"
            )
        self.stream_id = stream_id
        self.constraint_mode = constraint_mode
        self.granularity = granularity
        self.weight = weight
        self.service_class = service_class
        self.quality_target = quality_target
        self.quality_floor = quality_floor
        self.quality_ceiling = quality_target
        self.renegotiation = renegotiation
        self.renegotiation_count = 0
        self._starved_rounds = 0
        self._headroom_rounds = 0
        self.lifetime = lifetime

        self.simulation = simulation_for(config)
        super().__init__(
            config,
            self.simulation.contents,
            self.simulation._rng(f"stream-signal-{stream_id}"),
        )
        self._quality_set = self.simulation.quality_set
        # the engine split: pure decision math shared per shape, all
        # stochastic times pre-drawn per clip (one draw per frame and
        # macroblock, independent of how scheduling later plays out)
        self._kernel = kernel_for(self.simulation, constraint_mode)
        self._bank = bank_for(config, f"stream-timing-{stream_id}")
        self._round = 0
        self.recent_quality = math.nan

        # unbounded mode: activity draws are a private seeded stream so
        # the departure round is deterministic whichever engine steps us
        if lifetime is not None:
            self._activity_rng = self.simulation._rng(
                f"stream-activity-{stream_id}"
            )
            self._activity_ewma = 1.0
            self._idle_rounds = 0
        self._camera_stop: int | None = None

    # ------------------------------------------------------------------
    # fleet-facing signals
    # ------------------------------------------------------------------

    @property
    def demand(self) -> float:
        """Cycles per round this stream needs to run at dedicated speed."""
        return self.config.period

    @property
    def frame_count(self) -> int:
        """Physical clip length — the loop length for unbounded sessions."""
        return len(self.contents)

    @property
    def unbounded(self) -> bool:
        return self.lifetime is not None

    @property
    def finished(self) -> bool:
        """All frames arrived, encoded-or-skipped, and signal-processed.

        Unbounded sessions finish only once the camera has stopped
        (idle detection or :meth:`shutdown`) and the backlog + signal
        pass have caught up to the stop point.
        """
        if self.unbounded:
            stop = self._camera_stop
            return (
                stop is not None
                and not self._pending
                and self._signal_next >= stop
            )
        return (
            self._round >= self.frame_count
            and not self._pending
            and self._signal_next >= self.frame_count
        )

    def normalized_recent_quality(self) -> float:
        """``recent_quality`` mapped to [0, 1] (nan while no frame done)."""
        return self._quality_set.normalized(self.recent_quality)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------

    def step(self, allocation: float) -> tuple[float, float] | None:
        """Advance one scheduling round under ``allocation`` shared cycles.

        Returns ``(old_target, new_target)`` when this round's grant and
        quality history moved the session's SLA quality target (see
        :mod:`repro.sla.renegotiation`), else ``None``.  Stepping a
        finished session is an error — the round loop retires sessions
        as soon as they report :attr:`finished`.

        This is the scalar engine: it drives the same round protocol
        the vectorized engine uses (:meth:`begin_round` /
        :meth:`next_job` / :meth:`complete_job` / :meth:`process_arrival`
        / :meth:`finish_round`), deciding each job with the scalar
        kernel (:meth:`_decide`).
        """
        speed, arrival_limit = self.begin_round(allocation)
        self.encode_through(arrival_limit, speed, self._decide)
        drain_limit = self.process_arrival()
        if drain_limit is not None:
            self.encode_through(drain_limit, speed, self._decide)
        return self.finish_round(allocation)

    # ------------------------------------------------------------------
    # the round protocol (engine-facing)
    # ------------------------------------------------------------------

    def begin_round(self, allocation: float) -> tuple[float, float]:
        """Validate the grant; return ``(speed, arrival_limit)``."""
        if self.finished:
            raise ConfigurationError(f"stream {self.stream_id!r} already finished")
        if allocation < 0:
            raise ConfigurationError("allocation must be >= 0")
        speed = max(allocation / self.config.period, MIN_SPEED)
        return speed, self._round * self.config.period

    def complete_job(self, job: EncodeJob, timing, speed: float) -> None:
        """Fold one encoded frame's timing into the timeline and into
        ``recent_quality`` (the EWMA of the frames' mean quality)."""
        super().complete_job(job, timing, speed)
        quality = timing.mean_quality
        if math.isnan(self.recent_quality):
            self.recent_quality = quality
        else:
            a = self.quality_ewma
            self.recent_quality = a * quality + (1 - a) * self.recent_quality

    def process_arrival(self) -> float | None:
        """This round's camera arrival (or backlog-drain window).

        A frame that arrives at a full input buffer is skipped here.
        Returns the drain limit: not ``None`` when the camera has
        stopped and the engine should encode pending frames through it.
        """
        round_index = self._round
        if self._arrivals_open(round_index):
            self.arrive(round_index)
        elif self._pending:
            # camera stopped: drain the backlog, one round per period.
            # ``round * period + period`` on purpose: ``(round + 1) *
            # period`` can differ in the last bit for non-integer
            # periods, which moves whether a pending frame starts
            return round_index * self.config.period + self.config.period
        return None

    def _arrivals_open(self, round_index: int) -> bool:
        """Does the camera deliver a frame this round?

        Finite clips stop at ``frame_count``.  Unbounded sessions stop
        when the idle detector trips (or :meth:`shutdown` already
        stopped them); the per-round activity draw happens here, once
        per round, inside the session's own protocol — which is what
        keeps departure rounds identical across engines.
        """
        if self.lifetime is None:
            return round_index < self.frame_count
        if self._camera_stop is not None:
            return False
        policy = self.lifetime
        activity = float(self._activity_rng.random())
        a = policy.alpha
        self._activity_ewma = a * activity + (1.0 - a) * self._activity_ewma
        if round_index >= policy.min_rounds and (
            self._activity_ewma < policy.threshold
        ):
            self._idle_rounds += 1
        else:
            self._idle_rounds = 0
        if self._idle_rounds >= policy.patience or (
            round_index >= policy.max_lifetime
        ):
            self._camera_stop = round_index
            return False
        return True

    def shutdown(self) -> bool:
        """Stop an unbounded camera so the session drains and finishes.

        Runners call this when an open-ended run hits its
        ``max_rounds`` stop condition.  Returns ``True`` when it
        actually stopped the camera.  Finite-clip sessions are a no-op:
        their signal pass expects every frame below ``frame_count`` to
        arrive, so cutting them short would leave them unfinished
        forever — they drain on their own schedule instead.
        """
        if self.lifetime is None or self._camera_stop is not None:
            return False
        self._camera_stop = self._round
        return True

    def finish_round(self, allocation: float) -> tuple[float, float] | None:
        """Close the round: signal pass, then renegotiation, whose
        ``(old_target, new_target)`` change (or ``None``) it returns."""
        self._round += 1
        self.emit_signal()
        return self._renegotiate(allocation)

    def _decide(self, job: EncodeJob):
        """The scalar engine's decision: the kernel on the job's banked
        rows."""
        return scalar_decide(
            self._kernel,
            self.granularity,
            *self._bank.frame_lists(job.bank_frame),
            job.budget,
        )

    def _renegotiate(self, allocation: float) -> tuple[float, float] | None:
        """Move the quality target per this round's grant and quality."""
        policy = self.renegotiation
        if policy is None or math.isnan(self.quality_target):
            return None
        quality = self.normalized_recent_quality()
        if not math.isnan(quality) and policy.starved(
            quality, self.quality_target, allocation, self.demand
        ):
            self._starved_rounds += 1
            self._headroom_rounds = 0
        elif policy.headroom(allocation, self.demand):
            self._headroom_rounds += 1
            self._starved_rounds = 0
        else:
            self._starved_rounds = 0
            self._headroom_rounds = 0
        old = self.quality_target
        if (
            self._starved_rounds >= policy.patience
            and old > self.quality_floor
        ):
            self.quality_target = policy.step_down(old, self.quality_floor)
            self._starved_rounds = 0
        elif (
            self._headroom_rounds >= policy.recovery_patience
            and old < self.quality_ceiling
        ):
            self.quality_target = policy.step_up(old, self.quality_ceiling)
            self._headroom_rounds = 0
        if self.quality_target == old:
            return None
        self.renegotiation_count += 1
        return (old, self.quality_target)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def result(self, label: str | None = None) -> RunResult:
        """The per-stream :class:`RunResult` over the rounds run so far."""
        return super().result(
            f"stream({self.stream_id})" if label is None else label
        )
