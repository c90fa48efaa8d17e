"""The stream timeline of the paper's section 3, written once.

* frame ``f`` arrives at ``f * P``; an arrival finding ``K`` frames
  waiting in the input buffer is skipped (dropped);
* the encoder serves waiting frames FIFO; frame ``f`` starting at ``s``
  receives the wall budget ``arrival(f) + K*P - s`` — finish within it
  and the input buffer can never overflow (max latency ``K*P``, average
  budget ``P``, as stated in the paper);
* at ``speed`` (granted over demanded cycles) that buys ``budget *
  speed`` cycles of work, and ``c`` cycles occupy ``c / speed``;
* the signal pass walks frames in display order through rate control
  and the PSNR model (bits never feed back into cycles).

The paper simulation walks a :class:`FrameTimeline` at speed 1.0, and
every serving stream (:class:`repro.streams.session.StreamSession`) is
one, stepped a round at a time at the speed its grant buys.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.sim.results import FrameRecord, RunResult
from repro.video.encoder_model import AnalyticEncoder
from repro.video.ratecontrol import VirtualBufferRateController


@dataclass(frozen=True)
class EncodeJob:
    """One frame popped from the input buffer, ready to be decided.

    ``budget`` is its *work* budget in cycles (wall budget times the
    speed).  ``bank_frame`` is its content index, ``frame % clip
    length`` (the identity on finite clips): engines index banked
    times with it, not with ``frame``.
    """

    frame: int
    start: float
    budget: float
    bank_frame: int


class FrameTimeline:
    """One stream's camera, input buffer, FIFO encoder and signal pass.

    ``contents`` is the clip (looped), ``signal_rng`` the signal-side
    encoder's noise source; times are wall cycles of the timeline.
    """

    def __init__(self, config, contents, signal_rng) -> None:
        self.config = config
        self.contents = contents
        self._horizon = config.buffer_capacity * config.period
        self._encoder = AnalyticEncoder(
            rd_model=config.rd_model,
            rate_controller=VirtualBufferRateController(config.rate_control),
            pixels=config.frame_pixels,
            rng=signal_rng,
            bits_noise=config.bits_noise,
        )
        self._pending: deque[int] = deque()
        self._free_at = 0.0
        # frame -> (timing, start, end, budget), or None for a buffer
        # skip; the FrameRecord itself is built once, in the signal pass
        self._resolved: dict[int, tuple | None] = {}
        self._signal_next = 0
        self.records: list[FrameRecord] = []

    def arrive(self, frame: int) -> None:
        """The camera delivers ``frame``: buffered, or skipped when full."""
        if len(self._pending) >= self.config.buffer_capacity:
            self._resolved[frame] = None
        else:
            self._pending.append(frame)

    def next_job(self, limit: float, speed: float) -> EncodeJob | None:
        """Pop the buffer head if it starts within ``limit``; completing
        it moves ``_free_at``, which gates the frame behind it."""
        if not self._pending:
            return None
        frame = self._pending[0]
        arrival = frame * self.config.period
        start = max(self._free_at, arrival)
        if start > limit:
            return None
        self._pending.popleft()
        wall_budget = arrival + self._horizon - start
        return EncodeJob(
            frame=frame,
            start=start,
            budget=wall_budget * speed,
            bank_frame=frame % len(self.contents),
        )

    def complete_job(self, job: EncodeJob, timing, speed: float) -> None:
        """Fold one frame's timing back into the timeline."""
        self._free_at = job.start + timing.cycles / speed
        self._resolved[job.frame] = (timing, job.start, self._free_at, job.budget)

    def encode_through(self, limit: float, speed: float, decide) -> None:
        """Encode every frame that starts within ``limit``, one at a
        time, each timed by ``decide(job)``."""
        while (job := self.next_job(limit, speed)) is not None:
            self.complete_job(job, decide(job), speed)

    def emit_signal(self) -> None:
        """Build the record of every frame resolved in display order.

        A buffer skip is known at arrival, before the frame ahead of it
        finishes, so the pass trails the timeline.  The quality
        statistics are the ones the frame's timing already carries.
        """
        period = self.config.period
        encoder = self._encoder
        while self._signal_next in self._resolved:
            index = self._signal_next
            resolved = self._resolved.pop(index)
            content = self.contents[index % len(self.contents)]
            if resolved is None:
                psnr, bits = encoder.skip_frame(content)
                record = FrameRecord(
                    index=index,
                    is_iframe=content.is_iframe,
                    skipped=True,
                    arrival=index * period,
                    motion=content.motion_activity,
                    psnr=psnr,
                    bits=bits,
                )
            elif resolved[0].deliberate_skip:
                # the decision dropped the frame itself: timed, no stats
                timing, start, end, budget = resolved
                psnr, bits = encoder.skip_frame(content)
                record = FrameRecord(
                    index=index,
                    is_iframe=content.is_iframe,
                    skipped=True,
                    arrival=index * period,
                    motion=content.motion_activity,
                    start=start,
                    end=end,
                    budget=budget,
                    encode_cycles=timing.cycles,
                    psnr=psnr,
                    bits=bits,
                )
            else:
                timing, start, end, budget = resolved
                psnr, bits = encoder.encode_frame(content, timing.qualities)
                record = FrameRecord(
                    index=index,
                    is_iframe=content.is_iframe,
                    skipped=False,
                    arrival=index * period,
                    motion=content.motion_activity,
                    start=start,
                    end=end,
                    budget=budget,
                    encode_cycles=timing.cycles,
                    controller_cycles=timing.controller_cycles,
                    decisions=timing.decisions,
                    degraded_steps=timing.degraded,
                    mean_quality=timing.mean_quality,
                    min_quality=timing.min_quality,
                    max_quality=timing.max_quality,
                    quality_churn=timing.quality_churn,
                    psnr=psnr,
                    bits=bits,
                )
            self.records.append(record)
            self._signal_next += 1

    def result(self, label: str) -> RunResult:
        """The :class:`RunResult` over the records emitted so far."""
        return RunResult(
            label=label,
            period=self.config.period,
            buffer_capacity=self.config.buffer_capacity,
            frames=list(self.records),
        )
