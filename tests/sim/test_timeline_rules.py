"""The section-3 timeline rules, frame by frame, for both of its walkers.

The paper simulation and every serving session walk one
:class:`repro.sim.timeline.FrameTimeline`.  This module re-derives,
from the rules alone, every frame's skip flag, start, end and budget
out of the encode cycles a run reports, and holds the simulation's runs
and sessions stepped at several speeds to that walk bit for bit.
"""

import math
from dataclasses import replace

import pytest

from repro.experiments.configs import tiny_config
from repro.sim.encoder_loop import EncoderSimulation
from repro.streams.scenarios import IdleDeparture
from repro.streams.session import MIN_SPEED, StreamSession

NAN = math.nan


def reference_walk(period, capacity, frames, cycles, speed=1.0):
    """``(skipped, start, end, budget)`` per frame, by the rules alone.

    Frame ``f`` arrives at ``f * P``.  It is skipped when ``K`` frames
    it found in the buffer have not started yet; otherwise it starts
    when the frame ahead of it ends (or on arrival), gets the wall
    budget ``arrival + K*P - start``, and its next ``cycles`` entry of
    work ends it ``cycles / speed`` later.  At speed ``s`` the work
    budget is the wall budget times ``s``.
    """
    cycles = iter(cycles)
    starts = []  # start times of the frames that entered the buffer
    free_at = 0.0
    rows = []
    for frame in range(frames):
        arrival = frame * period
        if sum(1 for start in starts if start > arrival) >= capacity:
            rows.append((True, NAN, NAN, NAN))
            continue
        start = max(free_at, arrival)
        free_at = start + next(cycles) / speed
        starts.append(start)
        rows.append((False, start, free_at, (arrival + capacity * period - start) * speed))
    assert next(cycles, None) is None, "more encoded frames than the rules allow"
    return rows


def mismatches(result_frames, period, capacity, speed=1.0):
    """Frames whose timeline fields differ from the reference walk."""
    cycles = [f.encode_cycles for f in result_frames if not f.skipped]
    expected = reference_walk(period, capacity, len(result_frames), cycles, speed)
    actual = [(f.skipped, f.start, f.end, f.budget) for f in result_frames]
    # repr compares floats bit for bit and NaN equal to NaN
    return [
        (index, got, want)
        for index, (got, want) in enumerate(zip(actual, expected))
        if repr(got) != repr(want)
    ]


def serve_session(config, fraction, stream_id="rules", lifetime=None):
    """Step a session at ``fraction`` of its period until it finishes;
    returns its records and the speed its steps ran at."""
    session = StreamSession(stream_id, config, lifetime=lifetime)
    allocation = fraction * config.period
    for _ in range(10_000):
        if session.finished:
            break
        session.step(allocation)
    assert session.finished
    return session.records, max(allocation / config.period, MIN_SPEED)


CONFIGS = {
    "tiny-k1": tiny_config(frames=60),
    "scale20-k2": replace(tiny_config(frames=60), buffer_capacity=2),
}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def config(request):
    return CONFIGS[request.param]


@pytest.fixture(scope="module")
def simulation(config):
    return EncoderSimulation(config)


class TestSimulationRuns:
    @pytest.mark.parametrize("quality", [3, 7])
    def test_constant_quality(self, simulation, config, quality):
        result = simulation.run_constant(quality)
        assert mismatches(result.frames, config.period, config.buffer_capacity) == []

    def test_constant_overload_skips(self):
        # q7 overruns the K=1 budget often enough to skip: the rules
        # must hold where the buffer actually overflows
        config = CONFIGS["tiny-k1"]
        result = EncoderSimulation(config).run_constant(7)
        assert result.skip_count == 8

    def test_controlled(self, simulation, config):
        result = simulation.run_controlled()
        assert mismatches(result.frames, config.period, config.buffer_capacity) == []


class TestSessions:
    @pytest.mark.parametrize("fraction", [1.0, 0.8, 0.35])
    def test_stepped_session(self, config, fraction):
        records, speed = serve_session(config, fraction)
        assert [r.index for r in records] == list(range(config.frames))
        assert mismatches(records, config.period, config.buffer_capacity, speed) == []

    def test_starved_session_skips(self, config):
        # at 0.35 of its period the buffer overflows: the rules must
        # hold where frames actually drop
        records, _ = serve_session(config, 0.35)
        skips = {1: 7, 2: 6}[config.buffer_capacity]
        assert sum(r.skipped for r in records) == skips


class TestUnboundedSession:
    def test_content_loops_over_the_clip(self):
        config = tiny_config(frames=5)
        lifetime = IdleDeparture(min_rounds=12, max_lifetime=20)
        records, speed = serve_session(config, 1.0, "looping", lifetime)
        contents = EncoderSimulation(config).contents
        assert len(contents) == 5
        assert len(records) == 20
        for record in records:
            content = contents[record.index % 5]
            assert record.motion == content.motion_activity
            assert record.is_iframe == content.is_iframe
        assert mismatches(records, config.period, config.buffer_capacity, speed) == []
