"""StreamSession: the steppable single-stream wrapper."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.configs import scaled_config
from repro.sim.runner import reset_caches, simulation_for
from repro.streams.session import StreamSession


def config(seed=3, frames=15, scale=27):
    return scaled_config(scale=scale, seed=seed, frames=frames)


class TestSoloSession:
    def test_full_allocation_serves_every_frame(self):
        cfg = config()
        session = StreamSession("solo", cfg)
        while not session.finished:
            session.step(cfg.period)
        result = session.result()
        assert len(result) == cfg.frames
        assert result.skip_count == 0
        assert result.deadline_miss_count == 0
        assert result.mean_quality() > 3.0  # healthy dedicated-speed run
        # records arrive in display order with signal-side PSNR filled in
        assert [f.index for f in result.frames] == list(range(cfg.frames))
        assert all(math.isfinite(f.psnr) for f in result.frames)

    def test_starvation_degrades_quality(self):
        cfg = config()
        rich = StreamSession("rich", cfg)
        poor = StreamSession("poor", cfg)
        while not rich.finished:
            rich.step(cfg.period)
        while not poor.finished:
            poor.step(0.45 * cfg.period)
        assert poor.result().mean_quality() < rich.result().mean_quality() - 1.0
        assert poor.result().mean_psnr() < rich.result().mean_psnr()

    def test_zero_allocation_pauses_and_skips(self):
        cfg = config(frames=8)
        session = StreamSession("paused", cfg)
        for _ in range(8):
            session.step(0.0)
        # the encoder is effectively paused: one frame starts, stays
        # in flight for ~1000 periods, and later arrivals overflow the
        # K=1 input buffer and drop
        assert not session.finished
        while not session.finished:
            session.step(0.0)
        skipped = sum(1 for record in session.records if record.skipped)
        assert skipped >= cfg.frames - 2 * cfg.buffer_capacity

    def test_deterministic_per_stream_id(self):
        cfg = config()
        a = StreamSession("same", cfg)
        b = StreamSession("same", cfg)
        while not a.finished:
            a.step(cfg.period)
        while not b.finished:
            b.step(cfg.period)
        assert a.result().summary() == b.result().summary()

    def test_stream_id_salts_the_draws(self):
        cfg = config()
        a = StreamSession("alpha", cfg)
        b = StreamSession("beta", cfg)
        while not a.finished:
            a.step(cfg.period)
        while not b.finished:
            b.step(cfg.period)
        assert list(a.result().encoding_times()) != list(b.result().encoding_times())


class TestSharing:
    def test_same_config_sessions_share_the_simulation(self):
        cfg = config()
        a = StreamSession("a", cfg)
        b = StreamSession("b", cfg)
        assert a.simulation is b.simulation
        assert a.simulation is simulation_for(cfg)

    def test_reset_caches_detaches_future_sessions(self):
        cfg = config()
        before = StreamSession("x", cfg).simulation
        reset_caches()
        after = StreamSession("y", cfg).simulation
        assert before is not after


class TestFeedbackSignals:
    def test_recent_quality_tracks_encoded_frames(self):
        cfg = config(frames=10)
        session = StreamSession("fb", cfg)
        assert math.isnan(session.normalized_recent_quality())
        while not session.finished:
            session.step(cfg.period)
        assert 0.0 <= session.normalized_recent_quality() <= 1.0


class TestValidation:
    def test_step_after_finished_raises(self):
        cfg = config(frames=3)
        session = StreamSession("done", cfg)
        while not session.finished:
            session.step(cfg.period)
        with pytest.raises(ConfigurationError):
            session.step(cfg.period)

    def test_invalid_parameters(self):
        cfg = config()
        with pytest.raises(ConfigurationError):
            StreamSession("w", cfg, weight=0.0)
        with pytest.raises(ConfigurationError):
            StreamSession("m", cfg, constraint_mode="bogus")
        # the sim's rule: an int (not a bool) >= 1; these used to divide
        # by zero, run as granularity 1, or decide at fractional steps
        for granularity in (0, -1, 2.5):
            with pytest.raises(ConfigurationError, match="granularity"):
                StreamSession("g", cfg, granularity=granularity)
        session = StreamSession("n", cfg)
        with pytest.raises(ConfigurationError):
            session.step(-1.0)
