"""Tests for repro.video.content: the synthetic camera benchmark."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.video.content import (
    MotionLoadModel,
    SequenceSpec,
    generate_content,
    macroblock_motion,
    mean_motion,
    paper_benchmark_sequences,
)


class TestBenchmarkLayout:
    def test_582_frames_in_9_sequences(self):
        specs = paper_benchmark_sequences()
        assert len(specs) == 9
        assert sum(s.frames for s in specs) == 582

    def test_two_high_motion_sequences(self):
        specs = paper_benchmark_sequences()
        high = [s for s in specs if s.motion > 0.6]
        assert len(high) == 2

    def test_generated_content_has_nine_scene_starts(self):
        frames = generate_content()
        starts = [f for f in frames if f.is_scene_start]
        assert len(starts) == 9
        assert starts[0].index == 0

    def test_scene_starts_are_iframes(self):
        frames = generate_content()
        for frame in frames:
            assert frame.is_iframe == frame.is_scene_start

    def test_sequence_ids_and_positions(self):
        frames = generate_content()
        specs = paper_benchmark_sequences()
        boundary = specs[0].frames
        assert frames[boundary - 1].sequence == 0
        assert frames[boundary].sequence == 1
        assert frames[boundary].frame_in_sequence == 0


class TestContentStatistics:
    def test_motion_within_bounds(self):
        for frame in generate_content():
            assert 0.0 < frame.motion_activity < 1.0
            assert frame.texture_variance > 0

    def test_high_motion_sequences_have_high_activity(self):
        frames = generate_content()
        by_sequence = {}
        for frame in frames:
            by_sequence.setdefault(frame.sequence, []).append(frame.motion_activity)
        means = {k: np.mean(v) for k, v in by_sequence.items()}
        assert means[3] > 0.6
        assert means[6] > 0.6
        assert means[2] < 0.4

    def test_mean_motion_near_calibration_point(self):
        """The load model is calibrated around the benchmark's mean motion."""
        frames = generate_content()
        motion = mean_motion(frames)
        load = MotionLoadModel()
        assert 0.9 < load.scale(motion) < 1.15

    def test_deterministic_given_seed(self):
        first = generate_content(seed=5)
        second = generate_content(seed=5)
        assert [f.motion_activity for f in first] == [f.motion_activity for f in second]

    def test_different_seeds_differ(self):
        first = generate_content(seed=5)
        second = generate_content(seed=6)
        assert [f.motion_activity for f in first] != [f.motion_activity for f in second]

    def test_clipping_matches_numpy_clip(self):
        """Motion and texture clip with ``min``/``max`` on Python floats:
        ``np.clip``'s values, as ``float``s, on a spec that clips often."""
        spec = SequenceSpec("edge", 200, motion=0.97, texture=300.0, motion_wobble=0.3)
        frames = generate_content([spec], seed=3)
        rng = np.random.default_rng(np.random.SeedSequence(3))
        motion = spec.motion
        for k, frame in enumerate(frames):
            if k:
                noise = rng.normal(0.0, spec.motion_wobble)
                motion = (
                    spec.motion
                    + spec.motion_persistence * (motion - spec.motion)
                    + noise
                )
            motion = float(np.clip(motion, 0.02, 0.98))
            texture = float(spec.texture * np.clip(rng.normal(1.0, 0.05), 0.8, 1.2))
            assert type(frame.motion_activity) is float
            assert type(frame.texture_variance) is float
            assert frame.motion_activity == motion
            assert frame.texture_variance == texture
        assert sum(frame.motion_activity == 0.98 for frame in frames) > 10

    def test_motion_is_autocorrelated(self):
        """AR(1) persistence: adjacent frames correlate more than distant."""
        frames = generate_content()
        series = np.array([f.motion_activity for f in frames[:60]])  # one sequence
        adjacent = np.corrcoef(series[:-1], series[1:])[0, 1]
        distant = np.corrcoef(series[:-10], series[10:])[0, 1]
        assert adjacent > distant


class TestValidation:
    def test_bad_sequence_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            SequenceSpec("x", 0, motion=0.5, texture=100.0)
        with pytest.raises(ConfigurationError):
            SequenceSpec("x", 10, motion=1.5, texture=100.0)
        with pytest.raises(ConfigurationError):
            SequenceSpec("x", 10, motion=0.5, texture=-1.0)
        with pytest.raises(ConfigurationError):
            SequenceSpec("x", 10, motion=0.5, texture=100.0, motion_persistence=1.0)

    def test_mean_motion_of_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            mean_motion([])


class TestMacroblockMotion:
    def test_clipped_and_centered(self):
        rng = np.random.default_rng(0)
        values = macroblock_motion(rng, 0.5, 2000)
        assert values.min() >= 0.02
        assert values.max() <= 0.98
        assert abs(values.mean() - 0.5) < 0.02

    def test_load_model_is_affine(self):
        model = MotionLoadModel(base=0.5, slope=1.0)
        assert model.scale(0.0) == 0.5
        assert model.scale(1.0) == 1.5
        scales = model.scales(np.array([0.0, 1.0]))
        assert list(scales) == [0.5, 1.5]
