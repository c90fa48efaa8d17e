"""Tests for repro.platform.distributions: bounded execution-time laws."""

import numpy as np
import pytest

from repro.core import QualitySet, QualityTimeTable
from repro.errors import ConfigurationError
from repro.platform.distributions import (
    BoundedTimeDistribution,
    TimingModel,
    sample_stacked,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def reference_sample_many(dist, rng, count, scales=1.0):
    """The array-parameter sampler every stream was first drawn with:
    one Beta parameter pair per element, clipped with ``np.clip``."""
    if dist.deterministic:
        return np.full(count, dist.average)
    scales = np.broadcast_to(np.asarray(scales, dtype=np.float64), (count,))
    span = dist.ceiling - dist.floor
    target = np.clip(scales * dist.average, dist.floor, dist.ceiling)
    mu = np.clip((target - dist.floor) / span, 0.02, 0.98)
    a = mu * dist.concentration
    b = (1.0 - mu) * dist.concentration
    return dist.floor + span * rng.beta(a, b)


class TestSamplerMatchesReference:
    """``sample_many`` takes cheaper paths than the reference but draws
    the same bytes and leaves the generator in the same state."""

    LAW = BoundedTimeDistribution(average=100.0, ceiling=400.0)

    CASES = {
        "deterministic": (
            BoundedTimeDistribution(average=16000.0, ceiling=16000.0),
            1.0,
        ),
        "scale-1.0": (LAW, 1.0),
        "scale-0.6": (LAW, 0.6),
        "scale-100-clipped": (LAW, 100.0),
        "per-element": (LAW, np.linspace(0.0, 3.0, 257)),
        "one-element": (LAW, np.array([1.3])),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_bytes_same_generator_state(self, case):
        dist, scales = self.CASES[case]
        count = 257
        new_rng, ref_rng = rng(21), rng(21)
        drawn = dist.sample_many(new_rng, count, scales)
        expected = reference_sample_many(dist, ref_rng, count, scales)
        assert drawn.dtype == expected.dtype == np.float64
        assert drawn.shape == expected.shape == (count,)
        assert drawn.tobytes() == expected.tobytes()
        assert new_rng.random() == ref_rng.random()

    def test_wrong_length_scales_raise(self):
        with pytest.raises(ValueError):
            reference_sample_many(self.LAW, rng(), 10, np.ones(5))
        with pytest.raises(ValueError):
            self.LAW.sample_many(rng(), 10, np.ones(5))

    def test_stacked_draw_is_the_per_law_calls(self):
        """One level-major call over several laws, deterministic ones
        included, matches one reference call per law in order."""
        laws = [
            BoundedTimeDistribution(average=215.0, ceiling=1000.0),
            BoundedTimeDistribution(average=16000.0, ceiling=16000.0),
            BoundedTimeDistribution(average=95000.0, ceiling=350000.0),
            BoundedTimeDistribution(
                average=5.0, ceiling=50.0, floor_fraction=0.5, concentration=3.0
            ),
        ]
        scales = np.linspace(0.1, 2.5, 93)
        new_rng, ref_rng = rng(5), rng(5)
        stacked = sample_stacked(new_rng, laws, scales)
        expected = np.stack(
            [reference_sample_many(law, ref_rng, len(scales), scales) for law in laws]
        )
        assert stacked.tobytes() == expected.tobytes()
        assert new_rng.random() == ref_rng.random()


class TestBoundedTimeDistribution:
    def test_samples_never_exceed_ceiling(self):
        dist = BoundedTimeDistribution(average=100.0, ceiling=400.0)
        samples = dist.sample_many(rng(), 5000)
        assert samples.max() <= 400.0
        assert samples.min() >= dist.floor

    def test_mean_tracks_average(self):
        dist = BoundedTimeDistribution(average=100.0, ceiling=400.0)
        samples = dist.sample_many(rng(), 20000)
        assert abs(samples.mean() - 100.0) / 100.0 < 0.05

    def test_scale_shifts_mean(self):
        dist = BoundedTimeDistribution(average=100.0, ceiling=400.0)
        low = dist.sample_many(rng(1), 5000, scales=0.6).mean()
        high = dist.sample_many(rng(2), 5000, scales=1.5).mean()
        assert low < 100.0 < high

    def test_scale_cannot_push_past_ceiling(self):
        dist = BoundedTimeDistribution(average=100.0, ceiling=400.0)
        samples = dist.sample_many(rng(), 2000, scales=100.0)
        assert samples.max() <= 400.0

    def test_deterministic_when_average_equals_ceiling(self):
        dist = BoundedTimeDistribution(average=16000.0, ceiling=16000.0)
        assert dist.deterministic
        assert dist.sample(rng()) == 16000.0
        assert (dist.sample_many(rng(), 100) == 16000.0).all()

    def test_per_element_scales(self):
        dist = BoundedTimeDistribution(average=100.0, ceiling=400.0)
        scales = np.array([0.5] * 1000 + [1.5] * 1000)
        samples = dist.sample_many(rng(), 2000, scales=scales)
        assert samples[:1000].mean() < samples[1000:].mean()

    def test_single_sample_in_support(self):
        dist = BoundedTimeDistribution(average=100.0, ceiling=400.0)
        for _ in range(100):
            value = dist.sample(rng())
            assert dist.floor <= value <= 400.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            BoundedTimeDistribution(average=500.0, ceiling=400.0)
        with pytest.raises(ConfigurationError):
            BoundedTimeDistribution(average=-1.0, ceiling=400.0)
        with pytest.raises(ConfigurationError):
            BoundedTimeDistribution(average=10.0, ceiling=40.0, floor_fraction=2.0)
        with pytest.raises(ConfigurationError):
            BoundedTimeDistribution(average=10.0, ceiling=40.0, concentration=0.0)

    def test_concentration_controls_spread(self):
        tight = BoundedTimeDistribution(average=100.0, ceiling=400.0, concentration=50.0)
        wild = BoundedTimeDistribution(average=100.0, ceiling=400.0, concentration=2.0)
        assert tight.sample_many(rng(3), 5000).std() < wild.sample_many(rng(4), 5000).std()


class TestTimingModel:
    @pytest.fixture
    def model(self):
        qs = QualitySet.from_range(2)
        av = QualityTimeTable(qs, {"a": [10.0, 20.0], "b": 5.0})
        wc = QualityTimeTable(qs, {"a": [40.0, 80.0], "b": 5.0})
        return TimingModel(av, wc, qs)

    def test_distribution_lookup(self, model):
        dist = model.distribution("a", 1)
        assert dist.average == 20.0
        assert dist.ceiling == 80.0

    def test_sample_respects_bounds(self, model):
        generator = rng()
        for _ in range(200):
            assert model.sample(generator, "a", 0) <= 40.0

    def test_deterministic_action(self, model):
        assert model.sample(rng(), "b", 0) == 5.0

    def test_unfolded_name_falls_back_to_base(self, model):
        assert model.distribution("a#7", 1).average == 20.0

    def test_unknown_action_raises(self, model):
        with pytest.raises(ConfigurationError):
            model.distribution("zz", 0)
