"""Property-based tests of the substrates (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video.pixel.quant import dequantize, quantize
from repro.video.ratecontrol import RateControlConfig, VirtualBufferRateController
from repro.platform.distributions import BoundedTimeDistribution

SETTINGS = settings(max_examples=60, deadline=None)


@given(
    average=st.floats(min_value=0.1, max_value=1e6),
    headroom=st.floats(min_value=0.0, max_value=1e6),
    scale=st.floats(min_value=0.0, max_value=10.0),
    concentration=st.floats(min_value=0.5, max_value=50.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@SETTINGS
def test_execution_times_never_exceed_worst_case(
    average, headroom, scale, concentration, seed
):
    """The platform respects the safety contract C <= Cwc for any
    parameterization and any load scale."""
    distribution = BoundedTimeDistribution(
        average=average,
        ceiling=average + headroom,
        concentration=concentration,
    )
    rng = np.random.default_rng(seed)
    samples = distribution.sample_many(rng, 64, scales=scale)
    assert (samples <= distribution.ceiling + 1e-9).all()
    assert (samples >= distribution.floor - 1e-9).all()


@given(
    values=st.lists(
        st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=64
    ),
    step=st.floats(min_value=0.01, max_value=100.0),
)
@SETTINGS
def test_quantization_error_bounded_by_half_step(values, step):
    array = np.array(values)
    recovered = dequantize(quantize(array, step), step)
    assert np.abs(recovered - array).max() <= step / 2 + 1e-6


@given(
    spends=st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=200_000.0),
            st.none(),  # None = skipped frame
        ),
        max_size=60,
    )
)
@SETTINGS
def test_rate_allocations_always_clamped(spends):
    config = RateControlConfig()
    controller = VirtualBufferRateController(config)
    low = config.min_allocation_fraction * controller.target
    high = config.max_allocation_fraction * controller.target
    for spend in spends:
        allocation = controller.allocate()
        assert low - 1e-9 <= allocation <= high + 1e-9
        iframe_allocation = controller.allocate(is_iframe=True)
        assert low - 1e-9 <= iframe_allocation <= high + 1e-9
        if spend is None:
            controller.commit_skip()
        else:
            controller.commit(spend)


@given(
    closed_loop_frames=st.integers(min_value=10, max_value=200),
    seed=st.integers(min_value=0, max_value=2**31),
)
@SETTINGS
def test_rate_control_closed_loop_is_stable(closed_loop_frames, seed):
    """Spending what is allocated (with noise) never diverges."""
    rng = np.random.default_rng(seed)
    controller = VirtualBufferRateController()
    for _ in range(closed_loop_frames):
        allocation = controller.allocate()
        controller.commit(allocation * float(rng.uniform(0.9, 1.1)))
    # fullness remains within a few frames' worth of bits
    assert abs(controller.fullness) < 5 * controller.target
