"""The batched decision kernel is the scalar kernel, lane for lane.

``batch_decide`` performs the exact IEEE-double operation sequence of
``scalar_decide`` per lane, so on identical inputs every output —
cycles, per-macroblock quality decisions, degraded counts — must match
to the bit, for any granularity and any budget (including starvation
and surplus), on both of its branches: the per-lane loop below
``BATCH_MIN_LANES`` and the numpy pass at or above it.  The bank tests
pin the draw-order determinism contract: one draw per (frame,
macroblock, action), independent of scheduling.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ENGINES, validate_engine
from repro.engine import kernel as engine_kernel
from repro.engine import vectorized
from repro.engine.bank import FrameTimeBank, fuse
from repro.engine.kernel import (
    BATCH_MIN_LANES,
    batch_decide,
    decision_kernel,
    kernel_for,
    kernel_from_rows,
    scalar_decide,
)
from repro.errors import ConfigurationError
from repro.experiments.configs import scaled_config, tiny_config
from repro.sim.encoder_loop import _POST_ME_ACTIONS
from repro.sim.runner import simulation_for
from repro.streams.scenarios import MIX_SCALES
from repro.video.pipeline import COMPRESS_ACTION, GRAB_ACTION
from tests.platform.test_distributions import reference_sample_many


@pytest.fixture(scope="module")
def simulation():
    return simulation_for(tiny_config(seed=11, frames=6))


@pytest.fixture(scope="module")
def kernel(simulation):
    return kernel_for(simulation, "both")


def random_inputs(kernel, lanes, seed):
    """Synthetic pre-fused grab/me arrays in the kernel's shape."""
    rng = np.random.default_rng(seed)
    count = kernel.macroblocks
    levels = len(kernel.levels)
    grab = rng.uniform(50.0, 500.0, size=(lanes, count))
    me = rng.uniform(500.0, 50_000.0, size=(lanes, count, levels))
    me.sort(axis=2)  # higher level, higher cost — like the real tables
    budgets = rng.uniform(
        0.05 * kernel.nominal_budget, 2.0 * kernel.nominal_budget, size=lanes
    )
    return grab, me, budgets


def assert_same_timing(batched, scalar):
    assert batched.cycles == scalar.cycles
    assert list(batched.qualities) == list(scalar.qualities)
    assert batched.decisions == scalar.decisions
    assert batched.degraded == scalar.degraded
    assert batched.controller_cycles == scalar.controller_cycles
    # the folded-in quality statistics are part of the contract:
    # integer sums are exact, so these match to the bit too
    assert batched.mean_quality == scalar.mean_quality
    assert batched.min_quality == scalar.min_quality
    assert batched.max_quality == scalar.max_quality
    assert batched.quality_churn == scalar.quality_churn


#: Batch widths on either side of the real width crossover.
STRADDLE = (BATCH_MIN_LANES - 1, BATCH_MIN_LANES)


class TestKernelIdentity:
    """At the module's own crossover: narrow batches run per lane."""

    #: ``BATCH_MIN_LANES`` forced for the class (``None``: the module's)
    min_lanes = None

    @pytest.fixture(autouse=True)
    def crossover(self, monkeypatch):
        if self.min_lanes is not None:
            monkeypatch.setattr(engine_kernel, "BATCH_MIN_LANES", self.min_lanes)

    @pytest.mark.parametrize("granularity", [1, 2, 5, 9])
    @pytest.mark.parametrize("lanes", [1, 2, 7, *STRADDLE])
    def test_batch_matches_scalar_bitwise(self, kernel, granularity, lanes):
        grab, me, budgets = random_inputs(kernel, lanes, seed=granularity)
        batched = batch_decide(kernel, granularity, grab, me, budgets)
        for lane in range(lanes):
            scalar = scalar_decide(
                kernel,
                granularity,
                grab[lane].tolist(),
                me[lane].tolist(),
                float(budgets[lane]),
            )
            assert_same_timing(batched[lane], scalar)

    @pytest.mark.parametrize("lanes", [1, *STRADDLE])
    def test_row_sequences_match_stacked_arrays(self, kernel, lanes):
        """``_drain`` hands over lists of bank rows and budgets; the
        stacked arrays these tests build must give the same bits."""
        grab, me, budgets = random_inputs(kernel, lanes, seed=lanes)
        stacked = batch_decide(kernel, 2, grab, me, budgets)
        rows = batch_decide(kernel, 2, list(grab), list(me), budgets.tolist())
        for a, b in zip(stacked, rows, strict=True):
            assert_same_timing(a, b)

    def test_starved_budget_degrades_identically(self, kernel):
        """Near-zero budgets force the qmin fallback in both kernels."""
        grab, me, _ = random_inputs(kernel, 3, seed=99)
        budgets = np.full(3, 1.0)  # essentially no time at all
        batched = batch_decide(kernel, 1, grab, me, budgets)
        for lane in range(3):
            scalar = scalar_decide(
                kernel, 1,
                grab[lane].tolist(), me[lane].tolist(),
                1.0,
            )
            assert batched[lane].degraded == scalar.degraded > 0
            assert batched[lane].cycles == scalar.cycles

    def test_banked_frames_match_bitwise(self, simulation, kernel):
        """On real banked draws, not just synthetic ones: the bank's
        frames cycled out to either side of the crossover, as the list
        of bank rows ``_drain`` passes."""
        bank = FrameTimeBank(simulation, simulation._rng("identity-test"))
        budget = 0.6 * kernel.nominal_budget
        for lanes in (bank.frames, *STRADDLE):
            frames = [f % bank.frames for f in range(lanes)]
            batched = batch_decide(
                kernel,
                1,
                [bank.grab_plus[f] for f in frames],
                [bank.me_plus[f] for f in frames],
                [budget] * lanes,
            )
            for timing, f in zip(batched, frames, strict=True):
                scalar = scalar_decide(
                    kernel, 1, *bank.frame_lists(f), budget
                )
                assert_same_timing(timing, scalar)

    def test_kernel_is_cached_per_shape(self, simulation):
        a = kernel_for(simulation, "both")
        b = kernel_for(simulation, "both")
        assert a is b
        assert kernel_for(simulation, "worst") is not a

    def test_kernel_rows_are_read_only(self, kernel):
        with pytest.raises(ValueError):
            kernel.rows[0, 0] = 0.0


class TestKernelIdentityNumpyPass(TestKernelIdentity):
    """Every identity case again, with every width on the numpy pass."""

    min_lanes = 1


class TestWidthCrossover:
    def test_width_picks_the_branch(self, kernel, monkeypatch):
        """Below ``BATCH_MIN_LANES`` every lane runs ``scalar_decide``;
        at it, none does."""
        per_lane = []
        real = engine_kernel.scalar_decide

        def counted(*args):
            per_lane.append(args)
            return real(*args)

        monkeypatch.setattr(engine_kernel, "scalar_decide", counted)
        for lanes in STRADDLE:
            batch_decide(kernel, 1, *random_inputs(kernel, lanes, seed=lanes))
        assert len(per_lane) == BATCH_MIN_LANES - 1

    def test_equal_shapes_batch_as_one_group(self, monkeypatch):
        """Kernels group by shape, not identity: two sessions whose
        equal-shape kernels were built on either side of a cache clear
        share one batch."""
        from repro.streams.session import StreamSession

        config = tiny_config(seed=11, frames=6)
        first = StreamSession("shape-a", config)
        decision_kernel.cache_clear()
        second = StreamSession("shape-b", config)
        assert first._kernel is not second._kernel
        assert first._kernel.key == second._kernel.key
        widths = []
        real = vectorized.batch_decide

        def counted(kernel, granularity, grab, me, budgets):
            widths.append(len(budgets))
            return real(kernel, granularity, grab, me, budgets)

        monkeypatch.setattr(vectorized, "batch_decide", counted)
        sessions = [first, second]
        grant = {s.stream_id: s.demand for s in sessions}
        for _ in range(3):
            vectorized.step_sessions(sessions, grant)
        assert widths and set(widths) == {2}


class TestKernelFromRows:
    @pytest.mark.parametrize("bad", ["increasing", "nan"])
    def test_non_prefix_row_raises(self, kernel, bad):
        """A row that rises along the levels (or holds a NaN) would
        make the feasible levels stop being a prefix, which the numpy
        pass's count relies on, so the kernel is refused."""
        rows = [list(row) for row in kernel.rows_list]
        rows[3][2] = rows[3][1] + 1.0 if bad == "increasing" else float("nan")
        with pytest.raises(ConfigurationError, match="non-increasing"):
            kernel_from_rows(
                kernel.macroblocks, kernel.nominal_budget, kernel.overhead,
                kernel.constraint_mode, rows, range(kernel.macroblocks),
            )


def reference_bank(simulation, rng):
    """The bank's five arrays drawn in the documented order, one
    reference sampler call per law: motion normals, Grab, post-ME
    actions in ``_POST_ME_ACTIONS`` order, Motion_Estimate level by
    level, then the I-frames' intra rows."""
    cfg = simulation.config
    contents = simulation.contents
    frames, count = len(contents), cfg.macroblocks
    total = frames * count
    frame_motion = np.array([content.motion_activity for content in contents])
    mb_motion = np.clip(
        rng.normal(frame_motion[:, None], cfg.motion_spread, size=(frames, count)),
        0.02,
        0.98,
    )
    scales = cfg.load_model.scales(mb_motion).ravel()
    fixed = simulation._fixed_dists
    grab = reference_sample_many(fixed[GRAB_ACTION], rng, total)
    post = np.zeros(total)
    compress_scale = (0.8 + cfg.compress_motion_slope * mb_motion).ravel()
    for action in _POST_ME_ACTIONS:
        action_scales = compress_scale if action == COMPRESS_ACTION else 1.0
        post += reference_sample_many(fixed[action], rng, total, action_scales)
    me = np.stack(
        [
            reference_sample_many(simulation._me_dists[q], rng, total, scales)
            for q in simulation._levels
        ],
        axis=1,
    ).reshape(frames, count, -1)
    iframes = [f for f, content in enumerate(contents) if content.is_iframe]
    intra = reference_sample_many(
        simulation._me_dists[simulation.quality_set.qmin], rng, len(iframes) * count
    )
    me[iframes] = intra.reshape(len(iframes), count)[:, :, None]
    grab, post = grab.reshape(frames, count), post.reshape(frames, count)
    overhead = cfg.decision_overhead
    return {
        "grab": grab,
        "me": me,
        "post": post,
        "grab_plus": 2.0 * overhead + grab,
        "me_plus": me + (7.0 * overhead + post)[:, :, None],
    }


class TestFrameTimeBank:
    @pytest.mark.parametrize("scale", MIX_SCALES)
    def test_bank_is_the_reference_draw_order(self, scale):
        """The cluster-churn shapes (60, 81 and 108 macroblocks) over a
        clip with two I-frames: every array equals the reference
        assembly to the byte and keeps its C layout."""
        simulation = simulation_for(scaled_config(scale=scale, seed=5, frames=64))
        bank = FrameTimeBank(simulation, simulation._rng("reference"))
        expected = reference_bank(simulation, simulation._rng("reference"))
        assert sum(content.is_iframe for content in simulation.contents) == 2
        for name, array in expected.items():
            drawn = getattr(bank, name)
            assert drawn.shape == array.shape, name
            assert drawn.flags.c_contiguous and not drawn.flags.writeable, name
            assert drawn.tobytes() == array.tobytes(), name

    def test_same_salt_same_bank(self, simulation):
        a = FrameTimeBank(simulation, simulation._rng("bank-salt"))
        b = FrameTimeBank(simulation, simulation._rng("bank-salt"))
        assert np.array_equal(a.grab, b.grab)
        assert np.array_equal(a.me, b.me)
        assert np.array_equal(a.post, b.post)

    def test_different_salt_different_bank(self, simulation):
        a = FrameTimeBank(simulation, simulation._rng("bank-salt"))
        b = FrameTimeBank(simulation, simulation._rng("bank-other"))
        assert not np.array_equal(a.grab, b.grab)

    def test_shapes(self, simulation):
        bank = FrameTimeBank(simulation, simulation._rng("shapes"))
        frames = len(simulation.contents)
        count = simulation.config.macroblocks
        levels = len(simulation._levels)
        assert bank.grab.shape == (frames, count)
        assert bank.me.shape == (frames, count, levels)
        assert bank.post.shape == (frames, count)
        assert bank.grab_plus.shape == (frames, count)
        assert bank.me_plus.shape == (frames, count, levels)

    def test_iframe_rows_constant_across_levels(self, simulation):
        """I-frames run intra coding whatever the controller chooses."""
        bank = FrameTimeBank(simulation, simulation._rng("iframes"))
        for f, content in enumerate(simulation.contents):
            rows_equal = np.all(
                bank.me[f] == bank.me[f, :, :1], axis=None
            )
            if content.is_iframe:
                assert rows_equal
            else:
                assert not rows_equal

    def test_frame_lists_preserve_values(self, simulation):
        bank = FrameTimeBank(simulation, simulation._rng("lists"))
        grab, me = bank.frame_lists(0)
        assert grab == bank.grab_plus[0].tolist()
        assert me[3][1] == bank.me_plus[0, 3, 1]

    def test_fused_arrays_fold_the_kernel_constants(self, simulation):
        """grab_plus/me_plus are exactly the kernels' hoisted adds."""
        bank = FrameTimeBank(simulation, simulation._rng("fused"))
        overhead = simulation.config.decision_overhead
        assert np.array_equal(bank.grab_plus, 2.0 * overhead + bank.grab)
        assert np.array_equal(
            bank.me_plus,
            bank.me + (7.0 * overhead + bank.post)[:, :, None],
        )
        # the paper simulation fuses one frame's draws with the same call
        frame = 2
        grab_plus, me_plus = fuse(
            overhead, bank.grab[frame], bank.me[frame], bank.post[frame]
        )
        assert grab_plus.tobytes() == bank.grab_plus[frame].tobytes()
        assert me_plus.tobytes() == bank.me_plus[frame].tobytes()


class TestEngineValidation:
    def test_known_engines(self):
        assert ENGINES == ("scalar", "vectorized")
        for name in ENGINES:
            assert validate_engine(name) == name

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="engine"):
            validate_engine("warp")

    def test_removed_parallel_engine_names_its_replacement(self):
        """Every entry point refuses ``"parallel"`` and points at
        ``"vectorized"``, which batches each pool's sessions."""
        from repro.cluster import ClusterRunner, RoundRobinPlacement
        from repro.serving import ServingSpec
        from repro.streams import FleetRunner, QualityFairArbiter

        with pytest.raises(ConfigurationError, match="vectorized"):
            ServingSpec.from_dict(
                {"scenario": "steady", "capacity": 1e6, "engine": "parallel"}
            )
        with pytest.raises(ConfigurationError, match="vectorized"):
            FleetRunner(1e6, QualityFairArbiter(), engine="parallel")
        with pytest.raises(ConfigurationError, match="vectorized"):
            ClusterRunner(RoundRobinPlacement(), engine="parallel")

    def test_runner_knobs_validate(self):
        from repro.cluster import ClusterRunner, RoundRobinPlacement
        from repro.streams import FleetRunner, QualityFairArbiter

        with pytest.raises(ConfigurationError, match="engine"):
            FleetRunner(1e6, QualityFairArbiter(), engine="simd")
        with pytest.raises(ConfigurationError, match="engine"):
            ClusterRunner(RoundRobinPlacement(), engine="simd")

    def test_spec_engine_round_trips(self):
        from repro.serving import ServingSpec

        spec = ServingSpec(
            scenario="steady", capacity=1e6, engine="vectorized"
        )
        assert ServingSpec.from_json(spec.to_json()) == spec
        assert spec.to_dict()["engine"] == "vectorized"
        with pytest.raises(ConfigurationError, match="engine"):
            ServingSpec(scenario="steady", capacity=1e6, engine="simd")
