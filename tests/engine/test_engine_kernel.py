"""The batched decision kernel is the scalar kernel, lane for lane.

``batch_decide`` performs the exact IEEE-double operation sequence of
``scalar_decide`` per lane, so on identical inputs every output —
cycles, per-macroblock quality decisions, degraded counts — must match
to the bit, for any granularity and any budget (including starvation
and surplus).  The bank tests pin the draw-order determinism contract:
one draw per (frame, macroblock, action), independent of scheduling.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ENGINES, validate_engine
from repro.engine.bank import FrameTimeBank
from repro.engine.kernel import (
    batch_decide,
    decision_kernel,
    kernel_for,
    scalar_decide,
)
from repro.errors import ConfigurationError
from repro.experiments.configs import tiny_config
from repro.sim.runner import simulation_for


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


class TestKernelIdentity:
    @pytest.mark.parametrize("granularity", [1, 2, 5, 9])
    @pytest.mark.parametrize("lanes", [1, 2, 7])
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
            assert batched[lane].cycles == scalar.cycles
            assert list(batched[lane].qualities) == list(scalar.qualities)
            assert batched[lane].decisions == scalar.decisions
            assert batched[lane].degraded == scalar.degraded
            assert (
                batched[lane].controller_cycles == scalar.controller_cycles
            )
            # the folded-in quality statistics are part of the contract:
            # integer sums are exact, so these match to the bit too
            assert batched[lane].mean_quality == scalar.mean_quality
            assert batched[lane].min_quality == scalar.min_quality
            assert batched[lane].max_quality == scalar.max_quality
            assert batched[lane].quality_churn == scalar.quality_churn

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
        """On real banked draws, not just synthetic ones."""
        bank = FrameTimeBank(simulation, simulation._rng("identity-test"))
        budget = 0.6 * kernel.nominal_budget
        frames = range(bank.frames)
        batched = batch_decide(
            kernel,
            1,
            np.stack([bank.grab_plus[f] for f in frames]),
            np.stack([bank.me_plus[f] for f in frames]),
            np.full(bank.frames, budget),
        )
        for f in frames:
            scalar = scalar_decide(
                kernel, 1, *bank.frame_lists(f), budget
            )
            assert batched[f].cycles == scalar.cycles
            assert list(batched[f].qualities) == list(scalar.qualities)

    def test_kernel_is_cached_per_shape(self, simulation):
        a = kernel_for(simulation, "both")
        b = kernel_for(simulation, "both")
        assert a is b
        assert kernel_for(simulation, "worst") is not a

    def test_kernel_rows_are_read_only(self, kernel):
        with pytest.raises(ValueError):
            kernel.rows[0, 0] = 0.0


class TestFrameTimeBank:
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
