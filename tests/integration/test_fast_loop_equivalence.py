"""The engine's decision kernel must match the core controller.

The encoder simulation decides each frame through
:func:`repro.engine.kernel.scalar_decide`, which evaluates the quality
constraint only at ``Motion_Estimate`` positions (the other actions'
times are quality-independent, so deciding there is a no-op) over
per-macroblock threshold rows and fused action times instead of
controller objects.  This test pins that kernel, run through the
simulation, to the semantics of :class:`TableDrivenController` in every
constraint mode: same times in, same ME qualities out.
"""

import numpy as np
import pytest

from repro.core.action import split_iterated_action
from repro.core.fast_controller import TableDrivenController
from repro.experiments.configs import tiny_config
from repro.sim.encoder_loop import EncoderSimulation
from repro.video.pipeline import GRAB_ACTION, ME_ACTION, MACROBLOCK_ACTIONS


@pytest.fixture(scope="module")
def simulation():
    from dataclasses import replace

    config = replace(tiny_config(frames=3), decision_overhead=150.0)
    return EncoderSimulation(config)


def deterministic_times(simulation, content, seed):
    """One fixed draw of all frame times, in the sim's format."""
    rng = np.random.default_rng(seed)
    return simulation._draw_frame_times(rng, content, quality=None)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("frame_index", [0, 1])
def test_me_decisions_match_controller(simulation, seed, frame_index, monkeypatch):
    """The paper's mode: average and worst-case constraints together."""
    assert_kernel_matches_controller(
        simulation, seed, frame_index, "both", monkeypatch
    )


@pytest.mark.parametrize("mode", ["average", "worst"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("frame_index", [0, 1])
def test_me_decisions_match_controller_in_single_constraint_modes(
    simulation, seed, frame_index, mode, monkeypatch
):
    assert_kernel_matches_controller(
        simulation, seed, frame_index, mode, monkeypatch
    )


def assert_kernel_matches_controller(
    simulation, seed, frame_index, mode, monkeypatch
):
    content = simulation.contents[frame_index]
    grab, me, post = deterministic_times(simulation, content, seed)
    overhead = simulation.config.decision_overhead
    count = simulation.config.macroblocks

    # --- the kernel, through the simulation ---------------------------
    monkeypatch.setattr(
        simulation,
        "_draw_frame_times",
        lambda rng, c, quality, bias=1.0: (grab, me, post),
    )
    timing = simulation._encode_controlled_frame(
        np.random.default_rng(0), content,
        budget=simulation.config.nominal_budget,
        constraint_mode=mode, granularity=1,
    )

    # --- the real table-driven controller over the same times ----------
    # Reconstruct per-action times: the sim aggregates the 7 post-ME
    # actions into one sum, which is equivalent to any split for a
    # uniform-deadline cycle; feed the controller the same aggregate by
    # charging it all on the first post-ME action.
    post_me_first = MACROBLOCK_ACTIONS[2]
    levels = list(simulation.quality_set)

    def time_source(action, quality):
        base, iteration = split_iterated_action(action)
        if base == GRAB_ACTION:
            return grab[iteration] + 2 * overhead  # grab + ME boundary costs
        if base == ME_ACTION:
            return me[iteration][levels.index(quality)]
        if base == post_me_first:
            return post[iteration] + 7 * overhead
        return 0.0

    controller = TableDrivenController(
        simulation.system,
        constraint_mode=mode,
        tables=simulation.tables,
        validate=False,
    )
    result = controller.run_cycle(time_source)

    me_positions = simulation._me_positions
    controller_me_qualities = [result.qualities[p] for p in me_positions]
    assert controller_me_qualities == list(timing.qualities), (
        f"kernel diverged from the controller on frame {frame_index}, "
        f"seed {seed}, mode {mode}"
    )
    # and both observed the same total frame time
    assert result.total_time == pytest.approx(timing.cycles)


def test_fast_loop_charges_every_boundary(simulation):
    content = simulation.contents[0]
    timing = simulation._encode_controlled_frame(
        np.random.default_rng(1), content,
        budget=simulation.config.nominal_budget,
        constraint_mode="both", granularity=1,
    )
    expected = 9.0 * simulation.config.decision_overhead * simulation.config.macroblocks
    assert timing.controller_cycles == expected
