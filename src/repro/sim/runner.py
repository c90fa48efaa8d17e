"""High-level experiment drivers.

Thin, memoizing wrappers that build an :class:`EncoderSimulation` and
execute the runs the figures need.  All benches and examples go through
these entry points so results are consistent across the suite.

Caching contract (important for fleet / multi-stream use)
---------------------------------------------------------

The ``lru_cache`` wrappers below return **shared** objects:

* :func:`simulation_for` hands out one :class:`EncoderSimulation` per
  config.  Its ``run_*`` methods hold no per-run state on the
  instance, so runs on a shared simulation may nest or interleave
  (a frame-adaptive policy may even start another run mid-run), and
  its per-frame primitives (``_draw_frame_times``,
  ``_encode_controlled_frame``) only read the pre-built tables — this
  is what :mod:`repro.streams.session` relies on to amortize table
  construction across a fleet.
* :func:`run_controlled` / :func:`run_constant` return shared, mutable
  :class:`RunResult` objects.  Treat them as **read-only**; never append
  to ``result.frames`` or ``replace``-in-place.  Code that needs a
  private copy should deep-copy, or call :func:`reset_caches` first.

Admission does not go through these wrappers: it compares a stream's
qmin demand, the total of a qmin schedule that belongs to the compiled
controller's shape, with the budget, so :mod:`repro.streams.admission`
walks that schedule once per shape straight from
:func:`~repro.sim.encoder_loop.compiled_controller` and never builds a
simulation.

:func:`reset_caches` drops these caches and every per-shape and
per-stream cache behind them (compiled controllers, decision kernels,
time banks, the admission shape cache) — tests and long-lived fleet
processes call it to release memory and to guarantee isolation between
experiments.
"""

from __future__ import annotations

from functools import lru_cache

from repro.sim.encoder_loop import EncoderSimulation, SimulationConfig
from repro.sim.results import RunResult


@lru_cache(maxsize=1024)
def _simulation(config: SimulationConfig) -> EncoderSimulation:
    """Cache simulations per config: table construction is the setup cost.

    Sized for fleet scale: scenario generators salt each stream's seed,
    so a 256-stream fleet holds 256 distinct configs at once — a small
    cache would rebuild tables round-robin.
    """
    return EncoderSimulation(config)


def simulation_for(config: SimulationConfig) -> EncoderSimulation:
    """The shared simulation for ``config`` (see the caching contract above).

    Stream sessions use this to share controller tables between
    same-config streams; the returned object carries no per-run state,
    so every holder may run on it.
    """
    return _simulation(config)


@lru_cache(maxsize=64)
def _controlled_cached(
    config: SimulationConfig, constraint_mode: str, granularity: int
) -> RunResult:
    return _simulation(config).run_controlled(
        constraint_mode=constraint_mode, granularity=granularity
    )


@lru_cache(maxsize=64)
def _constant_cached(config: SimulationConfig, quality: int) -> RunResult:
    return _simulation(config).run_constant(quality)


def reset_caches() -> None:
    """Drop every memoized simulation, run result, compiled controller,
    time bank and admission schedule.

    After this call previously returned ``RunResult``/``EncoderSimulation``
    objects stay valid but are no longer shared with future calls.
    """
    from repro.engine.bank import bank_for
    from repro.engine.kernel import clear_shifted_cache, decision_kernel
    from repro.sim.encoder_loop import compiled_controller
    from repro.streams.admission import _SCHEDULES, qmin_completions

    _controlled_cached.cache_clear()
    _constant_cached.cache_clear()
    _simulation.cache_clear()
    compiled_controller.cache_clear()
    decision_kernel.cache_clear()
    clear_shifted_cache()
    bank_for.cache_clear()
    _SCHEDULES.clear()
    qmin_completions.cache_clear()


def run_controlled(
    config: SimulationConfig | None = None,
    constraint_mode: str = "both",
    granularity: int = 1,
) -> RunResult:
    """Run the paper's controlled encoder over the benchmark.

    Results are cached per (config, mode, granularity): runs are
    deterministic given the config seed, and several figures share the
    same controlled run.  Treat the returned object as read-only.
    """
    config = config if config is not None else SimulationConfig()
    return _controlled_cached(config, constraint_mode, granularity)


def run_constant(
    quality: int, config: SimulationConfig | None = None
) -> RunResult:
    """Run the constant-quality baseline at one level (cached, read-only)."""
    config = config if config is not None else SimulationConfig()
    return _constant_cached(config, quality)


def run_adaptive(
    policy, label: str, config: SimulationConfig | None = None
) -> RunResult:
    """Run a frame-level adaptive baseline policy."""
    simulation = _simulation(config if config is not None else SimulationConfig())
    return simulation.run_frame_adaptive(policy, label)


def run_paper_comparison(
    config: SimulationConfig | None = None,
) -> dict[str, RunResult]:
    """The four runs behind Figs. 6-9.

    * ``controlled`` — controlled quality, K = config.buffer_capacity (paper: 1)
    * ``constant_q3`` — constant q=3, same K
    * ``constant_q4_k2`` — constant q=4 with K=2 buffers
    """
    from dataclasses import replace

    base = config if config is not None else SimulationConfig()
    k2 = replace(base, buffer_capacity=2)
    return {
        "controlled": run_controlled(base),
        "constant_q3": run_constant(3, base),
        "constant_q4_k2": run_constant(4, k2),
    }
