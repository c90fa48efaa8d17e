"""Shared fixtures for the benchmark harness.

Every bench reproduces one table/figure of the paper (see DESIGN.md
section 4).  Benches default to the /4-scaled configuration (same
utilization operating points, ~4x faster); set ``REPRO_FULL_SCALE=1``
to run the paper-scale setup.  Each bench writes its series to
``benchmarks/results/*.csv`` and prints an ASCII rendering of the
figure (run pytest with ``-s`` to see them).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.configs import benchmark_config

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def config():
    """The benchmark simulation configuration."""
    return benchmark_config()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_bench_trajectory(name: str, payload: dict) -> Path:
    """Write one bench's headline numbers to ``BENCH_<name>.json``.

    The file lands in the gitignored ``benchmarks/results/``, so a test
    run never rewrites a committed file; ``python -m
    repro.tool.bench_gate`` gates it there, and ``--update`` copies it
    to the committed repo-root ``BENCH_<name>.json`` whose diffs are the
    repo's perf/quality trajectory.  Keys are sorted for stable diffs;
    keep payloads to headline scalars.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_once(benchmark, function, *args, **kwargs):
    """Benchmark a full experiment exactly once and return its value.

    Reproduction runs take seconds; pedantic single-round timing keeps
    the harness honest about cost without re-running experiments.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
