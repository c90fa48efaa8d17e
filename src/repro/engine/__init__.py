"""Execution engines: scalar reference and vectorized batch.

The serving runners (:class:`~repro.streams.fleet.FleetRunner`,
:class:`~repro.cluster.shard.Shard`,
:class:`~repro.cluster.runner.ClusterRunner`) take an ``engine`` knob
selecting how sessions are advanced each scheduling round:

* ``"scalar"`` — the reference path: each session steps itself, the
  per-macroblock controller decision loop runs in pure Python.
* ``"vectorized"`` — all sessions of a pool step as numpy batches: the
  controller table lookups, elapsed-cycle updates and quality
  accounting run as array operations across sessions (see
  :mod:`repro.engine.vectorized`).  Bit-identical to ``"scalar"`` —
  the batched kernel performs the exact same IEEE-double operations in
  the exact same order per lane (asserted across every registered
  scenario generator by ``tests/engine/``).

Both engines run inside the one serving loop,
:meth:`~repro.cluster.shard.Shard.step`; a fleet is a single shard.

The split finishes what :func:`repro.sim.encoder_loop.compiled_controller`
started: controller *math* (tables, thresholds — here, as kernels) is
separated from session *state* (buffers, deadlines, records — still
owned by :class:`~repro.streams.session.StreamSession`), so one
decision kernel serves any number of sessions in any execution shape.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

#: Engine names accepted by the runners and by ``ServingSpec.engine``.
ENGINES = ("scalar", "vectorized")


def validate_engine(name: str) -> str:
    """Check an engine name, returning it (for constructor one-liners)."""
    if name == "parallel":
        raise ConfigurationError(
            "engine: 'parallel' was removed; use 'vectorized'"
        )
    if name not in ENGINES:
        raise ConfigurationError(
            f"engine: must be one of {ENGINES}, got {name!r}"
        )
    return name


__all__ = ["ENGINES", "validate_engine"]
