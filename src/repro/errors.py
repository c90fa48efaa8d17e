"""Exception hierarchy for the repro library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """A precedence graph is malformed (cycle, unknown action, ...)."""


class SequenceError(ReproError):
    """An execution sequence violates precedence or prefix constraints."""


class TimingError(ReproError):
    """An execution-time table violates the model's assumptions.

    The parameterized real-time system of Definition 2.3 requires
    ``Cav_q <= Cwc_q`` and both to be non-decreasing in the quality
    level ``q``.
    """


class InfeasibleError(ReproError):
    """No feasible schedule exists at minimum quality (Problem, section 2.1).

    The control problem is only well-posed when the set of feasible
    schedules with respect to ``Cwc_qmin`` and ``D_qmin`` is non-empty.
    """


class ConfigurationError(ReproError):
    """Invalid experiment or simulator configuration."""
