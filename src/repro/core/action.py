"""Actions and quality levels.

The paper models application software as a set of *actions* (atomic
C-functions) ``A`` partially ordered by a precedence graph
(Definition 2.1), and a finite, non-empty set of integer *quality
levels* ``Q`` (Definition 2.3).  Execution times are non-decreasing in
the quality level; the controller trades quality against time.

Actions are plain strings throughout the library; this module provides
the small amount of structure shared by everything else:

* :class:`QualitySet` — a validated, ordered set of quality levels with
  ``qmin``/``qmax`` accessors.
* :func:`iterated_action` / :func:`split_iterated_action` — the naming
  convention used when a cyclic body (e.g. the macroblock graph of
  Fig. 2) is unfolded ``N`` times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import ConfigurationError

#: Actions are identified by plain strings.
Action = str

#: Separator used to name the k-th instance of an action in an unfolded
#: iterated graph, e.g. ``"Motion_Estimate#12"``.
ITERATION_SEPARATOR = "#"


@dataclass(frozen=True)
class QualitySet:
    """A finite, non-empty, ordered set of integer quality levels.

    Definition 2.3 only requires ``Q`` to be a finite set of integers;
    levels need not be contiguous.  Iteration is in increasing order.

    >>> qs = QualitySet.from_range(8)
    >>> qs.qmin, qs.qmax, len(qs)
    (0, 7, 8)
    """

    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ConfigurationError("quality set Q must be non-empty")
        if len(set(self.levels)) != len(self.levels):
            raise ConfigurationError(f"duplicate quality levels: {self.levels}")
        if list(self.levels) != sorted(self.levels):
            object.__setattr__(self, "levels", tuple(sorted(self.levels)))

    @classmethod
    def from_range(cls, count: int, start: int = 0) -> "QualitySet":
        """Build the contiguous quality set ``{start, ..., start+count-1}``."""
        if count <= 0:
            raise ConfigurationError("quality set must contain at least one level")
        return cls(tuple(range(start, start + count)))

    @classmethod
    def of(cls, levels: Iterable[int]) -> "QualitySet":
        """Build a quality set from an arbitrary iterable of integers."""
        return cls(tuple(sorted(set(int(q) for q in levels))))

    @property
    def qmin(self) -> int:
        """The minimum quality level ``qmin = min(Q)`` (Definition 2.3)."""
        return self.levels[0]

    @property
    def qmax(self) -> int:
        """The maximum quality level ``max(Q)``."""
        return self.levels[-1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.levels)

    def __len__(self) -> int:
        return len(self.levels)

    def __contains__(self, q: object) -> bool:
        return q in self.levels

    def index(self, q: int) -> int:
        """Rank of level ``q`` in increasing order (0 = qmin)."""
        try:
            return self.levels.index(q)
        except ValueError:
            raise ConfigurationError(f"quality level {q} not in Q={self.levels}") from None

    def below(self, q: int) -> tuple[int, ...]:
        """All levels ``<= q``, in increasing order."""
        return tuple(level for level in self.levels if level <= q)

    def descending(self) -> tuple[int, ...]:
        """Levels in decreasing order (the quality manager searches from qmax down)."""
        return tuple(reversed(self.levels))

    def normalized(self, q: float) -> float:
        """Level ``q`` on the [0, 1] scale of every SLA signal, ``qmin``
        to ``qmax`` (nan stays nan; one level maps to 0)."""
        qmin = self.levels[0]
        return (q - qmin) / max(1, self.levels[-1] - qmin)


def iterated_action(action: Action, iteration: int) -> Action:
    """Name the ``iteration``-th instance of ``action`` in an unfolded cycle.

    >>> iterated_action("Quantize", 3)
    'Quantize#3'
    """
    if iteration < 0:
        raise ConfigurationError(f"iteration index must be >= 0, got {iteration}")
    return f"{action}{ITERATION_SEPARATOR}{iteration}"


def split_iterated_action(name: Action) -> tuple[Action, int | None]:
    """Inverse of :func:`iterated_action`.

    Returns ``(base_action, iteration)``; ``iteration`` is ``None`` when
    the name does not carry an iteration suffix.

    >>> split_iterated_action("Quantize#3")
    ('Quantize', 3)
    >>> split_iterated_action("Quantize")
    ('Quantize', None)
    """
    base, sep, suffix = name.rpartition(ITERATION_SEPARATOR)
    if not sep:
        return name, None
    try:
        return base, int(suffix)
    except ValueError:
        return name, None
