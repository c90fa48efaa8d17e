"""Bounded execution-time distributions.

The paper's method assumes only that actual execution times satisfy
``C <= Cwc_theta`` and that ``Cav_q`` estimates their averages.  The
platform simulator realizes this with scaled Beta distributions:

* support ``[floor, Cwc]`` where ``floor = floor_fraction * Cav``
  (an action never finishes faster than a fixed fraction of its
  average — there is always some irreducible work);
* mean ``scale * Cav`` clipped into the support, where ``scale`` is a
  content-dependent load factor (e.g. motion activity for
  ``Motion_Estimate``) with benchmark-wide expectation ~1;
* a concentration parameter controlling how heavy the spread is
  (small concentration = wild, bursty times — high uncertainty between
  average and worst case, which is exactly the regime the paper targets).

Degenerate case: when ``Cav == Cwc`` the time is deterministic
(the paper's ``Discrete_Cosine_Transform`` and ``Intra_Predict`` have
equal average and worst case in Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BoundedTimeDistribution:
    """A Beta law scaled to ``[floor, ceiling]`` with a target mean.

    Parameters
    ----------
    average:
        Nominal mean (``Cav``); the realized mean is ``scale * average``
        clipped into the open support.
    ceiling:
        Hard upper bound (``Cwc``) — never exceeded.
    floor_fraction:
        ``floor = floor_fraction * average``.
    concentration:
        Beta concentration ``kappa = a + b``; larger is tighter.
    """

    average: float
    ceiling: float
    floor_fraction: float = 0.2
    concentration: float = 8.0

    def __post_init__(self) -> None:
        if self.average < 0 or self.ceiling < 0:
            raise ConfigurationError("times must be non-negative")
        if self.average > self.ceiling:
            raise ConfigurationError(
                f"average {self.average} exceeds ceiling {self.ceiling}"
            )
        if not 0.0 <= self.floor_fraction <= 1.0:
            raise ConfigurationError(
                f"floor_fraction must be in [0, 1], got {self.floor_fraction}"
            )
        if self.concentration <= 0:
            raise ConfigurationError("concentration must be positive")

    @property
    def floor(self) -> float:
        return self.floor_fraction * self.average

    @property
    def deterministic(self) -> bool:
        """True when the law collapses to a point mass at ``average``."""
        return self.average == self.ceiling

    def _mean_fraction(self, scale: float) -> float:
        """Target mean as a fraction of the support, clipped away from 0/1."""
        span = self.ceiling - self.floor
        target = min(max(scale * self.average, self.floor), self.ceiling)
        fraction = (target - self.floor) / span
        return min(max(fraction, 0.02), 0.98)

    def sample(self, rng: np.random.Generator, scale: float = 1.0) -> float:
        """One draw; guaranteed ``<= ceiling`` and ``>= floor``."""
        if self.deterministic:
            return self.average
        mu = self._mean_fraction(scale)
        a = mu * self.concentration
        b = (1.0 - mu) * self.concentration
        return self.floor + (self.ceiling - self.floor) * float(rng.beta(a, b))

    def _beta_parameters(
        self, scales: np.ndarray, a: np.ndarray, b: np.ndarray
    ) -> None:
        """Write :meth:`_mean_fraction`'s Beta ``(a, b)`` for every entry
        of ``scales`` into ``a`` and ``b`` (``np.maximum``/``np.minimum``
        compute ``np.clip``'s bits without its wrapper cost)."""
        np.multiply(scales, self.average, out=a)
        np.maximum(a, self.floor, out=a)
        np.minimum(a, self.ceiling, out=a)
        a -= self.floor
        a /= self.ceiling - self.floor
        np.maximum(a, 0.02, out=a)
        np.minimum(a, 0.98, out=a)
        np.subtract(1.0, a, out=b)
        b *= self.concentration
        a *= self.concentration

    def sample_many(
        self, rng: np.random.Generator, count: int, scales: np.ndarray | float = 1.0
    ) -> np.ndarray:
        """Vectorized draws, one per entry of ``scales`` (or ``count`` @ scalar).

        A deterministic law draws nothing.  A scalar ``scales`` draws
        with scalar Beta parameters (the :meth:`sample` math), an array
        with one parameter pair per entry; numpy's Beta generator
        consumes the same stream either way, and the scalar path costs
        ~2/3 as much per draw.  Scales that do not broadcast to
        ``count`` raise ``ValueError``.
        """
        if self.deterministic:
            return np.full(count, self.average)
        if np.ndim(scales) == 0:
            mu = self._mean_fraction(float(scales))
            draws = rng.beta(
                mu * self.concentration, (1.0 - mu) * self.concentration, size=count
            )
        else:
            scales = np.asarray(scales, dtype=np.float64)
            a = np.empty(scales.shape)
            b = np.empty(scales.shape)
            self._beta_parameters(scales, a, b)
            draws = rng.beta(a, b, size=count)
        draws *= self.ceiling - self.floor
        draws += self.floor
        return draws


def sample_stacked(
    rng: np.random.Generator,
    laws: Sequence[BoundedTimeDistribution],
    scales: np.ndarray,
) -> np.ndarray:
    """``np.stack([law.sample_many(rng, len(scales), scales) for law in
    laws])`` in one Beta call.

    The call draws row-major over the stochastic laws, which is the
    order of the per-law calls, so the stream and every bit are the
    same; deterministic laws still draw nothing.  The parameters are
    written in place, so the call holds three ``(len(laws),
    len(scales))`` arrays at most.
    """
    scales = np.asarray(scales, dtype=np.float64)
    drawn = [law for law in laws if not law.deterministic]
    a = np.empty((len(drawn), len(scales)))
    b = np.empty_like(a)
    for law, a_row, b_row in zip(drawn, a, b):
        law._beta_parameters(scales, a_row, b_row)
    draws = rng.beta(a, b)
    del a, b
    for law, row in zip(drawn, draws):
        row *= law.ceiling - law.floor
        row += law.floor
    if len(drawn) == len(laws):
        return draws
    out = np.empty((len(laws), len(scales)))
    rows = iter(draws)
    for law, out_row in zip(laws, out):
        out_row[:] = law.average if law.deterministic else next(rows)
    return out


class TimingModel:
    """Per-(action, quality) distributions derived from a system's tables.

    Builds one :class:`BoundedTimeDistribution` per action and quality
    level from ``Cav_q`` / ``Cwc_q``; the executor samples actual times
    from it.  ``E[C] = Cav`` at ``scale = 1`` (up to the clipping of the
    mean into the support).
    """

    def __init__(
        self,
        average_times,
        worst_times,
        quality_set,
        floor_fraction: float = 0.2,
        concentration: float = 8.0,
    ) -> None:
        self._distributions: dict[tuple[str, int], BoundedTimeDistribution] = {}
        for action in average_times.actions():
            for q in quality_set:
                self._distributions[(action, q)] = BoundedTimeDistribution(
                    average=average_times.time(action, q),
                    ceiling=worst_times.time(action, q),
                    floor_fraction=floor_fraction,
                    concentration=concentration,
                )
        self._quality_set = quality_set

    def distribution(self, action: str, quality: int) -> BoundedTimeDistribution:
        """The law of one (base) action at one level."""
        key = (action, quality)
        if key not in self._distributions:
            from repro.core.action import split_iterated_action

            base, _ = split_iterated_action(action)
            key = (base, quality)
        try:
            return self._distributions[key]
        except KeyError:
            raise ConfigurationError(
                f"no timing distribution for action {action!r} at q={quality}"
            ) from None

    def sample(
        self, rng: np.random.Generator, action: str, quality: int, scale: float = 1.0
    ) -> float:
        return self.distribution(action, quality).sample(rng, scale)
