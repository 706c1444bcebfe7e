"""Heavy-tailed request-attribute samplers for scenario workloads.

Real serving traffic is heavy-tailed: most requests are small, a few are
enormous, and the tail dominates queueing behaviour (cf. the scale-free
heavy-tail analysis referenced from PAPERS.md).  A plain Pareto tail is
unusable in a bounded simulator -- one astronomically large request would
never finish -- so everything here samples from the *bounded* Pareto
distribution: a power-law body with hard floor ``lower`` and hard cap
``upper``, drawn by inverse-CDF so one uniform variate maps to exactly
one sample (stable draw counts keep scenario replays bit-identical).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

__all__ = ["BoundedPareto", "bounded_pareto", "categorical_picks"]


def bounded_pareto(
    rng: np.random.Generator, alpha: float, lower: float, upper: float
) -> float:
    """Draw one bounded-Pareto sample by inverse-CDF.

    Args:
        rng: the seeded generator to consume exactly one uniform from.
        alpha: tail exponent; smaller means heavier tail.
        lower: hard floor of the support (the distribution's scale).
        upper: hard cap of the support.

    Returns:
        A sample in ``[lower, upper]``.
    """
    return BoundedPareto(alpha, lower, upper).sample(rng)


def categorical_picks(probabilities: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Map uniforms to category indices the way ``Generator.choice`` does.

    ``rng.choice(len(p), p=p)`` draws one uniform ``u`` and returns
    ``searchsorted(cumsum(p) / sum(p), u, side="right")``; applying that
    mapping to a block of uniforms gives the same picks as one ``choice``
    call per uniform, without its per-call argument checks.

    Args:
        probabilities: non-negative category weights summing to one.
        uniforms: variates in ``[0, 1)``, one per pick.

    Returns:
        One category index per uniform.
    """
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(uniforms, side="right")


@dataclass(frozen=True)
class BoundedPareto:
    """A reusable bounded-Pareto distribution (validated once).

    Args:
        alpha: tail exponent; smaller means heavier tail.
        lower: hard floor of the support.
        upper: hard cap of the support.
    """

    alpha: float = 1.5
    lower: float = 1.0
    upper: float = 8.0

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("tail exponent must be positive")
        if not (0 < self.lower <= self.upper):
            raise ValueError("need 0 < lower <= upper")

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one sample (consumes exactly one uniform variate).

        Args:
            rng: the seeded generator to draw from.

        Returns:
            A sample in ``[lower, upper]``.
        """
        return self.quantiles((rng.random(),))[0]

    def quantiles(self, uniforms: Sequence[float]) -> List[float]:
        """Apply the inverse CDF to each uniform variate.

        The arithmetic runs on Python floats: ``np.power`` is not
        guaranteed to round like ``**``, and every sample must equal the
        one :meth:`sample` draws from the same uniform.  Degenerate bounds
        (``lower == upper``) ignore the variates but still take one each,
        so draw counts stay stable.

        Args:
            uniforms: variates in ``[0, 1)``.

        Returns:
            One sample in ``[lower, upper]`` per variate.
        """
        a, low, high = self.alpha, self.lower, self.upper
        if low == high:
            return [low] * len(uniforms)
        span = 1.0 - (low / high) ** a
        exponent = -1.0 / a
        return [low * (1.0 - u * span) ** exponent for u in uniforms]

    @property
    def mean(self) -> float:
        """Analytic mean of the bounded-Pareto distribution."""
        a, low, high = self.alpha, self.lower, self.upper
        if low == high:
            return low
        if a == 1.0:
            return (low * high / (high - low)) * float(np.log(high / low))
        ratio = (low / high) ** a
        return (low ** a / (1.0 - ratio)) * (a / (a - 1.0)) * (
            low ** (1.0 - a) - high ** (1.0 - a)
        )
