"""Weight models for degree sequences.

Three interchangeable ways to weight a degree sequence d, used by the
projected chains and the counting estimators:

* ``exact`` -- the exact number of labeled simple graphs realizing d, via
  the independent counting recursion (small n only).
* ``lw`` -- the binomial-model asymptotic estimate of that count, with the
  variance correction exp(-s(d)^2).
* ``slc`` -- the same estimate without the correction term and with the
  edge density fixed by a target edge count m; within a fixed-m slice this
  variant is strongly log-concave, which the projected samplers exploit.

All computation is in log space.  ``gammaln`` is imported from
``scipy.special`` at its one use, so only ``lw`` and ``slc`` weights load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DegenerateDensity(ValueError):
    """Raised when the edge density mu is 0 or 1 (empty/complete graph)."""


class SumMismatch(ValueError):
    """Raised when a degree sum does not match the required edge count."""


@dataclass(frozen=True)
class SequenceStats:
    """Density and dispersion summary of a degree sequence."""

    xi: float  # mean degree
    mu: float  # edge density xi / (n - 1)
    chi: float  # normalized degree variance
    s: float  # dispersion ratio chi / (2 mu (1 - mu))


def sequence_stats(d):
    d = np.asarray(d, dtype=float)
    n = len(d)
    if n < 2:
        raise ValueError("need at least two nodes")
    xi = float(d.sum() / n)
    mu = xi / (n - 1)
    if mu <= 0.0 or mu >= 1.0:
        raise DegenerateDensity(f"edge density mu={mu} is degenerate")
    chi = float(((d - xi) ** 2).sum() / (n - 1) ** 2)
    s = chi / (2.0 * mu * (1.0 - mu))
    return SequenceStats(xi=xi, mu=mu, chi=chi, s=s)


def _log_binom_sum(d, n):
    """sum_i ln C(n-1, d_i), in log space."""
    from scipy.special import gammaln

    d = np.asarray(d, dtype=float)
    return float(np.sum(gammaln(n) - gammaln(d + 1) - gammaln(n - d)))


def _entropy_term(mu, n):
    """(n(n-1)/2) * (mu ln mu + (1-mu) ln(1-mu))."""
    return (n * (n - 1) / 2.0) * (mu * math.log(mu) + (1.0 - mu) * math.log(1.0 - mu))


def lw_log_weight(d):
    """Log of the asymptotic estimate of |G(d)| for a near-regular sequence.

    ln w(d) = ln sqrt(2) + 1/4 - s(d)^2
              + (n(n-1)/2) (mu ln mu + (1-mu) ln(1-mu))
              + sum_i ln C(n-1, d_i)

    Raises DegenerateDensity on the empty and complete sequences (mu = 0 or
    1), whose entropy term takes the log of zero.
    """
    d = tuple(int(x) for x in d)
    n = len(d)
    st = sequence_stats(d)
    return (
        0.5 * math.log(2.0)
        + 0.25
        - st.s**2
        + _entropy_term(st.mu, n)
        + _log_binom_sum(d, n)
    )


def slc_log_weight(d, m):
    """Log of the strongly log-concave surrogate weight at edge count m.

    Drops the dispersion correction and pins the density to
    mu = 2m / (n(n-1)), so the weight is a product of per-coordinate
    binomials times a constant on the slice sum(d) = 2m.
    """
    d = tuple(int(x) for x in d)
    n = len(d)
    if sum(d) != 2 * m:
        raise SumMismatch(f"sum(d)={sum(d)} but 2m={2 * m}")
    mu = 2.0 * m / (n * (n - 1))
    if mu <= 0.0 or mu >= 1.0:
        raise DegenerateDensity(f"edge density mu={mu} is degenerate")
    return 0.5 * math.log(2.0) + 0.25 + _entropy_term(mu, n) + _log_binom_sum(d, n)


@dataclass(frozen=True)
class WeightModel:
    """Dispatch wrapper: kind is one of "exact", "lw", "slc".

    "slc" requires the edge count m.  log_weight returns -inf for
    sequences of exact weight zero (non-graphical under "exact").
    """

    kind: str = "exact"
    m: int | None = None

    def __post_init__(self):
        if self.kind not in ("exact", "lw", "slc"):
            raise ValueError(f"unknown weight model {self.kind!r}")
        if self.kind == "slc" and self.m is None:
            raise ValueError("slc weights need the edge count m")

    def log_weight(self, d):
        if self.kind == "exact":
            from . import oracle

            c = oracle.count_realizations(d)
            return math.log(c) if c > 0 else -math.inf
        if self.kind == "lw":
            return lw_log_weight(d)
        return slc_log_weight(d, self.m)

    def weight(self, d):
        return math.exp(self.log_weight(d))
