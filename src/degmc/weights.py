"""Weight models for degree sequences.

Three interchangeable log weights of a degree sequence d, each a function
of d alone, which the projected chains take (``projection.DegreeSpace``):

* ``exact_log_weight`` -- the log of the exact number of labeled simple
  graphs realizing d, via the independent counting recursion (small n
  only).
* ``lw_log_weight`` -- the binomial-model asymptotic estimate of that
  count, with the variance correction exp(-s(d)^2).
* ``slc_log_weight`` -- the same estimate without the correction term, with
  the edge density of d's own edge count m = sum(d) / 2; within a fixed-m
  slice this variant is strongly log-concave, which the projected samplers
  exploit.

All computation is in log space.  ``gammaln`` is imported from
``scipy.special`` at its one use, so only ``lw`` and ``slc`` weights load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle


class DegenerateDensity(ValueError):
    """Raised when the edge density mu is 0 or 1 (empty/complete graph)."""


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


def slc_log_weight(d):
    """Log of the strongly log-concave surrogate weight on d's slice.

    Drops the dispersion correction and pins the density to that of the
    slice's edge count m = sum(d) / 2, mu = 2m / (n(n-1)), so the weight is
    a product of per-coordinate binomials times a constant on the slice.
    """
    d = tuple(int(x) for x in d)
    n = len(d)
    mu = sum(d) / (n * (n - 1))
    if mu <= 0.0 or mu >= 1.0:
        raise DegenerateDensity(f"edge density mu={mu} is degenerate")
    return 0.5 * math.log(2.0) + 0.25 + _entropy_term(mu, n) + _log_binom_sum(d, n)


def exact_log_weight(d):
    """log |G(d)| by the count recursion; -inf where d has no realization."""
    c = oracle.count_realizations(d)
    return math.log(c) if c > 0 else -math.inf
