"""Projected chains on degree sequences and on edge counts.

The graph chains project onto two coarser state spaces:

* degree sequences with a fixed sum (one slice per edge count m), walked
  either by a Metropolis-Hastings single-unit exchange or by a heat-bath
  load-exchange step, both stationary for pi(d) proportional to a chosen
  weight, a function of d alone (``weights.exact_log_weight``,
  ``lw_log_weight`` or ``slc_log_weight``); and
* edge counts themselves, walked by a lazy birth-death chain whose
  mixing is controlled by log-concavity of the per-count weights.

Each move is defined once -- the unit exchange, the heat-bath row and the
birth-death acceptance: the steps evaluate it on demand, at any n, and the
explicit transition matrices sum it over all choices at desk scale, so
their stationarity and spectral gaps can be checked exactly.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import DegreeInterval
from .weights import exact_log_weight


class MixedSums(ValueError):
    """Raised when points meant to share a coordinate sum do not."""


class NotPositive(ValueError):
    """Raised when a weight that must be positive is zero or negative."""


def enumerate_degree_vectors(iv, m):
    """All integer points of the interval box with coordinate sum 2m."""
    target = 2 * m
    n = iv.n
    lo, hi = iv.lower, iv.upper
    suffix_lo = [0] * (n + 1)
    suffix_hi = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_lo[i] = suffix_lo[i + 1] + lo[i]
        suffix_hi[i] = suffix_hi[i + 1] + hi[i]
    out = []

    def rec(i, prefix, total):
        if i == n:
            if total == target:
                out.append(tuple(prefix))
            return
        rem = target - total
        a = max(lo[i], rem - suffix_hi[i + 1])
        b = min(hi[i], rem - suffix_lo[i + 1])
        for v in range(a, b + 1):
            prefix.append(v)
            rec(i + 1, prefix, total + v)
            prefix.pop()

    rec(0, [], 0)
    return out


def feasible_edge_counts(iv):
    """Edge counts m for which some graphical sequence fits the interval."""
    from .graphs import _feasible_sequence

    lo_m = (sum(iv.lower) + 1) // 2
    hi_m = sum(iv.upper) // 2
    return [m for m in range(lo_m, hi_m + 1) if _feasible_sequence(iv, m) is not None]


@dataclass(frozen=True)
class DegreeSpace:
    """Degree sequences in an interval box with a fixed sum and positive weight.

    ``weight`` is a log weight of d alone, exact (|G(d)|) by default.
    Membership and weights are computed on demand by ``log_weight``; only
    ``elements``, ``index``, ``log_weights``, ``len`` and ``stationary``
    enumerate the slice, once, so the step functions run at any n.
    """

    interval: DegreeInterval
    m: int
    weight: Callable = exact_log_weight

    @property
    def n(self):
        return self.interval.n

    def log_weight(self, d):
        """log w(d); -inf off the box, off the slice sum(d) = 2m, or at zero weight."""
        d = tuple(d)
        if sum(d) != 2 * self.m or not self.interval.contains(d):
            return -math.inf
        return self.weight(d)

    def __contains__(self, d):
        return self.log_weight(d) > -math.inf

    @cached_property
    def _slice(self):
        """(members in enumeration order, their log weights, member -> position)."""
        pts = enumerate_degree_vectors(self.interval, self.m)
        members = {d: lw for d, lw in zip(pts, map(self.log_weight, pts)) if lw > -math.inf}
        return list(members), np.array(list(members.values())), {d: k for k, d in enumerate(members)}

    def elements(self):
        return self._slice[0]

    def log_weights(self):
        return self._slice[1]

    def index(self):
        return self._slice[2]

    def __len__(self):
        return len(self.elements())

    def stationary(self):
        lw = self.log_weights()
        p = np.exp(lw - lw.max())
        return p / p.sum()


def _member_log_weight(space):
    """``space.log_weight`` read from the slice's member table (-inf off
    it), so the matrices compute each weight once."""
    table = dict(zip(space.elements(), space.log_weights().tolist()))
    return lambda d: table.get(d, -math.inf)


def _shift(d, i, j):
    """d - e_i + e_j."""
    d = list(d)
    d[i] -= 1
    d[j] += 1
    return tuple(d)


# --- Metropolis-Hastings single-unit exchange chain --------------------------


def _unit_exchange(d, i, j, log_weight):
    """The exchange of one degree unit from i to j: (d - e_i + e_j, its
    acceptance probability min(1, w(d')/w(d))), or None when i == j or the
    proposal is not a member (log_weight -inf)."""
    if i == j:
        return None
    lw = log_weight(d)
    prop = _shift(d, i, j)
    lw_prop = log_weight(prop)
    if lw_prop == -math.inf:
        return None
    return prop, math.exp(min(0.0, lw_prop - lw))


def hinge_projection_step(d, space, rng):
    """One lazy MH step: hold 1/2, else move a degree unit from i to j.

    The ordered pair (i, j) is uniform over n^2; the proposal d - e_i + e_j
    is accepted with probability min(1, w(d')/w(d)).
    """
    if rng.random() < 0.5:
        return d
    i, j = rng.integers(0, space.n, size=2)
    move = _unit_exchange(d, int(i), int(j), space.log_weight)
    if move is None or rng.random() >= move[1]:
        return d
    return move[0]


def hinge_projection_matrix(space):
    """Explicit transition matrix of the lazy single-unit exchange MH chain."""
    elems, idx, n = space.elements(), space.index(), space.n
    log_weight = _member_log_weight(space)
    P = np.zeros((len(elems), len(elems)))
    for a, d in enumerate(elems):
        for i, j in itertools.product(range(n), repeat=2):
            move = _unit_exchange(d, i, j, log_weight)
            if move is not None:
                P[a, idx[move[0]]] += move[1] / (2.0 * n**2)
        P[a, a] = 1.0 - P[a].sum()
    return P


# --- heat-bath load-exchange chain -------------------------------------------


def _heat_bath_row(d, i, n, log_weight):
    """The members dominating d - e_i (d, then each member d - e_i + e_j in
    order of j) and their probabilities, proportional to weight."""
    d = tuple(d)
    cands, logs = [d], [log_weight(d)]
    for j in range(n):
        if j != i:
            prop = _shift(d, i, j)
            lw = log_weight(prop)
            if lw > -math.inf:
                cands.append(prop)
                logs.append(lw)
    lw = np.array(logs)
    p = np.exp(lw - lw.max())
    return cands, p / p.sum()


def load_exchange_step(d, space, rng):
    """One heat-bath step: pick a coordinate i uniformly, then resample the
    state among all members dominating d - e_i, proportionally to weight."""
    cands, p = _heat_bath_row(d, int(rng.integers(0, space.n)), space.n, space.log_weight)
    return cands[int(rng.choice(len(cands), p=p))]


def load_exchange_matrix(space):
    """Explicit transition matrix of the load-exchange chain."""
    elems, idx, n = space.elements(), space.index(), space.n
    log_weight = _member_log_weight(space)
    P = np.zeros((len(elems), len(elems)))
    for a, d in enumerate(elems):
        for i in range(n):
            cands, p = _heat_bath_row(d, i, n, log_weight)
            for c, pc in zip(cands, p):
                P[a, idx[c]] += pc / n
    return P


# --- edge-count birth-death chain --------------------------------------------


def _birth_death(i, j, weights):
    """Acceptance min(1, w_j / w_i) of index i -> j; None off the ends or at w_j <= 0."""
    if j < 0 or j >= len(weights) or weights[j] <= 0:
        return None
    return min(1.0, weights[j] / weights[i])


def edge_count_step(m_index, weights, rng):
    """One lazy birth-death step over edge-count indices.

    Proposes an adjacent index with probability 1/4 each and accepts with
    the weight ratio, so P(i, j) = (1/4) min(1, w_j / w_i) for |i-j| = 1.
    """
    u = rng.random()
    if u < 0.5:
        return m_index
    j = m_index + (1 if u < 0.75 else -1)
    accept = _birth_death(m_index, j, weights)
    return j if accept is not None and rng.random() < accept else m_index


def edge_count_matrix(weights):
    """Explicit matrix of the lazy birth-death chain on edge counts."""
    w = np.asarray(weights, dtype=float)
    if (w <= 0).any():
        raise NotPositive("edge-count weights must be positive")
    size = len(w)
    P = np.zeros((size, size))
    # the diagonals as strided views of the flat matrix: the acceptances of
    # _birth_death above and below it, then the hold
    flat = P.reshape(-1)
    flat[1 :: size + 1] = 0.25 * np.minimum(1.0, w[1:] / w[:-1])
    flat[size :: size + 1] = 0.25 * np.minimum(1.0, w[:-1] / w[1:])
    flat[:: size + 1] = 1.0 - P.sum(axis=1)
    return P


def logconcave_gap_bound(weights):
    """Spectral-gap lower bound for the birth-death chain on a log-concave
    weight vector: gap >= 1 / (4 |Omega|^3 R), with R the largest weight
    ratio between adjacent counts."""
    w = list(weights)
    if any(x <= 0 for x in w):
        raise NotPositive("weights must be positive")
    size = len(w)
    if size == 1:
        return 1.0
    R = max(max(w[i] / w[i + 1], w[i + 1] / w[i]) for i in range(size - 1))
    return 1.0 / (4.0 * size**3 * R)


# --- M-convexity -------------------------------------------------------------


def check_m_convex(points):
    """Exchange-property check for a finite set of equal-sum integer vectors.

    For every alpha, beta in the set and every i with alpha_i > beta_i,
    some j with alpha_j < beta_j must make both alpha - e_i + e_j and
    beta + e_i - e_j members.  Returns (True, None) or (False, witness)
    with witness = (alpha, beta, i).
    """
    pts = [tuple(int(x) for x in p) for p in points]
    if not pts:
        return True, None
    sums = {sum(p) for p in pts}
    if len(sums) > 1:
        raise MixedSums(f"points have differing sums {sorted(sums)}")
    member = set(pts)
    for alpha, beta in itertools.permutations(pts, 2):
        for i in range(len(alpha)):
            if alpha[i] <= beta[i]:
                continue
            ok = False
            for j in range(len(alpha)):
                if alpha[j] >= beta[j]:
                    continue
                if _shift(alpha, i, j) in member and _shift(beta, j, i) in member:
                    ok = True
                    break
            if not ok:
                return False, (alpha, beta, i)
    return True, None
