"""Approximate counting and exactly uniform sampling for degree intervals.

Counting telescopes over a ladder of tightening lower bounds: the target
class is written as an exactly countable single-sequence class times a
product of membership ratios, each ratio estimated by uniform sampling
from the enclosing class.  Sampling walks down the exact count (Jerrum,
Valiant and Vazirani): a uniform integer below |G(l,u)| is unranked by
``oracle.graph_of_rank`` through the same node-elimination recursion that
counts, so each draw is exactly uniform up to ``oracle.COUNT_CAP`` nodes.
``sample_realization`` does the same on the box l = u = d and runs the
switch chain above the cap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import DegreeInterval, Infeasible, realize, _feasible_sequence
from .chains import SwitchKernel, make_rng, run_with_rng
from . import oracle

EXACT_SAMPLE_CAP = oracle.COUNT_CAP  # sample_realization draws exactly up to this n


class OddResidue(ValueError):
    """Raised when a ladder cannot close the parity gap to the edge count."""


class ZeroHits(RuntimeError):
    """Raised when ratio estimation sees no member of the subclass."""


# --- exact desk-scale counts -------------------------------------------------


@lru_cache(maxsize=None)
def _exact_interval_count_cached(lower, upper, m):
    if len(lower) > oracle.COUNT_CAP:
        raise oracle.TooLarge(f"exact interval counts supported for n <= {oracle.COUNT_CAP}")
    return oracle.count_interval(lower, upper, m)


def exact_interval_count(iv, m=None):
    """Exact |G(l,u)| (or |G_m(l,u)|) by the node-elimination recursion."""
    return _exact_interval_count_cached(iv.lower, iv.upper, m)


# --- ladders -----------------------------------------------------------------


@dataclass(frozen=True)
class Ladder:
    """Tightening lower bounds l = a^0 <= a^1 <= ... <= a^p, sum(a^p) = 2m.

    The final rung pins the degree sequence: every graph in the class with
    lower bound a^p and edge count m realizes exactly a^p, so its size is
    an exactly countable single-sequence class.
    """

    interval: DegreeInterval
    m: int
    rungs: tuple  # tuple of degree-bound tuples, rungs[0] == interval.lower

    @property
    def final_sequence(self):
        return self.rungs[-1]

    @property
    def num_ratios(self):
        return len(self.rungs) - 1


def build_ladder(iv, m):
    """Ladder from the interval's lower bounds up to a graphical sequence
    with edge count m, raising the two lowest-indexed liftable coordinates
    per rung (one coordinate on the final rung if the parity gap is odd)."""
    target = _feasible_sequence(iv, m)
    if target is None:
        raise Infeasible(f"no graphical sequence in the interval with {m} edges")
    a = list(iv.lower)
    rungs = [tuple(a)]
    while sum(a) < 2 * m:
        liftable = [i for i in range(iv.n) if a[i] < target[i]]
        residue = 2 * m - sum(a)
        if not liftable:
            raise OddResidue(f"cannot close residue {residue} toward {target}")
        if residue >= 2 and len(liftable) >= 2:
            a[liftable[0]] += 1
            a[liftable[1]] += 1
        else:
            a[liftable[0]] += 1
        rungs.append(tuple(a))
    return Ladder(interval=iv, m=m, rungs=tuple(rungs))


# --- ratio estimation --------------------------------------------------------


def ratio_sample_size(num_ratios, eps, delta, q_hat):
    """Per-rung sample count for an (eps, delta) product of ratio estimates."""
    p = max(1, num_ratios)
    return int(math.ceil(p * p * q_hat * math.log(2.0 * p / delta) / (eps * eps)))


def estimate_ratio(member_mask, n_samples, rng, max_retries=3):
    """Fraction of uniform draws landing in the subclass.

    Draws uniform indices into the enclosing class and evaluates the
    membership mask at each.  Doubles the sample size on an all-miss
    outcome, raising ZeroHits after max_retries."""
    size = len(member_mask)
    n = n_samples
    for _ in range(max_retries + 1):
        idx = rng.integers(0, size, size=n)
        hits = int(np.count_nonzero(member_mask[idx]))
        if hits > 0:
            return hits / n, n
        n *= 2
    raise ZeroHits(f"no subclass members in {n // 2} draws")


# --- count estimates ---------------------------------------------------------


@dataclass(frozen=True)
class CountEstimate:
    log_value: float
    eps: float
    delta: float
    method: str
    samples_used: int = 0
    ladder_length: int = 0
    per_rung_ratios: tuple = ()

    @property
    def value(self):
        return math.exp(self.log_value) if self.log_value > -math.inf else 0.0

    def to_dict(self):
        return {
            "log_value": self.log_value,
            "value_if_small": self.value if self.log_value < 700 else None,
            "eps": self.eps,
            "delta": self.delta,
            "method": self.method,
            "samples_used": self.samples_used,
            "ladder_length": self.ladder_length,
            "per_rung_ratios": list(self.per_rung_ratios),
        }

    def to_json(self):
        return json.dumps(self.to_dict())


def _log_final_count(d):
    """log |G(d)| for the pinned final rung: exact at desk scale, the
    asymptotic estimate beyond the recursion cap."""
    if len(d) <= oracle.COUNT_CAP:
        c = oracle.count_realizations(d)
        return (math.log(c) if c > 0 else -math.inf), "exact"
    from .weights import lw_log_weight

    return lw_log_weight(d), "asymptotic"


def estimate_count_m(iv, m, eps, delta, rng=None, seed=None):
    """(eps, delta)-estimate of |G_m(l,u)| by telescoping membership ratios."""
    if rng is None:
        rng = make_rng(0 if seed is None else seed)
    try:
        ladder = build_ladder(iv, m)
    except Infeasible:
        return CountEstimate(-math.inf, eps, delta, method="infeasible")
    log_final, final_method = _log_final_count(ladder.final_sequence)
    if ladder.num_ratios == 0:
        return CountEstimate(log_final, eps, delta, method=final_method)

    # every rung's class is the rows of G_m(l,u) with degrees >= its lower
    # bounds; enumeration is in ascending mask order, so each class is in
    # the order its own enumeration would give
    deg = oracle.enumerate_graphs(iv.n, interval=iv, m=m).degrees()
    classes = [np.all(deg >= np.asarray(a), axis=1) for a in ladder.rungs]

    # worst exact inverse ratio calibrates the sample size
    sizes = [int(np.count_nonzero(c)) for c in classes]
    if sizes[-1] == 0:
        return CountEstimate(-math.inf, eps, delta, method="infeasible")
    q_hat = max(sizes[k] / sizes[k + 1] for k in range(len(sizes) - 1))
    n_per = ratio_sample_size(ladder.num_ratios, eps, delta, q_hat)

    log_est = log_final
    ratios = []
    used = 0
    for k in range(ladder.num_ratios):
        r, n_used = estimate_ratio(classes[k + 1][classes[k]], n_per, rng)
        ratios.append(r)
        used += n_used
        log_est -= math.log(r)
    return CountEstimate(
        log_value=log_est,
        eps=eps,
        delta=delta,
        method=f"ladder+{final_method}",
        samples_used=used,
        ladder_length=ladder.num_ratios,
        per_rung_ratios=tuple(ratios),
    )


def estimate_count(iv, eps, delta, seed=None):
    """(eps, delta)-estimate of |G(l,u)| as a sum over feasible edge counts.

    The failure budget is split as delta / n^2 across the per-count
    estimates, which dominates the number of feasible edge counts."""
    from .projection import feasible_edge_counts

    rng = make_rng(0 if seed is None else seed)
    counts = feasible_edge_counts(iv)
    if not counts:
        return CountEstimate(-math.inf, eps, delta, method="infeasible")
    delta_prime = delta / (iv.n**2)
    total = 0.0
    used = 0
    rungs = 0
    parts = []
    for m in counts:
        est = estimate_count_m(iv, m, eps, delta_prime, rng=rng)
        used += est.samples_used
        rungs += est.ladder_length
        parts.append(est)
        total += est.value
    return CountEstimate(
        log_value=math.log(total) if total > 0 else -math.inf,
        eps=eps,
        delta=delta,
        method="ladder-sum",
        samples_used=used,
        ladder_length=rungs,
    )


# --- sampling ----------------------------------------------------------------


def _below(total, rng):
    """An exactly uniform integer in [0, total), for a total of any size:
    the top bits of raw 64-bit words, redrawn while at or above the total."""
    bits = (total - 1).bit_length()
    words = -(-bits // 64)
    while True:
        r = int.from_bytes(rng.bit_generator.random_raw(words).tobytes(), "little") >> (64 * words - bits)
        if r < total:
            return r


def sample_realization(d, rng):
    """Uniform draw from G(d) up to ``EXACT_SAMPLE_CAP`` nodes (a uniform
    rank unranked through the count recursion), near-uniform (switch chain)
    beyond it."""
    d = tuple(int(x) for x in d)
    n = len(d)
    if n <= EXACT_SAMPLE_CAP:
        total = oracle.count_realizations(d)
        if total == 0:
            raise Infeasible(f"{d} is not graphical")
        return oracle.graph_of_rank(d, d, None, _below(total, rng))
    g0 = realize(d)
    return run_with_rng(SwitchKernel(d=d), g0, 20 * n * n * sum(d), rng)


def sample_interval(iv, rng=None, seed=None):
    """An exactly uniform draw from G(l,u): a uniform rank below the exact
    count (memoized across draws), unranked through the same recursion.
    Raises TooLarge above ``oracle.COUNT_CAP`` nodes."""
    if rng is None:
        rng = make_rng(0 if seed is None else seed)
    total = exact_interval_count(iv)
    if total == 0:
        raise Infeasible("interval contains no graph")
    return oracle.graph_of_rank(iv.lower, iv.upper, None, _below(total, rng))
