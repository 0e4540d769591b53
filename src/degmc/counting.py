"""Exact counts, exactly uniform draws and the counting ladder for degree
intervals.

Every exact number comes from the node-elimination recursion through one
entry point, ``exact_interval_count``, which reads the count in the
recursion's per-box memo (``oracle.box``); the recursion refuses boxes of
more than ``oracle.COUNT_CAP`` nodes.  ``estimate_count`` and
``estimate_count_m`` report that count (method "exact", kept as an
integer), after an infeasibility test that runs before any recursion and
stops at the first feasible edge count, so an infeasible box is
"infeasible" at any n.  Sampling unranks a uniform integer below |G(l,u)|
through the same recursion: one memo lookup gives the count and the start
of the walk (``oracle.walk``), which follows each state's compiled plan and
unranks each group's partners with O(k log L) binomials.
``sample_realization`` does so on the box l = u = d, since G(d) is the
interval class [d, d].  The samplers draw from a numpy generator that the
caller passes (``chains.make_rng``).

The ladder of Jerrum, Valiant and Vazirani is the approximate counter's
sampling law, off the count path: ``build_ladder`` tightens the lower
bounds, so that rung k's class is G_m(a^k, u) and the last one is the
single-sequence class G(a^p), and the count telescopes over the ratios
|C_{k+1}| / |C_k|.  ``estimate_ratio`` estimates one from N exactly uniform
draws out of C_k, whose hit count it draws by its exact law,
Binomial(N, ratio); ``ratio_sample_size`` sets N.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .graphs import DegreeInterval, Infeasible, _feasible_sequence
from . import oracle

EXACT_SAMPLE_CAP = oracle.COUNT_CAP  # sample_realization's cap, the count recursion's


class ZeroHits(RuntimeError):
    """Raised when ratio estimation sees no member of the subclass."""


# --- exact desk-scale counts -------------------------------------------------


def _exact_interval_count_cached(lower, upper, m):
    return oracle.box(lower, upper, m).total


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
    # a <= target and sum(target) = 2m, so while sum(a) < 2m some a_i < target_i
    while sum(a) < 2 * m:
        liftable = [i for i in range(iv.n) if a[i] < target[i]]
        residue = 2 * m - sum(a)
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


def estimate_ratio(ratio, n_samples, rng, max_retries=3):
    """Fraction of n_samples uniform draws from a class that land in a
    subclass holding the share ``ratio`` of it, and the draws used.

    The hit count is drawn by its exact law, Binomial(n_samples, ratio).
    Doubles the sample size on an all-miss outcome, raising ZeroHits after
    max_retries."""
    n = n_samples
    for _ in range(max_retries + 1):
        hits = int(rng.binomial(n, ratio))
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
    count: int | None = None  # the exact count, for method "exact"

    @property
    def value(self):
        if self.count is not None:
            return self.count
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


def _exact_estimate(feasible, iv, m, eps, delta):
    if not feasible:
        return CountEstimate(-math.inf, eps, delta, method="infeasible")
    count = exact_interval_count(iv, m)
    return CountEstimate(math.log(count), eps, delta, method="exact", count=count)


def estimate_count_m(iv, m, eps, delta, rng):
    """|G_m(l,u)|, exact, by the count recursion; method "infeasible" (no
    graphical sequence of the box has m edges) before any recursion.  eps
    and delta are echoed, and rng draws nothing."""
    return _exact_estimate(_feasible_sequence(iv, m) is not None, iv, m, eps, delta)


def estimate_count(iv, eps, delta, seed=None):
    """|G(l,u)|, exact, by the count recursion; method "infeasible" (no
    feasible edge count) before any recursion, which tests the edge counts
    in turn and stops at the first feasible one.  eps and delta are echoed,
    and seed draws nothing."""
    ms = range((sum(iv.lower) + 1) // 2, sum(iv.upper) // 2 + 1)
    feasible = any(_feasible_sequence(iv, m) is not None for m in ms)
    return _exact_estimate(feasible, iv, None, eps, delta)


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


def _uniform_graph(lower, upper, rng):
    """An exactly uniform draw from G(l,u): a uniform rank below the exact
    count, unranked through the same recursion; both read the box's memo."""
    box = oracle.box(lower, upper)
    if box.total == 0:
        raise Infeasible(f"no graph has degrees between {lower} and {upper}")
    return oracle.walk(box, _below(box.total, rng))


def sample_realization(d, rng):
    """An exactly uniform draw from G(d), the box l = u = d; raises TooLarge
    above ``EXACT_SAMPLE_CAP`` nodes."""
    d = tuple(int(x) for x in d)
    return _uniform_graph(d, d, rng)


def sample_interval(iv, rng):
    """An exactly uniform draw from G(l,u) with the generator rng; raises
    TooLarge above ``oracle.COUNT_CAP`` nodes."""
    return _uniform_graph(iv.lower, iv.upper, rng)
