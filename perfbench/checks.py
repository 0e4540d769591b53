"""Correctness checks computed apart from the program.

Counts come from the benchmark's own popcount census over all edge masks,
graphs are validated from their edge lists, and matrices are tested against
the properties the chains must have.  Only the brute-force
``oracle.transition_row_reference`` is borrowed from the package: it is the
independent per-row cross-check that the matrix builder is meant to match.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np
import scipy.sparse as sp

from degmc import oracle

# A run fails when its count estimates miss the exact count more often than
# Binomial(k, delta) exceeds with this probability.
MISS_TAIL = 1e-3
# Probability that an exactly uniform sampler fails the TV check.
TV_TAIL = 1e-6


def popcount32(x):
    """Bit counts of a uint32 array (SWAR)."""
    x = x - ((x >> np.uint32(1)) & np.uint32(0x55555555))
    x = (x & np.uint32(0x33333333)) + ((x >> np.uint32(2)) & np.uint32(0x33333333))
    x = (x + (x >> np.uint32(4))) & np.uint32(0x0F0F0F0F)
    return ((x * np.uint32(0x01010101)) >> np.uint32(24)).astype(np.uint8)


def pair_bits(n):
    """Bit position of each node pair (i < j) in the benchmark's own mask layout."""
    return {p: k for k, p in enumerate(itertools.combinations(range(n), 2))}


def allowed_misses(k, delta):
    """Smallest x with P(Binomial(k, delta) > x) < MISS_TAIL."""
    tail = 1.0
    for x in range(k + 1):
        tail -= math.comb(k, x) * delta**x * (1 - delta) ** (k - x)
        if tail < MISS_TAIL:
            return x
    return k


def tv_threshold(states, draws):
    """TV distance that N exactly uniform draws over K states exceed with
    probability below TV_TAIL: E[TV] <= sqrt(K/N)/2 by Cauchy-Schwarz, and
    one draw moves TV by at most 1/N, so McDiarmid adds sqrt(ln(1/p)/(2N))."""
    return 0.5 * math.sqrt(states / draws) + math.sqrt(math.log(1.0 / TV_TAIL) / (2.0 * draws))


class Checker:
    """Collects check failures and miss counts over one run."""

    def __init__(self):
        self.failures = []
        self._census = {}
        self.estimates = 0
        self.misses = 0

    def fail(self, msg):
        self.failures.append(msg)

    def census(self, n):
        """(masks, degrees) of every graph on n nodes, by the benchmark's own popcount."""
        if n not in self._census:
            bits = pair_bits(n)
            masks = np.arange(1 << len(bits), dtype=np.uint32)
            deg = np.empty((len(masks), n), dtype=np.uint8)
            for v in range(n):
                inc = sum(1 << k for p, k in bits.items() if v in p)
                deg[:, v] = popcount32(masks & np.uint32(inc))
            self._census[n] = (masks, deg)
        return self._census[n]

    def members(self, lower, upper, m=None):
        """Masks of all graphs with lower <= degrees <= upper (and m edges)."""
        masks, deg = self.census(len(lower))
        sel = np.all((deg >= np.asarray(lower)) & (deg <= np.asarray(upper)), axis=1)
        if m is not None:
            sel &= popcount32(masks) == m
        return masks[sel]

    def mask(self, g):
        bits = pair_bits(g.n)
        return sum(1 << bits[e] for e in g.edges)

    # --- graphs ---------------------------------------------------------------

    def graph(self, what, edges, n, lower, upper):
        """A simple graph on 0..n-1 whose degrees lie in [lower, upper]."""
        deg = [0] * n
        seen = set()
        for i, j in edges:
            if not (0 <= i < j < n) or (i, j) in seen:
                self.fail(f"{what}: bad or repeated edge ({i},{j})")
                return None
            seen.add((i, j))
            deg[i] += 1
            deg[j] += 1
        if any(not (lo <= x <= hi) for lo, x, hi in zip(lower, deg, upper)):
            self.fail(f"{what}: degrees leave the interval")
        return tuple(deg)

    def sample_file(self, what, path, g, iv, degrees=None, m=None):
        """The written edge list is g, simple, inside iv, and keeps the
        chain's invariant (degree sequence or edge count)."""
        edges = []
        with open(path) as fh:
            for line in fh:
                if not line.startswith("#"):
                    i, j = line.split()
                    edges.append((int(i), int(j)))
        if set(edges) != set(g.edges):
            self.fail(f"{what}: written edge list differs from the sample")
        deg = self.graph(what, edges, g.n, iv.lower, iv.upper)
        if degrees is not None and deg != degrees:
            self.fail(f"{what}: switch chain changed the degree sequence")
        if m is not None and len(edges) != m:
            self.fail(f"{what}: edge count {len(edges)} != {m}")

    # --- counting and sampling --------------------------------------------------

    def estimate(self, value, iv, eps):
        exact = len(self.members(iv.lower, iv.upper))
        self.estimates += 1
        if abs(value / exact - 1.0) > eps:
            self.misses += 1

    def estimate_misses(self, delta):
        if self.misses > allowed_misses(self.estimates, delta):
            self.fail(f"count estimates: {self.misses} of {self.estimates} outside eps")

    def uniformity(self, graphs, iv):
        """Empirical TV distance of the draws from uniform over G(l,u)."""
        support = set(self.members(iv.lower, iv.upper).tolist())
        freq = Counter(self.mask(g) for g in graphs)
        n = len(graphs)
        tv = 0.5 * sum(abs(freq.get(s, 0) / n - 1.0 / len(support)) for s in support)
        tv += 0.5 * sum(c / n for s, c in freq.items() if s not in support)
        bound = tv_threshold(len(support), n)
        if tv > bound:
            self.fail(f"sample_interval: TV {tv:.4f} from uniform exceeds {bound:.4f}")
        return tv

    # --- exact matrices -------------------------------------------------------

    def matrix(self, what, kernel, space, P, expected_size, ncomp, gap, curve, ref_states):
        size = len(space)
        if size != expected_size:
            self.fail(f"{what}: {size} states, brute force gives {expected_size}")
            return
        A = sp.csr_matrix(P)
        if A.shape != (size, size) or (A.data < -1e-15).any():
            self.fail(f"{what}: wrong shape or negative entries")
        if np.abs(np.asarray(A.sum(axis=1)).ravel() - 1.0).max() > 1e-12:
            self.fail(f"{what}: rows do not sum to 1")
        if size and abs(A - A.T).max() > 1e-12:
            self.fail(f"{what}: not symmetric, so uniform is not stationary")
        for i in ref_states:
            ref = np.zeros(size)
            for target, p in oracle.transition_row_reference(kernel, space.graph(i)).items():
                ref[space.index_of(target)] += p
            if np.abs(A.getrow(i).toarray().ravel() - ref).max() > 1e-12:
                self.fail(f"{what}: row {i} differs from transition_row_reference")
        if ncomp != 1:
            self.fail(f"{what}: state graph has {ncomp} components")
        if curve is not None:
            # every kernel holds with probability >= 1/2, so all eigenvalues
            # are >= 0 and the second largest, 1 - gap, sets the decay
            pi = 1.0 / size
            for t, (a, b) in enumerate(zip(curve, curve[1:])):
                if b > a + 1e-12:
                    self.fail(f"{what}: TV curve rises at t={t + 1}")
                    break
            for t, d in enumerate(curve):
                if d > 0.5 * math.sqrt((1 - pi) / pi) * (1 - gap) ** t + 1e-9:
                    self.fail(f"{what}: TV {d} at t={t} exceeds the spectral bound")
                    break
