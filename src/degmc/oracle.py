"""Exact desk-scale ground truth for the chains and counting machinery.

Everything here is exhaustive or exact: state spaces are enumerated as edge
bitmasks, transition matrices and state-graph components are read off one
cached change table per move table (``_change_table``, from the toggle bit
patterns that ``_toggles`` reads off the chains' own in-place moves,
``chains.MOVES``), and counts come from an independent node-elimination
recursion, memoized on the multiset of degree bounds alone (``_profile``),
whose value is the edge-count profile: |G(d)|, |G(l,u)|, |G_m(l,u)| and
the profile (``edge_count_profile``) are one computation.
``graph_of_rank`` walks the same eliminations down the counts to the r-th
graph, which is what the exact sampler draws.  All of it is meant for
small n (enumeration is capped at n = 8, the count recursion at
``COUNT_CAP``) and is used to verify the provable properties of the
samplers.  Every count, profile and walk enters the recursion through
``box``, which checks the cap; it reads ``COUNT_CAP`` at each call, so
setting ``oracle.COUNT_CAP`` higher lifts it for every entry point.

``box`` memoizes, per (lower, upper, m), the box's memo key, its count and
the node labels of each group, so a draw loop reads all three with one
lookup.  A walk (``walk``) reads, per state, a compiled plan (``_plan``):
the running counts of the eliminations and, for each, the child, its count
and one move per partner group (its partner count kt, the radix C(c, kt)
and the child's groups that receive its kept and taken labels), so it
calls no binomial to move labels.  The kt partners of a group of L labels
are the lexicographic subset of the rank's digit below C(c, kt), unranked
(``_split_rank``) by binary search in the combinatorial number system with
O(kt log L) binomials, not one per label.  The walk collects normalized
pairs and builds its ``Graph`` without checking them again.

Up to n = 7 every graph is in the cached ``census``, grouped by degree
vector, so a space is a union of whole classes: ``enumerate_graphs``
selects the classes in its box and ``degree_class_counts`` reads the class
sizes, neither touching a mask outside its answer.  At n = 8 the census
(2^28 masks) is not kept: ``enumerate_graphs`` fixes node 0's
neighbourhood S, selects the n = 7 classes of the rest of the box and
shifts them past S's bits, so every space at every n is read from census
classes.

``build_matrix`` and ``state_graph_components`` make one blocked pass over
the states and the change table (``_matches``): each block compares its
states' masks with every change's pattern at once, in at most
``_BLOCK_CELLS`` cells, and finds each target's row by rank in a bitmap of
the space (``_ranker``).  The table runs by ascending mask difference and
includes the hold, so the matrix's entries come out row by row with
ascending columns, and its CSR is assembled without a sort.

Transition matrices are CSR at every size.  ``spectral_gap`` and
``tv_curve`` take them, or a dense array, in one form chosen by size alone
(``_spectral_form``): dense below ``SPARSE_FROM`` states, where the gap is
a full ``eigvalsh``; CSR from there on, where the gap is the smaller of the
top two Lanczos eigenvalues (ARPACK) of the sparse symmetrized matrix and
the curve steps by sparse products.  ``check_stochastic``,
``congestion_check`` and ``verify_martin_randall`` read the entries of
either form as they are, and the decomposition check slices its
restriction chains from the CSR.  So nothing densifies a matrix of
``SPARSE_FROM`` states or more, and every check works on any space the
enumeration reaches.

scipy is imported inside the functions that build or read CSR matrices
(``build_matrix``, ``_spectral_form``, ``spectral_gap``,
``state_graph_components``, ``verify_martin_randall``), so the counts, the
walk and the enumeration, which the sampling and counting commands use,
never load it.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .chains import MOVES, add_delete_move, hinge_flip_move, switch_move
from .graphs import DegreeInterval, Graph, _norm_edge

# no code here reads it: perfbench/workloads.py gives a gap and a curve only to
# spaces of at most this many states, and tests/test_perfbench.py checks it is an int
DENSE_LIMIT = 4096
ENUMERATION_CAP = 8
COUNT_CAP = 12  # largest n the count recursion takes
# states from which spectral_gap and tv_curve work on CSR; below it a dense
# eigvalsh is faster (2 cores, numpy 2.4 / scipy 1.17)
SPARSE_FROM = 256


class TooLarge(ValueError):
    """Raised when an exhaustive computation exceeds its size cap."""


class Mismatch(ValueError):
    """Raised when a state space does not match a kernel's constraints."""


class NotStochastic(ValueError):
    """Raised when a matrix fails row-stochasticity checks."""


# --- edge bitmask utilities --------------------------------------------------


@lru_cache(maxsize=None)
def pairs(n):
    """Node pairs in lexicographic order; the bit layout for graph masks."""
    return tuple(itertools.combinations(range(n), 2))


@lru_cache(maxsize=None)
def pair_bit(n):
    return {p: 1 << k for k, p in enumerate(pairs(n))}


def mask_of(g):
    bit = pair_bit(g.n)
    m = 0
    for e in g.edges:
        m |= bit[e]
    return m


def graph_of(mask, n):
    ps = pairs(n)
    return Graph(n, frozenset(p for k, p in enumerate(ps) if (int(mask) >> k) & 1))


def _popcount(arr):
    arr = np.asarray(arr)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(arr)
    # byte-wise fallback
    v = arr.astype(np.uint64)
    total = np.zeros(arr.shape, dtype=np.uint8)
    for shift in range(0, 64, 8):
        total = total + _BYTE_POP[(v >> np.uint64(shift)) & np.uint64(0xFF)]
    return total


_BYTE_POP = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


@lru_cache(maxsize=None)
def node_bit_masks(n):
    """node_bit_masks(n)[v] has a 1 on every pair-bit incident to node v."""
    bit = pair_bit(n)
    out = []
    for v in range(n):
        m = 0
        for p, b in bit.items():
            if v in p:
                m |= b
        out.append(m)
    return tuple(out)


# a degree on n <= 7 nodes fits in 3 bits
_KEY_BITS = 3


class Census(NamedTuple):
    """All 2^C(n,2) graphs on n nodes, grouped by degree vector.

    Class k holds the graphs with degree vector ``degrees[k]`` (and
    ``edges[k]`` edges); its masks are ``masks[starts[k]:starts[k + 1]]``,
    ascending.  The classes run in the lexicographic order of their degrees.
    """

    masks: np.ndarray  # int64, sorted by (degree vector, mask)
    starts: np.ndarray  # int64, one more entry than there are classes
    degrees: np.ndarray  # uint8, (classes, n)
    edges: np.ndarray  # int64, (classes,)


@lru_cache(maxsize=None)
def census(n):
    """The ``Census`` of every graph on n nodes.  Cached for n <= 7.

    One in-place sort of ``key << C(n,2) | mask`` builds it, where the key
    packs the degree vector with node 0 in its top bits.
    """
    if n > 7:
        raise TooLarge(f"census is cached only up to n=7, got n={n}")
    e = n * (n - 1) // 2
    # masks and keys below 2^21 fit in int32 until they are packed together
    masks = np.arange(1 << e, dtype=np.int32)
    key = np.zeros(1 << e, dtype=np.int32)
    tmp = np.empty(1 << e, dtype=np.int32)
    for v, nm in enumerate(node_bit_masks(n)):
        np.bitwise_and(masks, nm, out=tmp)
        key += np.left_shift(_popcount(tmp), _KEY_BITS * (n - 1 - v), out=tmp, dtype=np.int32)
    del tmp
    key = key.astype(np.int64)
    sizes = np.bincount(key)
    keys = np.flatnonzero(sizes)
    key <<= e
    key |= masks
    del masks
    key.sort()
    key &= (1 << e) - 1
    starts = np.concatenate([[0], np.cumsum(sizes[keys])])
    # column-major, so that each node's degrees are one contiguous column
    degrees = np.empty((len(keys), n), dtype=np.uint8, order="F")
    for v in range(n):
        degrees[:, v] = (keys >> (_KEY_BITS * (n - 1 - v))) & ((1 << _KEY_BITS) - 1)
    return Census(key, starts, degrees, degrees.sum(axis=1, dtype=np.int64) // 2)


@lru_cache(maxsize=None)
def degree_class_counts(n):
    """Exact |G(d)| for every degree sequence d on n nodes, as a dict."""
    c = census(n)
    return dict(zip(map(tuple, c.degrees.tolist()), np.diff(c.starts).tolist()))


# --- state spaces ------------------------------------------------------------


@dataclass(frozen=True)
class StateSpace:
    """Explicit, canonically ordered enumeration of a set of graphs."""

    n: int
    masks: np.ndarray  # sorted ascending, int64
    description: str = ""

    def __len__(self):
        return len(self.masks)

    def index_of(self, g_or_mask):
        m = g_or_mask if isinstance(g_or_mask, (int, np.integer)) else mask_of(g_or_mask)
        i = int(np.searchsorted(self.masks, m))
        if i >= len(self.masks) or int(self.masks[i]) != int(m):
            raise KeyError(f"state not in space: {m}")
        return i

    def __contains__(self, g_or_mask):
        try:
            self.index_of(g_or_mask)
            return True
        except KeyError:
            return False

    def graph(self, i):
        return graph_of(int(self.masks[i]), self.n)

    def degrees(self):
        nm = node_bit_masks(self.n)
        deg = np.empty((len(self.masks), self.n), dtype=np.uint8)
        for v in range(self.n):
            deg[:, v] = _popcount(self.masks & np.int64(nm[v]))
        return deg


def enumerate_graphs(n, d=None, interval=None, m=None):
    """State space for G(d), G(l,u) or G_m(l,u) by exhaustive enumeration.

    Exactly one of d / interval must be given, with n entries (m optionally
    restricts the edge count, with or without an interval).  Up to n = 7 the
    space is the union of the census classes whose degree vectors lie in the
    box (with sum 2m if m is given).  At n = 8 it is the union, over each
    neighbourhood S of node 0 allowed by the box, of the n = 7 spaces on
    nodes 1..7 with the box lowered by S and m by |S|.  Either way the masks
    come out ascending.
    """
    if n > ENUMERATION_CAP:
        raise TooLarge(f"enumeration capped at n={ENUMERATION_CAP}, got n={n}")
    if (d is None) == (interval is None):
        raise ValueError("give exactly one of d= or interval=")
    if d is not None:
        lo = hi = d = tuple(int(x) for x in d)
        if len(d) != n:
            raise ValueError(f"d has {len(d)} entries, expected n={n}")
        desc = f"G{d}"
    else:
        if interval.n != n:
            raise ValueError(f"interval has {interval.n} nodes, expected n={n}")
        lo, hi = interval.lower, interval.upper
        desc = f"G({interval.lower},{interval.upper})"
    if m is not None:
        desc += f", m={m}"

    if n <= 7:
        c = census(n)
        sel = np.ones(len(c.degrees), dtype=bool)
        for v in range(n):
            col = c.degrees[:, v]
            sel &= (col >= lo[v]) & (col <= hi[v])
        if m is not None:
            sel &= c.edges == m
        first = c.starts[:-1][sel]
        sizes = c.starts[1:][sel] - first
        # gather the selected slices: output position p of class j reads
        # first[j] + p - (its offset in the output)
        rows = np.repeat(first - (np.cumsum(sizes) - sizes), sizes) + np.arange(sizes.sum())
        masks = c.masks[rows]
        if len(first) > 1:
            masks.sort()
        return StateSpace(n, masks, desc)

    # n == 8: node 0's pairs are bits 0..6 and the pairs of nodes 1..7 are
    # the n = 7 layout shifted up by 7, so every graph is (g << 7) | S, with
    # g a graph on nodes 1..7 and S node 0's neighbourhood
    parts = [np.empty(0, dtype=np.int64)]
    for s in range(1 << 7):
        nbr = [s >> v & 1 for v in range(7)]
        deg0 = sum(nbr)
        if not lo[0] <= deg0 <= hi[0]:
            continue
        sub_lo = [max(a - x, 0) for a, x in zip(lo[1:], nbr)]
        sub_hi = [min(b - x, 6) for b, x in zip(hi[1:], nbr)]
        if any(a > b for a, b in zip(sub_lo, sub_hi)):
            continue
        sub = DegreeInterval(sub_lo, sub_hi)
        g = enumerate_graphs(7, interval=sub, m=None if m is None else m - deg0).masks
        parts.append((g << 7) | s)
    masks = np.concatenate(parts)
    masks.sort()
    return StateSpace(n, masks, desc)


# --- independent counting oracle ---------------------------------------------


def count_realizations(d):
    """Exact |G(d)|: ``count_interval`` on the box lower = upper = d, which
    is 0 if d is not graphical.  Independent of the enumeration path."""
    d = tuple(int(x) for x in d)
    return count_interval(d, d)


def count_interval(lower, upper, m=None):
    """Exact |G(l,u)|, or |G_m(l,u)| given m, by node elimination.

    The node with the smallest bounds (lo, hi) takes a degree k in [lo, hi]
    and k partners, whose bounds become (max(lo' - 1, 0), hi' - 1); the
    other nodes are counted the same way.  Nodes with equal bounds are
    interchangeable, so a memo state is the multiset of bounds alone, and
    the partners are a count per group of equal bounds, weighted by a
    product of binomials.  A state's value is its edge-count profile."""
    return box(lower, upper, m).total


def edge_count_profile(lower, upper):
    """[|G_m(l,u)| from the first m where it is nonzero to the last]."""
    return list(_profile(box(lower, upper, None).groups)[1])


class Box(NamedTuple):
    """A box [lower, upper] (with m edges, or any if None) as the recursion
    sees it: its memo key ``groups``, its count ``total``, and the node
    labels of each group, in label order, that a walk starts from."""

    n: int
    m: int | None
    groups: tuple
    total: int
    buckets: tuple


def box(lower, upper, m=None):
    """The memoized ``Box`` of [lower, upper]; ValueError if their lengths
    differ.  Every count, profile and walk enters the recursion here, so
    this is where it refuses boxes of more than ``COUNT_CAP`` nodes."""
    if len(lower) > COUNT_CAP:
        raise TooLarge(f"the count recursion takes n <= {COUNT_CAP}, got n={len(lower)}")
    return _box(tuple(lower), tuple(upper), m)


# a draw loop reads one entry per box it draws from; the bound keeps a sweep
# over many boxes (the verify families) from holding one entry for each
@lru_cache(maxsize=256)
def _box(lower, upper, m):
    groups = _node_groups(Counter(zip(lower, upper, strict=True)))
    labels = {}
    for v, key in enumerate(zip(lower, upper)):
        labels.setdefault(key, []).append(v)
    buckets = tuple(tuple(labels[lo, hi]) for lo, hi, _ in groups)
    return Box(len(lower), m, groups, _count(groups, m), buckets)


def _node_groups(bounds):
    """The memo key of a {(lo, hi): nodes} multiset: (lo, hi, nodes) triples,
    smallest bounds first, without the nodes held at degree 0."""
    return tuple(sorted((lo, hi, c) for (lo, hi), c in bounds.items() if hi != 0))


def _count(groups, m):
    """Graphs on the nodes of ``groups`` with m edges (any if None)."""
    first, w = _profile(groups)
    return sum(w) if m is None else (w[m - first] if first <= m < first + len(w) else 0)


@lru_cache(maxsize=None)
def _profile(groups):
    """(first, w): w[j] graphs on the nodes of ``groups`` have first + j
    edges, w nonzero at both ends.  An elimination of degree k shifts its
    child's profile by k: each edge counts at the endpoint eliminated first."""
    if not groups:
        return 0, (1,)
    out = {}
    for k, _, ways, child in _eliminations(groups):
        first, w = _profile(child)
        for j, x in enumerate(w, first + k):
            out[j] = out.get(j, 0) + ways * x
    first = min(out, default=0)
    return first, tuple(out.get(j, 0) for j in range(first, max(out, default=-1) + 1))


def _eliminations(groups):
    """Each way to eliminate one node of the first group: its degree k, the
    partners taken from each remaining group (in order, the first group
    first if it keeps nodes), the number of node sets that stands for, and
    the groups left."""
    (lo, hi, c), rest = groups[0], groups[1:]
    if c > 1:
        rest = ((lo, hi, c - 1),) + rest
    caps = tuple(c for _, _, c in rest)
    for k in range(lo, min(hi, sum(caps)) + 1):
        for pick, ways in _partner_picks(k, caps):
            bounds = {}
            for (a, b, c), kt in zip(rest, pick):
                if kt < c:
                    bounds[a, b] = bounds.get((a, b), 0) + c - kt
                if kt:
                    low = (a - 1 if a else 0, b - 1)
                    bounds[low] = bounds.get(low, 0) + kt
            yield k, pick, ways, _node_groups(bounds)


@lru_cache(maxsize=None)
def _partner_picks(k, caps):
    """Each way to pick k partners from groups of caps[t] nodes: the number
    taken from each group, and the number of node sets it stands for."""
    if not caps:
        return (((), 1),) if k == 0 else ()
    return tuple(
        ((take,) + pick, math.comb(caps[0], take) * ways)
        for take in range(min(k, caps[0]) + 1)
        for pick, ways in _partner_picks(k - take, caps[1:])
    )


def graph_of_rank(lower, upper, m, r):
    """The r-th graph of G(l,u), or of G_m(l,u) given m, in the order of the
    ``count_interval`` recursion; IndexError unless 0 <= r < the count."""
    b = box(lower, upper, m)
    if not 0 <= r < b.total:
        raise IndexError(f"rank {r} outside G({lower},{upper})" + ("" if m is None else f", m={m}"))
    return walk(b, r)


def walk(b, r):
    """The r-th graph of the ``Box`` b, for 0 <= r < b.total.

    Each group of the state keeps a bucket of node labels.  At each state r
    picks an elimination by the cumulative counts of its ``_plan``; the
    rest of r splits by divmod into the child's rank and an index below
    ``ways``, which picks by mixed radix (the first group least
    significant) one subset of each group's labels, in lexicographic rank.
    The eliminated node is the last label of the first bucket; each group's
    kept labels, then the taken labels lowered into its bounds, in group
    order, are the child's buckets.  So a uniform r gives a uniform graph."""
    groups, m = b.groups, b.m
    buckets = [list(labels) for labels in b.buckets]
    picked = []  # (node, partners) per elimination
    bisect_right = bisect.bisect_right
    while groups:
        ends, steps = _plan(groups, m)
        start, sub, groups, m, moves = steps[bisect_right(ends, r)]
        q, r = divmod(r - start, sub)
        v = buckets[0].pop()
        child = [[] for _ in groups]
        for t, kt, radix, keep_to, take_to in moves:
            nodes = buckets[t]
            if not kt:
                child[keep_to] = nodes
                continue
            if radix == 1:  # every label is taken
                take = nodes
            else:
                q, qt = divmod(q, radix)
                take, child[keep_to] = _split_rank(nodes, kt, qt, radix)
            picked.append((v, take))
            if take_to is not None:
                child[take_to] += take
        buckets = child
    return Graph._trusted(b.n, frozenset((v, x) if v < x else (x, v) for v, take in picked for x in take))


@lru_cache(maxsize=None)
def _plan(groups, m):
    """A state's non-empty eliminations as a walk reads them: the running
    total of graphs through each, and per elimination (graphs before it,
    the child's count, the child, its edges left, moves).  A move is one
    per partner group: its index t in ``groups``, the partners kt taken,
    the radix C(c, kt) and the child's groups that receive its kept and
    its taken labels (None: the taken labels drop to degree 0)."""
    c = groups[0][2]
    first = 0 if c > 1 else 1
    sizes = [c - 1] + [c for _, _, c in groups[1:]]
    ends, steps, total = [], [], 0
    for k, pick, ways, child in _eliminations(groups):
        t_m = None if m is None else m - k
        sub = _count(child, t_m)
        if not sub:
            continue
        index = {(a, b): i for i, (a, b, _) in enumerate(child)}
        moves = tuple(
            (t, kt, math.comb(sizes[t], kt), index.get((a, b)), index.get((a - 1 if a else 0, b - 1)))
            for t, (a, b, _), kt in zip(range(first, len(groups)), groups[first:], pick)
        )
        steps.append((total, sub, child, t_m, moves))
        total += ways * sub
        ends.append(total)
    return ends, steps


def _split_rank(items, k, q, size):
    """The q-th k-subset of items in lexicographic order, and the others;
    size is C(len(items), k).

    Mirroring the indices, i -> L - 1 - i, turns lexicographic order into
    reverse colexicographic order, so the mirrored indices c_k > ... > c_1
    of the q-th subset write size - 1 - q in the combinatorial number
    system, as the sum over j of C(c_j, j): by the hockey-stick identity,
    with j members left to pick, C(L - 1 - i, j) subsets have their next
    member past item i.  Each c_j is the largest c with C(c, j) at most what is left,
    found by binary search, so a split reads O(k log L) binomials, not one
    per item; k = 1 reads none."""
    if k == 1:
        return [items[q]], items[:q] + items[q + 1 :]
    L = len(items)
    rest = size - 1 - q
    take, keep, prev, top = [], [], 0, L
    for j in range(k, 0, -1):
        lo, at_lo, hi = j - 1, 0, top - 1  # C(j - 1, j) = 0 <= rest < C(top, j)
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            x = math.comb(mid, j)
            if x <= rest:
                lo, at_lo = mid, x
            else:
                hi = mid - 1
        rest -= at_lo
        i = L - 1 - lo
        keep += items[prev:i]
        take.append(items[i])
        prev, top = i + 1, lo
    keep += items[prev:]
    return take, keep


# --- transition matrices -----------------------------------------------------


def transition_row_reference(kernel, g):
    """One transition row by brute-force enumeration of every ordered tuple.

    Slow; exists as an independent cross-check of build_matrix.
    """
    n = kernel.n
    probs = kernel.move_probabilities()
    row = {}

    def add(target, p):
        row[target] = row.get(target, 0.0) + p

    hold = 1.0 - sum(probs.values())
    add(g, hold)
    if "switch" in probs:
        p = probs["switch"] / n**4
        for quad in itertools.product(range(n), repeat=4):
            add(switch_move(g, quad), p)
    if "hinge" in probs:
        p = probs["hinge"] / n**3
        for triple in itertools.product(range(n), repeat=3):
            add(hinge_flip_move(g, triple, kernel.interval), p)
    if "add_delete" in probs:
        p = probs["add_delete"] / n**2
        for pair in itertools.product(range(n), repeat=2):
            add(add_delete_move(g, pair, kernel.interval), p)
    return row


def build_matrix(kernel, space):
    """Exact single-step transition matrix of the kernel over the space.

    One blocked pass (``_matches``) over the kernel's change table
    (``_change_table``): a state whose bits under a change's toggle mask
    equal a moves to the state with b there whenever the degree cells the
    change needs are open in it (``_open_cells``), i.e. the target's degrees
    stay in kernel.interval, with probability (attempt probability) *
    (ordered tuples firing it) / n^arity.  Targets are found by rank in a
    bitmap of the space (``_ranker``).  The diagonal is 1 minus the row's
    other entries, subtracted one at a time, move by move in
    ``chains.MOVES`` order (within a move every change has the same
    weight).  CSR at every size, assembled without a sort (module docstring).
    Raises Mismatch if a state violates the kernel's constraints or a legal
    move leaves the space.
    """
    import scipy.sparse as sp

    n, masks, size = kernel.n, space.masks, len(space)
    if space.n != n:
        raise Mismatch(f"space has n={space.n}, kernel has n={n}")
    lo, hi = np.array(kernel.interval.lower), np.array(kernel.interval.upper)
    deg = space.degrees()
    ok = np.all((lo <= deg) & (deg <= hi), axis=1)
    if hasattr(kernel, "m"):
        ok &= _popcount(masks) == kernel.m
    if not ok.all():
        raise Mismatch(f"state {int(np.argmin(ok))} violates the kernel constraints")
    ch = _change_table(n, tuple(kernel.move_probabilities().items()))
    rows_of = _ranker(masks, n)
    # a state's key carries its open degree cells below its mask, so one
    # comparison tests a change's pattern and the cells it needs together
    keys = masks << 2 * n | _open_cells(deg, lo, hi)
    select, value = ch.toggle << 2 * n | ch.need, ch.before << 2 * n | ch.need
    diag = np.ones(size)
    counts = np.zeros(size, dtype=np.int64)
    cols, vals = [], []
    for src, c in _matches(keys, select, value):
        dst, member = rows_of(masks[src] + ch.delta[c])
        if not member.all():
            k = int(np.argmin(member))
            raise Mismatch(f"a legal {ch.names[ch.move[c[k]]]} move from state {src[k]} leaves the space")
        w = ch.weight[c]
        by_move = np.argsort(ch.move[c], kind="stable")
        np.subtract.at(diag, src[by_move], w[by_move])
        # a block holds every change of its states, so their diagonals are done
        hold = dst == src
        w[hold] = diag[src[hold]]
        np.add.at(counts, src, 1)
        cols.append(dst.astype(np.int32))
        vals.append(w)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return sp.csr_matrix((np.concatenate(vals), np.concatenate(cols), indptr), shape=(size, size))


def _spectral_form(P):
    """P for spectral_gap and tv_curve: dense below SPARSE_FROM states, else CSR."""
    import scipy.sparse as sp

    if P.shape[0] == 0:
        raise ValueError("the chain has no states")
    if P.shape[0] < SPARSE_FROM:
        return P.toarray() if sp.issparse(P) else np.asarray(P, dtype=float)
    return sp.csr_matrix(P, dtype=float)


def check_stochastic(P, tol=1e-12):
    """P, dense or sparse, unchanged; NotStochastic unless it is row-stochastic."""
    if P.min() < -tol:
        raise NotStochastic("negative entries")
    if np.max(np.abs(np.asarray(P.sum(axis=1)).ravel() - 1.0)) > max(tol, 1e-12) * 10:
        raise NotStochastic("rows do not sum to 1")
    return P


def spectral_gap(P, pi=None):
    """1 - second largest eigenvalue, via the reversibility symmetrization.

    S = D^{1/2} P D^{-1/2}, D = diag(pi) (uniform by default), made exactly
    symmetric.  Below SPARSE_FROM states the gap comes from the full dense
    spectrum of S.  From SPARSE_FROM states on S stays sparse and ARPACK's
    Lanczos iteration takes its top two eigenvalues to machine precision
    (tol=0) from a fixed-seed start vector, so repeated calls agree exactly;
    a disconnected chain has 1 twice and gap 0.  ArpackNoConvergence
    propagates rather than an unconverged value.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import eigsh

    P = check_stochastic(_spectral_form(P), 1e-9)
    size = P.shape[0]
    if size == 1:
        return 1.0
    root = np.sqrt(np.full(size, 1.0 / size) if pi is None else np.asarray(pi, dtype=float))
    if size < SPARSE_FROM:
        S = (root[:, None] / root[None, :]) * P
        S = 0.5 * (S + S.T)  # clean symmetric roundoff
        return float(1.0 - np.linalg.eigvalsh(S)[-2])
    S = sp.diags(root) @ P @ sp.diags(1.0 / root)
    v0 = np.random.default_rng(0).standard_normal(size)
    top = eigsh((0.5 * (S + S.T)).tocsr(), k=2, which="LA", tol=0, v0=v0, return_eigenvectors=False)
    return float(1.0 - top.min())


def tv_curve(P, x0, t_max, pi=None):
    """Total-variation distance from stationarity at t = 0..t_max from state x0.

    The distribution steps as P^T dist, in the form _spectral_form picks.
    """
    step = _spectral_form(P).T
    size = step.shape[0]
    if pi is None:
        pi = np.full(size, 1.0 / size)
    dist = np.zeros(size)
    dist[x0] = 1.0
    out = []
    for _ in range(t_max + 1):
        out.append(0.5 * float(np.abs(dist - pi).sum()))
        dist = step @ dist
    return out


def mixing_time_bound(pi_x, lambda1, eps):
    """Spectral upper bound on the eps-mixing time from a state of mass pi_x."""
    return 0.5 / (1.0 - lambda1) * (np.log(1.0 / pi_x) + 2.0 * np.log(0.5 / eps))


def congestion_check(P, pi=None):
    """Canonical-path congestion bound for a birth-death chain, dense or sparse.

    Routes pi(i)pi(j) along the monotone path i -> i+1 -> ... -> j and
    checks gap >= 1 / (sigma * ell).
    """
    rows, cols = check_stochastic(P, tol=1e-9).nonzero()
    if (np.abs(rows - cols) > 1).any():
        raise ValueError("congestion_check expects a birth-death chain")
    size = P.shape[0]
    if size == 1:
        return {"sigma": 0.0, "ell": 0, "bound": np.inf, "gap": 1.0, "holds": True}
    up, down = P.diagonal(1), P.diagonal(-1)
    if pi is None:
        if (np.minimum(up, down) <= 0).any():
            raise ValueError("flow crosses a zero-probability transition")
        # detailed balance: pi[i + 1] / pi[i] = P[i, i + 1] / P[i + 1, i]
        pi = np.cumprod(np.concatenate([[1.0], up / down]))
        pi /= pi.sum()
    pi = np.asarray(pi, dtype=float)
    # the cut between z and z + 1 carries pi(<= z) pi(> z), in both directions
    flow = np.cumsum(pi)[:-1] * np.cumsum(pi[::-1])[::-1][1:]
    q = np.minimum(pi[:-1] * up, pi[1:] * down)
    if (q <= 0).any():
        raise ValueError("flow crosses a zero-probability transition")
    sigma = float((flow / q).max())
    ell = size - 1
    gap = spectral_gap(P, pi)
    bound = sigma * ell
    return {"sigma": sigma, "ell": ell, "bound": bound, "gap": gap, "holds": gap >= 1.0 / bound - 1e-12}


# --- the change table ---------------------------------------------------------


@lru_cache(maxsize=None)
def _toggles(n, move):
    """((toggle mask, ((a, b, tuples), ...)), ...) of one move on n nodes.

    A state whose bits under the mask equal a moves to the state with b
    there, degree bounds aside; tuples ordered node tuples fire the change.
    Read off ``MOVES[move]``: the move runs on the tuple (0, ..., arity - 1)
    over the neighbour sets of every edge set on those nodes, under bounds
    that never bind, and each change is mapped through every injective tuple
    on n nodes.  A tuple that repeats a label never fires
    (``transition_row_reference`` checks).
    """
    fn, arity = MOVES[move]
    local = list(itertools.combinations(range(arity), 2))
    labels = (*range(arity), None, None, None)[:4]  # a move reads only its first arity
    changes = {}
    for bits in range(1 << len(local)):
        before = {p for k, p in enumerate(local) if bits >> k & 1}
        nb = Graph(arity, frozenset(before)).adjacency()
        fn(nb, [len(row) for row in nb], (0,) * arity, (arity - 1,) * arity, *labels)
        after = Graph.from_adjacency(nb).edges
        if after != before:
            changes[frozenset(before - after), frozenset(after - before)] = None
    bit, groups = pair_bit(n), {}
    for tup in itertools.permutations(range(n), arity):
        for change in changes:
            a, b = (sum(bit[_norm_edge(tup[i], tup[j])] for i, j in side) for side in change)
            groups.setdefault(a | b, Counter())[a, b] += 1
    return tuple((t, tuple((a, b, c) for (a, b), c in group.items())) for t, group in groups.items())


class Changes(NamedTuple):
    """The changes of a move table on n nodes, one row each, by ascending
    ``delta``.

    A state whose bits under ``toggle`` equal ``before`` moves to its mask
    plus ``delta`` (those bits flipped) if the degree cells in ``need`` are
    open in it (``_open_cells``).  The hold, with toggle 0 and delta 0, keeps
    every state.  Every other change's reverse, with the same toggle mask,
    is in the table too.  A state's targets ascend with the deltas of the
    changes it takes, since each target is its mask plus the delta.
    """

    toggle: np.ndarray  # int64
    before: np.ndarray  # int64, the bits under toggle in the source
    delta: np.ndarray  # int64, target mask - source mask (b - a), ascending
    need: np.ndarray  # int64, bit v if node v loses a degree, bit n + v if it gains one
    weight: np.ndarray  # attempt probability * ordered tuples / n^arity; 0 for the hold
    move: np.ndarray  # uint8, index into names
    names: tuple  # "hold", then the moves in MOVES order


@lru_cache(maxsize=None)
def _change_table(n, probs):
    """The ``Changes`` of the move table ((move, attempt probability), ...)
    on n nodes, read from ``_toggles``; ValueError for a name not in MOVES."""
    probs = dict(probs)
    unknown = probs.keys() - MOVES.keys()
    if unknown:
        raise ValueError(f"unknown moves {sorted(unknown)}; the moves are {list(MOVES)}")
    nm = node_bit_masks(n)
    names = ("hold",) + tuple(move for move in MOVES if move in probs)
    rows = [(0, 0, 0, 0, 0.0, 0)]
    for k, move in enumerate(names[1:], 1):
        arity = MOVES[move][1]
        for t, changes in _toggles(n, move):
            for a, b, tuples in changes:
                need = 0
                for v, x in enumerate(nm):
                    dv = (b & x).bit_count() - (a & x).bit_count()
                    if abs(dv) > 1:
                        raise ValueError(f"a {move} change moves a degree by {dv}")
                    need |= (dv < 0) << v | (dv > 0) << n + v
                rows.append((t, a, b - a, need, probs[move] * tuples / n**arity, k))
    rows.sort(key=lambda row: row[2])
    t, a, delta, need, w, move = map(np.array, zip(*rows))
    table = Changes(t, a, delta, need, w, move.astype(np.uint8), names)
    for col in table[:-1]:
        col.flags.writeable = False  # the cache hands the same arrays to every caller
    return table


def _open_cells(deg, lo, hi):
    """Per state, as int64 bits: bit v if node v can lose a degree, bit
    n + v if it can gain one."""
    open_ = np.concatenate([deg > lo, deg < hi], axis=1).astype(np.int64)
    return open_ @ (np.int64(1) << np.arange(open_.shape[1], dtype=np.int64))


# temporaries of one block of _matches hold at most this many (state, change) cells
_BLOCK_CELLS = 1 << 16


def _matches(keys, select, value):
    """(states, changes) where key & select == value, in blocks of states
    that keep the temporaries under _BLOCK_CELLS, state-major and then in
    table order within a block.  An empty space is one empty block."""
    width = max(len(select), 1)
    step = max(1, _BLOCK_CELLS // width)
    for s0 in range(0, len(keys) or 1, step):
        hit = np.flatnonzero((keys[s0 : s0 + step, None] & select) == value)
        src, c = np.divmod(hit, width)
        yield src + s0, c


def _ranker(masks, n):
    """A function from masks on n nodes to (their rows in the sorted masks,
    whether they are members): a bitmap of the members over every mask,
    with the count of members before each 64-bit word, so a row is a gather
    and a popcount.  TooLarge above ENUMERATION_CAP nodes (32 MB of bitmap
    at n = 8)."""
    if n > ENUMERATION_CAP:
        raise TooLarge(f"mask bitmaps capped at n={ENUMERATION_CAP}, got n={n}")
    words = np.zeros(((1 << n * (n - 1) // 2) >> 6) + 1, dtype=np.uint64)
    np.bitwise_or.at(words, masks >> 6, np.uint64(1) << (masks & 63).astype(np.uint64))
    before = np.zeros(len(words), dtype=np.int64)
    np.cumsum(_popcount(words[:-1]), out=before[1:])

    def rows(targets):
        at, bit = targets >> 6, (targets & 63).astype(np.uint64)
        word = words[at]
        below = _popcount(word & ((np.uint64(1) << bit) - np.uint64(1)))
        return before[at] + below, (word >> bit & np.uint64(1)).astype(bool)

    return rows


# --- state-graph connectivity ------------------------------------------------


def state_graph_components(space, moves=("switch", "hinge", "add_delete")):
    """Connected components of the chain state graph restricted to the space.

    A move is legal iff its structural edge conditions hold and the result
    is again in the space, so membership of both endpoints is the full
    legality test.  One blocked pass over the changes with delta > 0 of the
    moves' change table (``_change_table``): each one's reverse is in the
    table too, and the adjacency is undirected.  ValueError for a move name
    not in ``chains.MOVES``.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    # attempt probabilities only weight the matrix; any will do here
    ch = _change_table(space.n, tuple((move, 1.0) for move in moves))
    masks = space.masks
    size = len(masks)
    if size == 0:
        return 0, np.array([], dtype=int)
    rows_of = _ranker(masks, space.n)
    up = ch.delta > 0
    toggle, before, delta = ch.toggle[up], ch.before[up], ch.delta[up]
    counts = np.zeros(size, dtype=np.int64)
    cols = []
    for src, c in _matches(masks, toggle, before):
        dst, member = rows_of(masks[src] + delta[c])
        np.add.at(counts, src[member], 1)
        cols.append(dst[member].astype(np.int32))
    cols = np.concatenate(cols)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    adj = sp.csr_matrix((np.ones(len(cols), dtype=np.int8), cols, indptr), shape=(size, size))
    return connected_components(adj, directed=False)


# --- alternating paths ------------------------------------------------------


@dataclass(frozen=True)
class AlternatingPath:
    """Edge-disjoint path alternating edge / non-edge, starting with an edge."""

    nodes: tuple  # x_0, ..., x_k; step i uses pair {x_i, x_{i+1}}

    @property
    def length(self):
        return len(self.nodes) - 1

    def steps(self):
        return [
            (tuple(sorted((self.nodes[i], self.nodes[i + 1]))), i % 2 == 0)
            for i in range(self.length)
        ]

    def is_valid(self, g):
        seen = set()
        for (pair, want_edge) in self.steps():
            if pair[0] == pair[1] or pair in seen:
                return False
            seen.add(pair)
            if g.has_edge(*pair) != want_edge:
                return False
        # must start with an edge and end with a non-edge (even length)
        return self.length >= 2 and self.length % 2 == 0

    def flip(self, g):
        add = [p for p, is_edge in self.steps() if not is_edge]
        remove = [p for p, is_edge in self.steps() if is_edge]
        return g.with_edges(add=add, remove=remove)


def _alt_steps(adj, n, x, par):
    """The nodes one step from x, ascending: its neighbours at parity 0 (the
    step must traverse an edge), its non-neighbours at parity 1."""
    if par == 0:
        return sorted(adj[x])
    return [y for y in range(n) if y != x and y not in adj[x]]


def find_alternating_path(g, u, v, k_max):
    """An alternating (u,v)-path of length <= k_max, or None.

    Iterative deepening from a breadth-first lower bound that ignores
    edge-disjointness; the depth-first search enforces it exactly.
    """
    if u == v:
        raise ValueError("u and v must differ")
    adj = g.adjacency()
    n = g.n
    # the path ends arriving at v via a non-edge, i.e. in state (v, 0)
    seen = {(u, 0)}
    frontier = {(u, 0)}
    least = 0
    while (v, 0) not in seen:
        if not frontier or least == k_max:
            return None
        least += 1
        frontier = {(y, 1 - par) for x, par in frontier for y in _alt_steps(adj, n, x, par)} - seen
        seen |= frontier
    path = [u]
    used = set()

    def extend(limit):
        x, par = path[-1], (len(path) - 1) % 2
        if x == v and par == 0:  # v != u, so the path has left u
            return True
        if len(path) > limit:
            return False
        for y in _alt_steps(adj, n, x, par):
            pair = (x, y) if x < y else (y, x)
            if pair in used:
                continue
            used.add(pair)
            path.append(y)
            if extend(limit):
                return True
            path.pop()
            used.discard(pair)
        return False

    for limit in range(least, k_max + 1, 2):
        if extend(limit):
            return AlternatingPath(tuple(path))
    return None


def strongly_stable_condition(d):
    """Sufficient inequality for strong stability with k = 10."""
    d = tuple(int(x) for x in d)
    n = len(d)
    dmin, dmax = min(d), max(d)
    return (dmax - dmin + 1) ** 2 <= 4 * dmin * (n - dmax - 1)


# --- canonical symmetric-difference decomposition ----------------------------


def canonical_decomposition(g, g2):
    """Split E(g) xor E(g2) into alternating cycles and paths.

    Around each node (in increasing label order), the k-th lowest edge of g
    only is paired with the k-th lowest edge of g2 only, edges in
    lexicographic order.  The pairings link the symmetric-difference edges
    into alternating components; odd paths are classified by which graph
    contributes the extra edge.

    Returns a dict with keys "cycles", "even_paths", "g_paths", "g2_paths",
    each a list of edge lists.
    """
    if g.n != g2.n:
        raise ValueError("graphs must share the node set")
    red = sorted(g.edges - g2.edges)  # in g only
    blue = sorted(g2.edges - g.edges)  # in g2 only
    links = {e: [] for e in red + blue}
    for v in range(g.n):
        for er, eb in zip([e for e in red if v in e], [e for e in blue if v in e]):
            links[er].append(eb)
            links[eb].append(er)
    seen = set()
    out = {"cycles": [], "even_paths": [], "g_paths": [], "g2_paths": []}
    for start in links:
        if start in seen:
            continue
        # walk away from start through each of its links in turn; on a
        # cycle the first walk comes back round and the second stops at once
        comp = [start]
        for side, cur in enumerate(links[start]):
            trail = []
            prev = start
            while cur is not None and cur not in comp:
                trail.append(cur)
                prev, cur = cur, next((e for e in links[cur] if e != prev), None)
            comp = comp + trail if side == 0 else trail[::-1] + comp
        seen.update(comp)
        surplus = sum(1 if e in g.edges else -1 for e in comp)
        closed = all(len(links[e]) == 2 for e in comp)
        out["cycles" if closed else {0: "even_paths", 1: "g_paths", -1: "g2_paths"}[surplus]].append(comp)
    return out


# --- verification of the decomposition machinery -----------------------------


def verify_log_concave(w):
    """Check w[m-1] * w[m+1] <= w[m]^2 for all interior m."""
    w = list(w)
    if any(x < 0 for x in w):
        raise ValueError("weights must be non-negative")
    for m in range(1, len(w) - 1):
        if w[m - 1] * w[m + 1] > w[m] * w[m]:
            return False, m
    return True, None


def verify_martin_randall(P, partition, pi=None):
    """Exact check of the decomposition gap inequality, on P dense or sparse.

    gap(P) >= beta * gamma * gap(P_MH) * min_i gap(P_restricted_i)

    with beta the smallest positive off-diagonal transition probability,
    gamma the worst boundary-mass ratio between adjacent blocks, and P_MH
    the Metropolis-Hastings projection chain (proposal 1/(2*Delta), Delta
    the maximum out-degree of the projection state graph).  pi is positive
    (uniform by default).  All of it is read off one pass over P's positive
    off-diagonal entries: restriction i keeps the entries inside block i
    and holds the rest of each row.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    C = sp.coo_matrix(check_stochastic(P, tol=1e-9))
    size, q = C.shape[0], len(partition)
    pi = np.full(size, 1.0 / size) if pi is None else np.asarray(pi, dtype=float)
    # the states renumbered in partition order: block i is starts[i]:starts[i + 1]
    order = np.concatenate([np.asarray(idxs, dtype=np.int64) for idxs in partition])
    starts = np.concatenate(([0], np.cumsum([len(idxs) for idxs in partition])))
    block = np.repeat(np.arange(q), np.diff(starts))
    pos = np.empty(size, dtype=np.int64)
    pos[order] = np.arange(size)
    mass = pi[order]
    block_pi = np.bincount(block, weights=mass, minlength=q)

    keep = (C.row != C.col) & (C.data > 0)
    src, dst, w = pos[C.row[keep]], pos[C.col[keep]], C.data[keep]
    beta = float(w.min()) if len(w) else 1.0

    # boundary[i, j]: the mass of the states of block j that block i reaches
    inside = block[src] == block[dst]
    i, y = np.divmod(np.unique(block[src[~inside]] * size + dst[~inside]), size)
    boundary = np.bincount(i * q + block[y], weights=mass[y], minlength=q * q).reshape(q, q)
    adjacent = boundary > 0
    gamma = float((boundary / block_pi)[adjacent].min(initial=1.0))

    # restriction i keeps the entries inside block i and holds the rest of
    # each row: it is the diagonal block R[starts[i]:starts[i + 1]]
    hold = 1.0 - np.bincount(src[inside], weights=w[inside], minlength=size)
    rows, cols = (np.concatenate([x[inside], np.arange(size)]) for x in (src, dst))
    R = sp.csr_matrix((np.concatenate([w[inside], hold]), (rows, cols)), shape=(size, size))
    # a block is disconnected when its states fall in more than one component
    ncomp, labels = connected_components(R, directed=False)
    comp_block = np.empty(ncomp, dtype=np.int64)
    comp_block[labels] = block
    disconnected = np.flatnonzero(np.bincount(comp_block, minlength=q) > 1).tolist()
    restriction_gaps = [
        spectral_gap(R[a:b, a:b], mass[a:b] / mass[a:b].sum()) if b - a > 1 else 1.0
        for a, b in zip(starts[:-1], starts[1:])
    ]

    # Metropolis-Hastings projection chain
    if q == 1:
        gap_mh = 1.0
    else:
        delta = max(int(adjacent.sum(axis=1).max()), 1)
        P_mh = np.where(adjacent, np.minimum(1.0, block_pi / block_pi[:, None]), 0.0) / (2.0 * delta)
        np.fill_diagonal(P_mh, 1.0 - P_mh.sum(axis=1))
        gap_mh = spectral_gap(P_mh, block_pi / block_pi.sum())

    gap_p = spectral_gap(P, pi)
    rhs = beta * gamma * gap_mh * min(restriction_gaps)
    return {
        "beta": beta,
        "gamma": gamma,
        "gap": gap_p,
        "gap_projection": gap_mh,
        "min_restriction_gap": float(min(restriction_gaps)),
        "rhs": float(rhs),
        "holds": bool(gap_p >= rhs - 1e-12),
        "disconnected_blocks": disconnected,
        "num_blocks": q,
    }
