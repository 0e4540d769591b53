"""Local-move Markov chains on degree-constrained graph spaces.

Three kernels are provided, each a seeded single-step function:

* ``SwitchKernel`` -- lazy switch chain on the realizations of a fixed
  degree sequence (hold 1 - 1/q, switch attempt 1/q).
* ``SwitchHingeFlipKernel`` -- chain on graphs with degrees in an interval
  and a fixed edge count (hold 2/3, switch 1/6, hinge flip 1/6).
* ``DegreeIntervalKernel`` -- chain on all graphs with degrees in an
  interval (hold 1/2, then 1/6 each for switch / hinge flip /
  addition-deletion).

Each kernel lists its moves once, in its move table; ``step`` and
``run_with_rng`` both read the table.  Move attempts draw ordered node
tuples uniformly, repeats allowed; a degenerate tuple simply fails the edge
tests, which keeps the transition rows exactly enumerable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import DegreeInterval, Graph, _norm_edge


def make_rng(seed):
    """Counter-based generator; spawn_rngs() splits reproducible substreams."""
    return np.random.Generator(np.random.Philox(seed))


def spawn_rngs(seed, k):
    seqs = np.random.SeedSequence(seed).spawn(k)
    return [np.random.Generator(np.random.Philox(s)) for s in seqs]


# --- pure move functions -----------------------------------------------------


def switch_move(g, quad):
    """Apply the switch for ordered tuple (v, w, x, y), or return g unchanged.

    Requires {w,v},{x,y} in E and {y,v},{x,w} not in E; the degree sequence
    is preserved whenever the move fires.
    """
    v, w, x, y = quad
    if not (g.has_edge(w, v) and g.has_edge(x, y)):
        return g
    if y == v or x == w or g.has_edge(y, v) or g.has_edge(x, w):
        return g
    return g.with_edges(add=[(y, v), (x, w)], remove=[(w, v), (x, y)])


def hinge_flip_move(g, triple, interval=None):
    """Apply the hinge flip for ordered (v, w, x), or return g unchanged.

    Moves one endpoint of the edge {w,v} from v to x; v loses a degree, x
    gains one.  If an interval is given the result must respect it.
    """
    v, w, x = triple
    if not g.has_edge(w, v):
        return g
    if x == w or x == v or g.has_edge(w, x):
        return g
    if interval is not None:
        deg = g.degree_sequence()
        if deg[v] - 1 < interval.lower[v] or deg[x] + 1 > interval.upper[x]:
            return g
    return g.with_edges(add=[(w, x)], remove=[(w, v)])


def add_delete_move(g, pair, interval):
    """Toggle the edge {v,w} if the result stays inside the interval."""
    v, w = pair
    if v == w:
        return g
    deg = g.degree_sequence()
    if g.has_edge(v, w):
        if deg[v] - 1 < interval.lower[v] or deg[w] - 1 < interval.lower[w]:
            return g
        return g.with_edges(remove=[(v, w)])
    if deg[v] + 1 > interval.upper[v] or deg[w] + 1 > interval.upper[w]:
        return g
    return g.with_edges(add=[(v, w)])


_PURE_MOVES = {
    "switch": lambda g, quad, iv: switch_move(g, quad),
    "hinge": hinge_flip_move,
    "add_delete": add_delete_move,
}


# --- kernels -----------------------------------------------------------------


class _TableKernel:
    """A kernel driven by its move table.

    ``table`` is (hold, ((move, attempt probability, arity), ...)).  A step
    draws u = rng.random() and holds if u < hold; otherwise it attempts the
    first move whose cut point, hold plus the attempt probabilities up to
    and including its own, exceeds u, on ``arity`` node labels drawn by one
    rng.integers call.
    """

    @property
    def n(self):
        return self.interval.n

    def move_probabilities(self):
        return {move: p for move, p, _ in self.table[1]}

    def branches(self, impls):
        """(hold, [(cut, impls[move], arity), ...]); the last cut is infinite."""
        hold, moves = self.table
        cut, out = hold, []
        for move, p, arity in moves:
            cut += p
            out.append((cut, impls[move], arity))
        out[-1] = (math.inf,) + out[-1][1:]
        return hold, out

    def step(self, g, rng):
        hold, branches = self.branches(_PURE_MOVES)
        u = rng.random()
        if u < hold:
            return g
        for cut, move, arity in branches:
            if u < cut:
                return move(g, tuple(rng.integers(0, self.n, size=arity).tolist()), self.interval)


@dataclass(frozen=True)
class SwitchKernel(_TableKernel):
    """Lazy switch chain on G(d)."""

    d: tuple
    q: int = 6  # holding parameter; hold probability is 1 - 1/q

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(int(x) for x in self.d))
        if self.q < 2:
            raise ValueError("q must be >= 2")

    @property
    def n(self):
        return len(self.d)

    @property
    def interval(self):
        """G(d) is the interval class with lower = upper = d."""
        return DegreeInterval(self.d, self.d)

    @property
    def table(self):
        return 1.0 - 1.0 / self.q, (("switch", 1.0 / self.q, 4),)

    def contains(self, g):
        return g.n == self.n and g.degree_sequence() == self.d


@dataclass(frozen=True)
class SwitchHingeFlipKernel(_TableKernel):
    """Switch-hinge-flip chain on the graphs in an interval with fixed edge count."""

    interval: DegreeInterval
    m: int
    table = (2.0 / 3.0, (("switch", 1.0 / 6.0, 4), ("hinge", 1.0 / 6.0, 3)))

    def contains(self, g):
        return (
            g.n == self.n
            and g.num_edges == self.m
            and self.interval.contains_graph(g)
        )


@dataclass(frozen=True)
class DegreeIntervalKernel(_TableKernel):
    """Chain on all graphs with degrees in an interval (edge count varies)."""

    interval: DegreeInterval
    table = (0.5, (("switch", 1.0 / 6.0, 4), ("hinge", 1.0 / 6.0, 3), ("add_delete", 1.0 / 6.0, 2)))

    def contains(self, g):
        return g.n == self.n and self.interval.contains_graph(g)


def run_with_rng(kernel, g0, steps, rng):
    """Run loop on a mutable edge set; only builds a Graph at the end.

    Consumes the same draws as repeated kernel.step calls.  Raises
    ValueError if g0 is outside the kernel's state space."""
    if not kernel.contains(g0):
        raise ValueError("initial state is outside the kernel's state space")
    n, iv = kernel.n, kernel.interval
    edges = set(g0.edges)
    deg = list(g0.degree_sequence())
    hold, branches = kernel.branches(_MUTABLE_MOVES)
    for _ in range(steps):
        u = rng.random()
        if u < hold:
            continue
        for cut, move, arity in branches:
            if u < cut:
                move(edges, deg, iv, *rng.integers(0, n, size=arity).tolist())
                break
    return Graph(n, frozenset(edges))


def _try_switch(edges, deg, iv, v, w, x, y):
    if w == v or x == y:
        return
    e_wv, e_xy = _norm_edge(w, v), _norm_edge(x, y)
    if e_wv not in edges or e_xy not in edges:
        return
    if y == v or x == w:
        return
    e_yv, e_xw = _norm_edge(y, v), _norm_edge(x, w)
    if e_yv in edges or e_xw in edges:
        return
    edges.remove(e_wv)
    edges.remove(e_xy)
    edges.add(e_yv)
    edges.add(e_xw)


def _try_hinge(edges, deg, iv, v, w, x):
    if v == w or _norm_edge(w, v) not in edges:
        return
    if x == w or x == v or _norm_edge(w, x) in edges:
        return
    if deg[v] - 1 < iv.lower[v] or deg[x] + 1 > iv.upper[x]:
        return
    edges.remove(_norm_edge(w, v))
    edges.add(_norm_edge(w, x))
    deg[v] -= 1
    deg[x] += 1


def _try_toggle(edges, deg, iv, v, w):
    if v == w:
        return
    e = _norm_edge(v, w)
    if e in edges:
        if deg[v] - 1 < iv.lower[v] or deg[w] - 1 < iv.lower[w]:
            return
        edges.remove(e)
        deg[v] -= 1
        deg[w] -= 1
    else:
        if deg[v] + 1 > iv.upper[v] or deg[w] + 1 > iv.upper[w]:
            return
        edges.add(e)
        deg[v] += 1
        deg[w] += 1


_MUTABLE_MOVES = {"switch": _try_switch, "hinge": _try_hinge, "add_delete": _try_toggle}
