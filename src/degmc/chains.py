"""Local-move Markov chains on degree-constrained graph spaces.

Three kernels are provided, each a seeded single-step function:

* ``SwitchKernel`` -- lazy switch chain on the realizations of a fixed
  degree sequence d, the interval class [d, d] (hold 5/6, switch attempt
  1/6).
* ``SwitchHingeFlipKernel`` -- chain on graphs with degrees in an interval
  and a fixed edge count (hold 2/3, switch 1/6, hinge flip 1/6).
* ``DegreeIntervalKernel`` -- chain on all graphs with degrees in an
  interval (hold 1/2, then 1/6 each for switch / hinge flip /
  addition-deletion).

Each move is defined once, as an in-place function in ``MOVES``:
``run_with_rng`` runs it and returns the final state as a ``Graph`` built
once, by ``Graph._trusted``, from the neighbour sets (no move can make a
self-loop or a label outside 0..n-1, so nothing is checked again),
``step`` is a run of one step, and
``oracle.build_matrix`` and ``oracle.state_graph_components`` read their
toggle patterns off it.  The chain state is a list of per-node neighbour
sets ``nb``, with the degrees ``deg``; every move is called as
``fn(nb, deg, lo, hi, v, w, x, y)``, with the kernel's degree bounds and
four node labels, of which it reads its first ``arity``.  Each kernel's
move table lists its moves with their attempt probabilities.  Move attempts
draw ordered node tuples uniformly, repeats allowed; a degenerate tuple
simply fails the edge tests, which keeps the transition rows exactly
enumerable.  Every kernel holds its box as ``interval``, built once, and
one ``admits`` reads its space off the box and the edge count the kernel
fixes, if any.  The pure move functions, on ``Graph`` values, are kept only
for ``oracle.transition_row_reference``, the independent cross-check.

Stream layout (``RNG_LAYOUT`` 4): every step consumes one row of ``ROW``
doubles from ``rng.random``, whether it holds or moves.  The row is u, which
picks hold or a move, then four node draws x, of which a move reads its
first ``arity``; node label floor(x * n).  ``run_with_rng`` draws blocks of
``BLOCK`` rows, the last cut to the steps that remain, and reads them
through ``_decode``, so a run of s steps is draw for draw s calls of
``step`` and consumes exactly ``ROW * s`` doubles.  Layout 1 drew u by
``rng.random()`` and the labels by one ``rng.integers(0, n, size=arity)``
call.  Labels come from floats because numpy fills bounded 32-bit integers
from a per-call buffer, so a block call and per-step calls would drift
apart.  Layouts 3 and 4 keep layout 2's chain rows.  Layout 3 changed
``counting.sample_interval`` (one uniform rank from raw 64-bit words,
unranked through the count recursion), layout 4 ``counting.estimate_ratio``
(one ``rng.binomial`` hit count per rung, not a gather of uniform indices).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import DegreeInterval, Graph

RNG_LAYOUT = 4  # version of the stream layout below; the sample manifest records it
ROW = 5  # doubles per step: u, then four node draws
BLOCK = 4096  # rows per rng.random call in run_with_rng


def make_rng(seed):
    """Counter-based generator; spawn_rngs() splits reproducible substreams."""
    return np.random.Generator(np.random.Philox(seed))


def spawn_rngs(seed, k):
    seqs = np.random.SeedSequence(seed).spawn(k)
    return [np.random.Generator(np.random.Philox(s)) for s in seqs]


# --- pure move functions, for oracle.transition_row_reference ----------------


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


# --- kernels -----------------------------------------------------------------


class _TableKernel:
    """A kernel driven by its move table.

    ``table`` is (hold, ((move, attempt probability), ...)), each move a
    key of ``MOVES``.  A step reads one row of the stream (module
    docstring): it holds if u < hold; otherwise it attempts the first move
    whose cut point, hold plus the attempt probabilities up to and including
    its own, exceeds u, on the row's first ``arity`` node labels.
    """

    @property
    def n(self):
        return self.interval.n

    def admits(self, deg, m):
        """Whether graphs with degrees deg and m edges are states: deg lies
        in the kernel's interval, and m is its edge count if it fixes one."""
        return self.interval.contains(deg) and getattr(self, "m", m) == m

    def contains(self, g):
        """Whether g is a state."""
        return self.admits(g.degree_sequence(), g.num_edges)

    def move_probabilities(self):
        return dict(self.table[1])

    def branches(self):
        """(hold, cuts, [in-place function of MOVES[move], ...]).

        ``cuts`` holds every cut point but the last, which is taken as
        infinite, so that ``_decode`` maps each u >= hold to a move."""
        hold, moves = self.table
        cut, cuts = hold, []
        for _, p in moves[:-1]:
            cut += p
            cuts.append(cut)
        return hold, np.array(cuts), [MOVES[move][0] for move, _ in moves]

    def step(self, g, rng):
        """One step from g; ValueError if g is outside the kernel's space."""
        return run_with_rng(self, g, 1, rng)


def _decode(rows, hold, cuts, n):
    """The moves of a block of stream rows, in order: (move numbers, label columns).

    Held rows (u < hold) are dropped.  A move number indexes the kernel's
    branches.  The labels come as four lists, one per node draw, of
    floor(x * n), which is at most n - 1 for every double x < 1; columns
    rather than one list per row, so that a block allocates five lists and
    not thousands for the garbage collector to scan."""
    live = np.flatnonzero(rows[:, 0] >= hold)
    moves = np.searchsorted(cuts, rows[live, 0], side="right")
    labels = (rows[live, 1:] * n).astype(np.intp)
    return moves.tolist(), labels.T.tolist()


@dataclass(frozen=True)
class SwitchKernel(_TableKernel):
    """Lazy switch chain on G(d), the interval class with lower = upper = d."""

    d: tuple
    interval: DegreeInterval = field(init=False, repr=False)
    table = (1.0 - 1.0 / 6.0, (("switch", 1.0 / 6.0),))

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(int(x) for x in self.d))
        object.__setattr__(self, "interval", DegreeInterval(self.d, self.d))


@dataclass(frozen=True)
class SwitchHingeFlipKernel(_TableKernel):
    """Switch-hinge-flip chain on the graphs in an interval with fixed edge count."""

    interval: DegreeInterval
    m: int
    table = (2.0 / 3.0, (("switch", 1.0 / 6.0), ("hinge", 1.0 / 6.0)))


@dataclass(frozen=True)
class DegreeIntervalKernel(_TableKernel):
    """Chain on all graphs with degrees in an interval (edge count varies)."""

    interval: DegreeInterval
    table = (0.5, (("switch", 1.0 / 6.0), ("hinge", 1.0 / 6.0), ("add_delete", 1.0 / 6.0)))


def run_with_rng(kernel, g0, steps, rng):
    """Run ``steps`` steps on per-node neighbour sets; only builds a Graph at the end.

    Draws the stream in blocks of ``BLOCK`` rows, the last cut to the steps
    that remain, and applies each non-held row's move in place, so a run of
    s steps returns what s one-step runs return and leaves ``rng`` in the
    same state.  Returns the final state, built from the neighbour sets by
    ``Graph._trusted``.  Raises ValueError if g0 is outside the kernel's
    state space."""
    n, nb = kernel.n, g0.adjacency()
    deg = [len(row) for row in nb]
    if not kernel.admits(deg, len(g0.edges)):
        raise ValueError("initial state is outside the kernel's state space")
    iv = kernel.interval
    lo, hi = iv.lower, iv.upper
    hold, cuts, fns = kernel.branches()
    for start in range(0, steps, BLOCK):
        moves, labels = _decode(rng.random((min(BLOCK, steps - start), ROW)), hold, cuts, n)
        for k, v, w, x, y in zip(moves, *labels):
            fns[k](nb, deg, lo, hi, v, w, x, y)
    # the moves never put a label outside 0..n-1 or a node in its own set,
    # so the edge set is built without the checks of Graph.from_adjacency
    return Graph._trusted(n, frozenset([(i, j) for i, row in enumerate(nb) for j in row if i < j]))


# The in-place moves.  Each takes the neighbour sets nb, the degrees deg, the
# bounds lo and hi, and four node labels, of which it reads its first arity.
# No node is its own neighbour, so a membership test also rejects a repeated
# label where the pair must be an edge; where it must not be, the label
# test stays.


def _try_switch(nb, deg, lo, hi, v, w, x, y):
    if w not in nb[v] or y not in nb[x] or y == v or x == w:
        return
    if v in nb[y] or w in nb[x]:
        return
    nb[v].remove(w)
    nb[w].remove(v)
    nb[x].remove(y)
    nb[y].remove(x)
    nb[v].add(y)
    nb[y].add(v)
    nb[x].add(w)
    nb[w].add(x)


def _try_hinge(nb, deg, lo, hi, v, w, x, y):
    if w not in nb[v] or x in nb[w] or x == w:
        return
    if deg[v] <= lo[v] or deg[x] >= hi[x]:
        return
    nb[v].remove(w)
    nb[w].remove(v)
    nb[w].add(x)
    nb[x].add(w)
    deg[v] -= 1
    deg[x] += 1


def _try_toggle(nb, deg, lo, hi, v, w, x, y):
    if w in nb[v]:
        if deg[v] <= lo[v] or deg[w] <= lo[w]:
            return
        nb[v].remove(w)
        nb[w].remove(v)
        deg[v] -= 1
        deg[w] -= 1
    elif v != w and deg[v] < hi[v] and deg[w] < hi[w]:
        nb[v].add(w)
        nb[w].add(v)
        deg[v] += 1
        deg[w] += 1


# Every move: (in-place function of (nb, deg, lo, hi, v, w, x, y), arity).
# Whether a move fires depends only on the pairs it toggles and on the degree
# bounds, which oracle._toggles relies on.  build_matrix takes the moves in
# this order, by arity.
MOVES = {"add_delete": (_try_toggle, 2), "hinge": (_try_hinge, 3), "switch": (_try_switch, 4)}
