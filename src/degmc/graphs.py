"""Core graph, degree-sequence and degree-interval types.

Graphs are labeled, simple and undirected, with nodes 0..n-1.  Edges are
stored as frozensets of sorted pairs so Graph values are hashable and safe
to share; code that mutates graphs (the chain run loop) works on private
neighbour sets and only builds a Graph at the end.
"""

from __future__ import annotations

import io
import itertools
import os
import re
from dataclasses import dataclass, field


class NotGraphical(ValueError):
    """Raised when a degree sequence admits no simple-graph realization."""


class Infeasible(ValueError):
    """Raised when no graph satisfies the requested interval/edge-count constraints."""


class BoundExceeded(ValueError):
    """Raised when a derived degree upper bound exceeds n - 1."""


class ParseError(ValueError):
    """Raised on malformed input files; carries the offending line number."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


def _norm_edge(i, j):
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    """Labeled simple undirected graph on nodes 0..n-1."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        edges = frozenset(_norm_edge(i, j) for (i, j) in self.edges)
        object.__setattr__(self, "edges", edges)
        for (i, j) in edges:
            if i == j:
                raise ValueError(f"self-loop at node {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")

    @property
    def num_edges(self):
        return len(self.edges)

    def has_edge(self, i, j):
        return i != j and _norm_edge(i, j) in self.edges

    def degree_sequence(self):
        deg = [0] * self.n
        for (i, j) in self.edges:
            deg[i] += 1
            deg[j] += 1
        return tuple(deg)

    def adjacency(self):
        """Per-node neighbor sets (rebuilt on each call; cache locally if hot)."""
        adj = [set() for _ in range(self.n)]
        for (i, j) in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    @classmethod
    def from_adjacency(cls, adj):
        """The graph whose per-node neighbor sets are adj, a list of sets (see adjacency()).

        Each edge is read from its lower end's set.  The labels are checked
        with set operations and the edge set is built once, already
        normalized, and passed to ``_trusted``, so no edge is checked again.
        ValueError if a node is in its own set or a label is outside 0..n-1.
        """
        n = len(adj)
        if any(map(set.__contains__, adj, range(n))):
            raise ValueError(f"self-loop at node {next(i for i, row in enumerate(adj) if i in row)}")
        if not set().union(*adj) <= set(range(n)):
            raise ValueError(f"neighbor labels {sorted(set().union(*adj) - set(range(n)))} out of range for n={n}")
        return cls._trusted(n, frozenset((i, j) for i, row in enumerate(adj) for j in row if i < j))

    @classmethod
    def _trusted(cls, n, edges):
        """The graph on n nodes with edges, a frozenset of pairs i < j in
        0..n-1 that the caller built so; nothing is checked again."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

    def with_edges(self, add=(), remove=()):
        edges = set(self.edges)
        for e in remove:
            edges.discard(_norm_edge(*e))
        for e in add:
            edges.add(_norm_edge(*e))
        return Graph(self.n, frozenset(edges))

    @classmethod
    def from_edges(cls, n, pairs):
        return cls(n, frozenset(_norm_edge(i, j) for (i, j) in pairs))

    @classmethod
    def complete(cls, n):
        return cls(n, frozenset(itertools.combinations(range(n), 2)))

    @classmethod
    def empty(cls, n):
        return cls(n, frozenset())


@dataclass(frozen=True)
class DegreeInterval:
    """Per-node degree bounds [lower_i, upper_i]."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lower = tuple(int(x) for x in self.lower)
        upper = tuple(int(x) for x in self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if len(lower) != len(upper):
            raise ValueError("lower and upper must have the same length")
        n = len(lower)
        for i, (lo, hi) in enumerate(zip(lower, upper)):
            if lo < 0 or lo > hi:
                raise ValueError(f"invalid interval [{lo},{hi}] at node {i}")
            if hi > n - 1:
                raise BoundExceeded(f"upper bound {hi} at node {i} exceeds n-1={n - 1}")

    @property
    def n(self):
        return len(self.lower)

    def contains(self, d):
        """Whether d has one entry per node, each within its bounds."""
        return len(d) == self.n and all(lo <= x <= hi for lo, x, hi in zip(self.lower, d, self.upper))

    def contains_graph(self, g):
        return self.contains(g.degree_sequence())

    def width(self):
        return max(hi - lo for lo, hi in zip(self.lower, self.upper))

    @classmethod
    def constant(cls, d):
        d = tuple(d)
        return cls(d, d)


@dataclass(frozen=True)
class NearRegularParams:
    """Parameters of the near-regular regime: degrees confined to r +/- r**alpha."""

    r: int
    alpha: float
    rho: float
    n: int

    def __post_init__(self):
        if not (0 < self.alpha < 0.5):
            raise ValueError("alpha must lie in (0, 1/2)")
        if not (0 < self.rho < 1):
            raise ValueError("rho must lie in (0, 1)")
        if not (2 <= self.r <= (1 - self.rho) * self.n):
            raise ValueError("need 2 <= r <= (1 - rho) * n")

    def degree_range(self):
        """Integer degrees admissible under the r +/- r**alpha window."""
        import math

        half = self.r ** self.alpha
        lo = max(0, math.ceil(self.r - half))
        hi = min(self.n - 1, math.floor(self.r + half))
        return lo, hi

    def admits(self, iv):
        lo, hi = self.degree_range()
        return all(lo <= a and b <= hi for a, b in zip(iv.lower, iv.upper))

    def in_dispersion_regime(self):
        """The hypotheses of dispersion_bound: n**alpha <= rho*n/2 and
        r - r**alpha >= r/4."""
        n, r, a = self.n, self.r, self.alpha
        return n**a <= self.rho * n / 2.0 and r - r**a >= r / 4.0

    def dispersion_bound(self):
        """Upper bound 4n r**(2 alpha - 1) / (rho n - 2) on the dispersion
        ratio s(d) = chi / (2 mu (1 - mu)) of weights.sequence_stats, for
        every d in the window of degree_range.

        Valid under in_dispersion_regime.  With chi = sum (d_i - xi)^2 / (n-1)^2:
        Popoviciu's inequality gives sum (d_i - xi)^2 <= n (hi - lo)^2 / 4
        <= n r**(2 alpha); r - r**alpha >= r/4 gives mu >= r / (4 (n-1));
        r <= (1 - rho) n and r**alpha <= n**alpha <= rho n / 2 give
        1 - mu >= (rho n - 2) / (2 (n-1)).  The bound does not decay in n,
        and neither does s: half the nodes at lo and half at hi keep s
        near a constant.
        """
        n, r = self.n, self.r
        return 4.0 * n * r ** (2.0 * self.alpha - 1.0) / (self.rho * n - 2.0)

    @staticmethod
    def min_n(alpha, rho):
        """Smallest n at which the near-regular estimates of this regime kick in."""
        import math

        return math.ceil((2.0 / rho) ** (1.0 / (1.0 - 2.0 * alpha)))


def is_graphical(d):
    """Erdos-Gallai test: True iff some simple graph realizes degree sequence d."""
    d = [int(x) for x in d]
    n = len(d)
    if any(x < 0 for x in d):
        return False
    if n == 0:
        return True
    if sum(d) % 2 != 0:
        return False
    if max(d) > n - 1:
        return False
    s = sorted(d, reverse=True)
    prefix = list(itertools.accumulate(s, initial=0))
    j = n  # s[i] >= k exactly for i < j; j only moves left as k grows
    for k in range(1, n + 1):
        # from the first k with s[k-1] < k on, each step adds 2(k - 1 - s[k-1])
        # >= 0 to the slack, so no later inequality can fail
        if s[k - 1] < k:
            break
        while s[j - 1] < k:
            j -= 1
        # sum(min(x, k) for x in s[k:]): k for each i in [k, j), s[i] beyond
        tail = k * (j - k) + prefix[n] - prefix[j]
        if prefix[k] > k * (k - 1) + tail:
            return False
    return True


def realize(d):
    """Havel-Hakimi construction of a graph with degree sequence d.

    Ties broken by (residual degree desc, index asc), so the output is
    deterministic.  Nodes wait in one bucket per residual degree, each in
    index order: a round joins the first node of the top bucket to the
    next k nodes, taken bucket by bucket downwards, and moves each down
    one bucket, so no round sorts all n nodes.
    """
    d = [int(x) for x in d]
    if not is_graphical(d):
        raise NotGraphical(f"degree sequence {tuple(d)} is not graphical")
    buckets = [[] for _ in range(max(d, default=0) + 1)]
    for v, k in enumerate(d):
        buckets[k].append(v)
    edges = set()
    top = len(buckets) - 1
    while True:
        while top and not buckets[top]:
            top -= 1
        if not top:
            break
        v = buckets[top].pop(0)
        taken, need = [], top
        for r in range(top, 0, -1):
            take = buckets[r][:need]
            del buckets[r][:need]
            taken.append((r, take))
            need -= len(take)
            if not need:
                break
        if need:
            raise NotGraphical(f"degree sequence {tuple(d)} is not graphical")
        for r, take in taken:
            edges.update(_norm_edge(v, u) for u in take)
            if r > 1:
                buckets[r - 1] = sorted(buckets[r - 1] + take)
    return Graph(len(d), frozenset(edges))


def _feasible_sequence(iv, m):
    """A graphical d with iv.lower <= d <= iv.upper and sum(d) = 2m, or None.

    Greedy water-filling from the lower bounds; if that is not graphical,
    the balanced point of the slice decides.  Every point of the slice
    majorizes the balanced point, and moving a unit from a degree to one at
    least 2 smaller keeps a sequence graphical, so the slice holds a
    graphical sequence iff its balanced point is one.
    """
    n = iv.n
    target = 2 * m
    lo, hi = list(iv.lower), list(iv.upper)
    if sum(lo) > target or sum(hi) < target:
        return None
    # Water-fill: raise coordinates round-robin from the lower bounds.
    d = list(lo)
    excess = target - sum(d)
    while excess > 0:
        progressed = False
        for i in range(n):
            if excess == 0:
                break
            if d[i] < hi[i]:
                d[i] += 1
                excess -= 1
                progressed = True
        if not progressed:
            return None
    if is_graphical(d):
        return tuple(d)
    # Balanced point: clamp every coordinate to the highest level t whose
    # sum fits, then lift enough coordinates sitting at t by one.
    def level(t):
        return [min(max(t, a), b) for a, b in zip(lo, hi)]

    t = min(lo)
    while t < max(hi) and sum(level(t + 1)) <= target:
        t += 1
    d = level(t)
    excess = target - sum(d)
    for i in range(n):
        if excess > 0 and d[i] == t < hi[i]:
            d[i] += 1
            excess -= 1
    return tuple(d) if is_graphical(d) else None


def realize_in_interval(iv, m):
    """A graph with degrees in the interval and exactly m edges."""
    d = _feasible_sequence(iv, m)
    if d is None:
        raise Infeasible(f"no graphical sequence in {iv} with {m} edges")
    return realize(d)


def intervals_from_observation(observed, missing):
    """Degree intervals from a partially observed graph.

    lower_i is the observed degree, upper_i adds the per-node count of
    missing observations.
    """
    missing = [int(x) for x in missing]
    if len(missing) != observed.n:
        raise ValueError("missing-count vector length must equal n")
    if any(x < 0 for x in missing):
        raise ValueError("missing counts must be non-negative")
    lower = observed.degree_sequence()
    upper = tuple(lo + delta for lo, delta in zip(lower, missing))
    return DegreeInterval(lower, upper)  # raises BoundExceeded if some u_i > n-1


# --- file formats ------------------------------------------------------------
#
# Edge list: one "u v" pair per line, 0-based, '#' comments and blanks
# ignored; a first line "# n=N" gives the node count.
# Interval file: lines "i ell_i u_i".
# Missing-count file: lines "i k_i".

_N_HEADER = re.compile(r"#\s*n\s*=\s*(\d+)\s*")


def _input_text(path):
    """The text of the input file at path; ParseError, naming the path and,
    for text that is not UTF-8, the line, if the file cannot be read."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise ParseError(f"{path}: cannot open: {e.strerror}") from e
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        lineno = data.count(b"\n", 0, e.start) + 1
        raise ParseError(f"{path}:{lineno}: not UTF-8 text", lineno) from e


def _field_lines(text):
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield lineno, raw, fields


def input_lines(path):
    """(line number, line, fields) of each line of the input file at path
    that has fields, '#' comments cut; ParseError, naming the path and, for
    text that is not UTF-8, the line, if the file cannot be read."""
    return _field_lines(_input_text(path))


def read_edge_list(path):
    """The graph of an edge-list file.  Its node count is the "# n=N" header
    that ``write_edge_list`` writes, so isolated nodes survive, and an edge
    beyond it is a ParseError; without a header it is the largest label + 1."""
    text = _input_text(path)
    header = _N_HEADER.fullmatch(text.partition("\n")[0])
    n = int(header[1]) if header else None
    pairs = []
    max_node = -1
    for lineno, raw, parts in _field_lines(text):
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'u v', got {raw!r}", lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-integer node id in {raw!r}", lineno)
        if i == j or i < 0 or j < 0:
            raise ParseError(f"{path}:{lineno}: invalid edge ({i},{j})", lineno)
        if n is not None and max(i, j) >= n:
            raise ParseError(f"{path}:{lineno}: edge ({i},{j}) beyond the header's n={n}", lineno)
        pairs.append((i, j))
        max_node = max(max_node, i, j)
    return Graph.from_edges(max_node + 1 if n is None else n, pairs)


def write_edge_list(path, g):
    # Sorting integer keys i * n + j beats sorting the pairs, and one format
    # of the whole list beats one per line.
    n = g.n
    keys = sorted([i * n + j for i, j in g.edges])
    pairs = itertools.chain.from_iterable(map(divmod, keys, itertools.repeat(n)))
    text = f"# n={n}\n" + "%d %d\n" * len(keys) % tuple(pairs)
    # Overwrite in place, then cut to length.  Truncating to zero on open
    # makes ext4 start writing the file back to disk at close (auto_da_alloc),
    # a disk flush per file that costs more than the write itself.
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write(text)
        fh.truncate()


def _node_rows(path, form):
    """{node: its other fields} of a file of lines ``form``, all integers
    with the node first; a line of another shape, a negative node or a node
    named twice is a ParseError naming the path and the line."""
    rows = {}
    for lineno, raw, parts in input_lines(path):
        if len(parts) != len(form.split()):
            raise ParseError(f"{path}:{lineno}: expected '{form}', got {raw!r}", lineno)
        try:
            i, *fields = (int(x) for x in parts)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-integer field in {raw!r}", lineno)
        if i < 0:
            raise ParseError(f"{path}:{lineno}: negative node {i}", lineno)
        if i in rows:
            raise ParseError(f"{path}:{lineno}: duplicate node {i}", lineno)
        rows[i] = fields
    return rows


def read_intervals(path):
    rows = _node_rows(path, "i ell_i u_i")
    n = len(rows)
    if n == 0:
        raise ParseError(f"{path}: names no node")
    if sorted(rows) != list(range(n)):
        raise ParseError(f"{path}: node ids must be exactly 0..{n - 1}")
    lower = tuple(rows[i][0] for i in range(n))
    upper = tuple(rows[i][1] for i in range(n))
    try:
        return DegreeInterval(lower, upper)
    except ValueError as e:
        raise ParseError(f"{path}: {e}")


def read_missing_counts(path):
    """{node: count of missing observations} of a missing-count file."""
    return {i: k for i, (k,) in _node_rows(path, "i k_i").items()}


def write_intervals(path, iv):
    with open(path, "w") as fh:
        for i, (lo, hi) in enumerate(zip(iv.lower, iv.upper)):
            fh.write(f"{i} {lo} {hi}\n")
