"""Core graph types, graphicality, realization and file formats."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degmc.graphs import (
    BoundExceeded,
    DegreeInterval,
    Graph,
    Infeasible,
    NearRegularParams,
    NotGraphical,
    ParseError,
    _feasible_sequence,
    intervals_from_observation,
    is_graphical,
    read_edge_list,
    read_intervals,
    realize,
    realize_in_interval,
    write_edge_list,
    write_intervals,
)
from degmc.projection import feasible_edge_counts


def realize_by_sorting(d):
    """Havel-Hakimi that sorts every node by (residual desc, index asc) each
    round: the reference for realize's buckets."""
    n = len(d)
    residual = list(d)
    edges = set()
    while True:
        order = sorted(range(n), key=lambda i: (-residual[i], i))
        v = order[0]
        k = residual[v]
        if k == 0:
            return Graph(n, frozenset(edges))
        residual[v] = 0
        for u in [u for u in order[1:] if residual[u] > 0][:k]:
            edges.add((min(u, v), max(u, v)))
            residual[u] -= 1


@st.composite
def graph_degrees(draw):
    """The degree sequence of a graph on 1..60 nodes, of any density."""
    n = draw(st.integers(1, 60))
    density = draw(st.sampled_from([0.05, 0.2, 0.5, 0.8, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, 1)
    return [int(x) for x in (upper | upper.T).sum(axis=1)]


def brute_force_graphical(d):
    """Independent oracle: scan all graphs on len(d) nodes."""
    n = len(d)
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        deg = [0] * n
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                deg[i] += 1
                deg[j] += 1
        if tuple(deg) == tuple(d):
            return True
    return False


def is_graphical_full_loop(d):
    """Erdos-Gallai checked at every k = 1..n, with no early exit: the
    reference for is_graphical's loop."""
    n = len(d)
    if any(x < 0 for x in d) or sum(d) % 2:
        return False
    s = sorted(d, reverse=True)
    return all(
        sum(s[:k]) <= k * (k - 1) + sum(min(x, k) for x in s[k:]) for k in range(1, n + 1)
    )


class TestGraph:
    def test_normalizes_and_validates(self):
        g = Graph(3, frozenset({(2, 0), (1, 2)}))
        assert g.edges == {(0, 2), (1, 2)}
        assert g.has_edge(2, 0) and not g.has_edge(0, 1)
        with pytest.raises(ValueError):
            Graph(3, frozenset({(1, 1)}))
        with pytest.raises(ValueError):
            Graph(3, frozenset({(0, 3)}))

    def test_degree_sequence_and_edits(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.degree_sequence() == (1, 2, 2, 1)
        g2 = g.with_edges(add=[(0, 3)], remove=[(1, 2)])
        assert g2.degree_sequence() == (2, 1, 1, 2)
        assert g.degree_sequence() == (1, 2, 2, 1)  # immutable

    def test_complete_empty(self):
        assert Graph.complete(5).num_edges == 10
        assert Graph.empty(5).num_edges == 0

    def test_hashable(self):
        assert Graph.from_edges(3, [(0, 1)]) == Graph.from_edges(3, [(1, 0)])
        assert len({Graph.empty(3), Graph(3)}) == 1

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=200, deadline=None)
    def test_from_adjacency_matches_constructor(self, n, data):
        pairs = list(itertools.combinations(range(n), 2))
        edges = frozenset(data.draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else frozenset()
        g = Graph(n, edges)
        h = Graph.from_adjacency(g.adjacency())
        assert h == g and hash(h) == hash(g)

    @pytest.mark.parametrize(
        "adj,error",
        [
            ([{0, 1}, {0}], "self-loop at node 0"),  # beside the valid edge (0, 1)
            ([{1}, {0, 1}, set()], "self-loop at node 1"),
            ([{1, -1}, {0}, set()], "out of range"),
            ([{1}, {0, 3}, set()], "out of range"),
        ],
    )
    def test_from_adjacency_rejects(self, adj, error):
        with pytest.raises(ValueError, match=error):
            Graph.from_adjacency(adj)


class TestGraphical:
    @pytest.mark.parametrize(
        "d,expect",
        [
            ((), True),
            ((0,), True),
            ((1,), False),
            ((1, 1), True),
            ((2, 2, 2), True),
            ((3, 1, 1, 1), True),
            ((3, 3, 1, 1), False),
            ((3, 3, 3, 1), False),
            ((2, 2, 2, 2), True),
            ((4, 4, 4, 4, 4), True),
        ],
    )
    def test_known_values(self, d, expect):
        assert is_graphical(d) is expect

    def test_odd_sum_and_range(self):
        assert not is_graphical((1, 1, 1))
        assert not is_graphical((5, 0, 0, 0, 0))
        assert not is_graphical((-1, 1))

    @given(st.integers(0, 10).flatmap(lambda n: st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)))
    @settings(max_examples=2000, deadline=None)
    def test_matches_full_loop(self, d):
        assert is_graphical(d) is is_graphical_full_loop(d)

    def test_matches_brute_force_n5(self):
        for d in itertools.product(range(5), repeat=5):
            assert is_graphical(d) == brute_force_graphical(d), d

    @given(st.lists(st.integers(0, 5), min_size=2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_realize_consistent(self, d):
        if is_graphical(d):
            assert realize(d).degree_sequence() == tuple(d)
        else:
            with pytest.raises(NotGraphical):
                realize(d)

    def test_realize_deterministic(self):
        assert realize((2, 2, 1, 1)) == realize((2, 2, 1, 1))

    @given(graph_degrees())
    @settings(max_examples=300, deadline=None)
    def test_realize_matches_sorted_rounds(self, d):
        assert realize(d) == realize_by_sorting(d)

    def test_realize_sample_chain_instance(self):
        # the n = 300 set-up of the benchmark's sample-chain workload
        params = NearRegularParams(r=5, alpha=0.4, rho=0.5, n=300)
        lo, hi = params.degree_range()
        rng = np.random.default_rng(0)
        lower = rng.integers(lo, hi, size=300)
        iv = DegreeInterval(tuple(lower), tuple(lower + rng.integers(0, 2, size=300)))
        ms = feasible_edge_counts(iv)
        d = _feasible_sequence(iv, ms[len(ms) // 2])
        assert realize(d) == realize_by_sorting(d)


class TestDegreeInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            DegreeInterval((2,) * 3, (1,) * 3)
        with pytest.raises(BoundExceeded):
            DegreeInterval((0,) * 3, (3,) * 3)

    def test_contains(self):
        iv = DegreeInterval((1, 1, 1), (2, 2, 2))
        assert iv.contains((1, 2, 1))
        assert not iv.contains((0, 2, 1))
        assert iv.contains_graph(Graph.complete(3))
        assert iv.width() == 1
        assert DegreeInterval.constant((2, 2, 2)).width() == 0

    def test_contains_wrong_length(self):
        """A sequence or graph on another number of nodes is never inside,
        whether it is shorter or longer than the box."""
        iv = DegreeInterval((1,) * 5, (2,) * 5)
        for d in ((1,), (1,) * 4, (1,) * 6, ()):
            assert not iv.contains(d)
        assert not iv.contains_graph(Graph(2, frozenset({(0, 1)})))
        assert not iv.contains_graph(Graph.complete(3))
        assert iv.contains((1,) * 5)

    def test_realize_in_interval(self):
        iv = DegreeInterval((1,) * 5, (3,) * 5)
        for m in (3, 5, 7):
            g = realize_in_interval(iv, m)
            assert g.num_edges == m
            assert iv.contains_graph(g)
        with pytest.raises(Infeasible):
            realize_in_interval(iv, 1)

    def test_feasible_sequence_none(self):
        iv = DegreeInterval((0, 0, 0), (1, 1, 1))
        assert _feasible_sequence(iv, 3) is None

    def test_feasible_sequence_beyond_water_fill(self):
        # water-fill is not graphical and the box has 2^26 * 72 points
        iv = DegreeInterval((0, 5, 4, 2, 1, 2) + (0,) * 23, (1, 5, 5, 3, 3, 4) + (1,) * 23)
        assert is_graphical((1, 5, 4, 2, 2, 2) + (0,) * 23)
        d = _feasible_sequence(iv, 8)
        assert d is not None and is_graphical(d) and iv.contains(d) and sum(d) == 16

    def test_feasible_sequence_matches_box_scan(self):
        """On every box with n <= 4, a sequence is found iff the slice holds one."""
        for n in range(1, 5):
            choices = [(a, b) for b in range(n) for a in range(b + 1)]
            for box in itertools.product(choices, repeat=n):
                iv = DegreeInterval(tuple(a for a, _ in box), tuple(b for _, b in box))
                sums = {
                    sum(p)
                    for p in itertools.product(*(range(a, b + 1) for a, b in box))
                    if is_graphical(p)
                }
                for m in range(sum(iv.lower) // 2, sum(iv.upper) // 2 + 1):
                    d = _feasible_sequence(iv, m)
                    if d is None:
                        assert 2 * m not in sums, (box, m)
                    else:
                        assert is_graphical(d) and iv.contains(d) and sum(d) == 2 * m


class TestNearRegular:
    def test_validation(self):
        with pytest.raises(ValueError):
            NearRegularParams(r=2, alpha=0.6, rho=0.5, n=10)
        with pytest.raises(ValueError):
            NearRegularParams(r=9, alpha=0.2, rho=0.5, n=10)

    def test_degree_range_and_threshold(self):
        p = NearRegularParams(r=2, alpha=0.2, rho=0.7, n=7)
        assert p.degree_range() == (1, 3)
        assert NearRegularParams.min_n(0.2, 0.7) == 6
        assert p.admits(DegreeInterval((1,) * 7, (3,) * 7))
        assert not p.admits(DegreeInterval((0,) * 7, (3,) * 7))
        assert p.in_dispersion_regime()
        assert p.dispersion_bound() == pytest.approx(4 * 7 * 2**-0.6 / (0.7 * 7 - 2))
        # n**alpha = 5**0.3 > rho*n/2 = 1.5: n too small for the regime
        assert not NearRegularParams(r=2, alpha=0.3, rho=0.6, n=5).in_dispersion_regime()


class TestObservation:
    def test_triangle_fully_observed(self):
        g = Graph.complete(3)
        iv = intervals_from_observation(g, [0, 0, 0])
        assert iv.lower == iv.upper == (2, 2, 2)

    def test_missing_raises_bounds(self):
        g = Graph.complete(3)
        with pytest.raises(BoundExceeded):
            intervals_from_observation(g, [1, 0, 0])

    def test_partial(self):
        g = Graph.from_edges(4, [(0, 1)])
        iv = intervals_from_observation(g, [2, 0, 1, 0])
        assert iv.lower == (1, 1, 0, 0)
        assert iv.upper == (3, 1, 1, 0)


class TestFiles:
    def test_edge_list_roundtrip(self, tmp_path):
        g = Graph.from_edges(5, [(0, 1), (2, 4), (1, 3)])
        path = tmp_path / "g.edges"
        write_edge_list(path, g)
        assert read_edge_list(path) == g

    def test_edge_list_keeps_isolated_nodes(self, tmp_path):
        """The "# n=N" header sets the node count, past the largest label;
        an edge beyond it is a ParseError naming its line."""
        path = tmp_path / "g.edges"
        for g in (Graph.from_edges(5, [(0, 1)]), Graph.empty(3)):
            write_edge_list(path, g)
            assert read_edge_list(path) == g
        path.write_text("# n=3\n0 1\n1 3\n")
        with pytest.raises(ParseError, match="n=3") as ei:
            read_edge_list(path)
        assert ei.value.line_number == 3

    def test_edge_list_overwrite(self, tmp_path):
        """Rewriting a file with a shorter edge list leaves only the new one."""
        path = tmp_path / "g.edges"
        write_edge_list(path, Graph.from_edges(9, [(i, i + 1) for i in range(8)]))
        g = Graph.from_edges(3, [(0, 2)])
        write_edge_list(path, g)
        assert path.read_text() == "# n=3\n0 2\n"
        assert read_edge_list(path) == g

    def test_edge_list_comments_and_errors(self, tmp_path):
        p = tmp_path / "a.edges"
        p.write_text("# header\n0 1\n\n1 2  # trailing\n")
        assert read_edge_list(p).edges == {(0, 1), (1, 2)}
        p.write_text("0 1\nbad line here\n")
        with pytest.raises(ParseError) as ei:
            read_edge_list(p)
        assert ei.value.line_number == 2
        p.write_text("0 0\n")
        with pytest.raises(ParseError):
            read_edge_list(p)

    def test_interval_roundtrip(self, tmp_path):
        iv = DegreeInterval((1, 0, 2), (2, 1, 2))
        path = tmp_path / "iv.txt"
        write_intervals(path, iv)
        assert read_intervals(path) == iv

    def test_interval_errors(self, tmp_path):
        p = tmp_path / "iv.txt"
        p.write_text("0 1 2\n0 1 2\n")
        with pytest.raises(ParseError):
            read_intervals(p)
        p.write_text("0 1 2\n2 1 2\n")
        with pytest.raises(ParseError):
            read_intervals(p)
        # bounds DegreeInterval refuses: lo > hi, a negative bound, hi > n - 1
        for text in ("0 3 1\n1 0 2\n2 0 2\n3 0 2\n", "0 -1 1\n1 0 1\n", "0 0 2\n1 0 1\n"):
            p.write_text(text)
            with pytest.raises(ParseError, match=str(p)):
                read_intervals(p)
