"""The three local-move kernels: exact move semantics and transition rows."""

import copy
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degmc import oracle
from degmc.chains import (
    BLOCK,
    MOVES,
    ROW,
    DegreeIntervalKernel,
    SwitchHingeFlipKernel,
    SwitchKernel,
    add_delete_move,
    hinge_flip_move,
    make_rng,
    run_with_rng,
    spawn_rngs,
    switch_move,
)
from degmc.graphs import DegreeInterval, Graph, realize_in_interval


def random_graph(rng, n, p=0.5):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


WIDE = DegreeInterval((0,) * 6, (5,) * 6)
ADMITS_BOX = DegreeInterval((1, 1, 2, 0, 2), (2, 3, 2, 1, 4))
PURE = {
    "switch": lambda g, quad, iv: switch_move(g, quad),
    "hinge": hinge_flip_move,
    "add_delete": add_delete_move,
}


class TestMoves:
    def test_switch_fires(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        # (v,w,x,y) = (1,0,2,3): needs {0,1},{2,3} in E; {3,1},{2,0} out
        g2 = switch_move(g, (1, 0, 2, 3))
        assert g2.edges == {(1, 3), (0, 2)}
        assert g2.degree_sequence() == g.degree_sequence()

    def test_switch_degenerate_tuples_hold(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        for quad in itertools.product(range(4), repeat=4):
            g2 = switch_move(g, quad)
            assert g2.degree_sequence() == g.degree_sequence()

    def test_switch_requires_nonedges(self):
        g = Graph.complete(4)
        for quad in itertools.product(range(4), repeat=4):
            assert switch_move(g, quad) == g

    def test_hinge_moves_degree_unit(self):
        g = Graph.from_edges(3, [(0, 1)])
        g2 = hinge_flip_move(g, (0, 1, 2))  # v=0 loses, pivot w=1, x=2 gains
        assert g2.edges == {(1, 2)}

    def test_hinge_respects_interval(self):
        g = Graph.from_edges(3, [(0, 1)])
        iv = DegreeInterval((1, 0, 0), (2, 2, 2))  # node 0 may not drop below 1
        assert hinge_flip_move(g, (0, 1, 2), iv) == g

    def test_hinge_never_creates_self_loop(self):
        g = Graph.from_edges(3, [(0, 1)])
        for triple in itertools.product(range(3), repeat=3):
            g2 = hinge_flip_move(g, triple)
            assert all(i != j for (i, j) in g2.edges)

    def test_add_delete(self):
        iv = DegreeInterval((0, 0, 0), (1, 1, 1))
        g = Graph.empty(3)
        g2 = add_delete_move(g, (0, 1), iv)
        assert g2.edges == {(0, 1)}
        assert add_delete_move(g2, (1, 2), iv) == g2  # node 1 at its cap
        assert add_delete_move(g2, (0, 1), iv) == Graph.empty(3)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_moves_preserve_invariants(self, seed):
        rng = make_rng(seed)
        g = random_graph(rng, 6)
        quad = tuple(int(x) for x in rng.integers(0, 6, size=4))
        assert switch_move(g, quad).degree_sequence() == g.degree_sequence()
        triple = tuple(int(x) for x in rng.integers(0, 6, size=3))
        assert hinge_flip_move(g, triple).num_edges == g.num_edges
        pair = tuple(int(x) for x in rng.integers(0, 6, size=2))
        assert abs(add_delete_move(g, pair, WIDE).num_edges - g.num_edges) <= 1

    def test_in_place_moves_match_pure(self):
        """Each move of MOVES, run in place on a copy, gives the pure move's
        graph and its degree sequence, for every ordered tuple: on every graph
        on 4 nodes and 50 seeded graphs on 6, under a free and a tight
        interval."""
        rng = make_rng(12)
        cases = [oracle.graph_of(int(mask), 4) for mask in oracle.census(4)[0]]
        cases += [random_graph(rng, 6) for _ in range(50)]
        for g in cases:
            n = g.n
            for iv in (DegreeInterval((0,) * n, (n - 1,) * n), DegreeInterval((1,) * n, (2,) * n)):
                for move, (in_place, arity) in MOVES.items():
                    for labels in itertools.product(range(n), repeat=arity):
                        nb, deg = g.adjacency(), list(g.degree_sequence())
                        # the labels past arity are never read
                        in_place(nb, deg, iv.lower, iv.upper, *labels, *[None] * (4 - arity))
                        want = PURE[move](g, labels, iv)
                        assert Graph.from_adjacency(nb).edges == want.edges, (move, labels)
                        assert tuple(deg) == want.degree_sequence(), (move, labels)


class TestKernels:
    def test_membership(self):
        k = SwitchKernel(d=(2, 2, 2))
        assert k.contains(Graph.complete(3))
        assert not k.contains(Graph.empty(3))
        iv = DegreeInterval((0,) * 3, (2,) * 3)
        assert SwitchHingeFlipKernel(iv, m=1).contains(Graph.from_edges(3, [(0, 1)]))
        assert not SwitchHingeFlipKernel(iv, m=2).contains(Graph.from_edges(3, [(0, 1)]))
        assert DegreeIntervalKernel(iv).contains(Graph.empty(3))

    def test_switch_kernel_checks_d_when_built(self):
        """A degree above n - 1 is DegreeInterval's error at construction."""
        with pytest.raises(ValueError, match="exceeds n-1"):
            SwitchKernel(d=(5, 5))
        with pytest.raises(ValueError, match="invalid interval"):
            SwitchKernel(d=(1, -1, 0))

    @pytest.mark.parametrize(
        "kernel, old_admits",
        [
            (SwitchKernel(d=(1, 3, 2, 0, 2)), lambda deg, m: tuple(deg) == (1, 3, 2, 0, 2)),
            (SwitchHingeFlipKernel(ADMITS_BOX, m=4), lambda deg, m: m == 4 and ADMITS_BOX.contains(deg)),
            (DegreeIntervalKernel(ADMITS_BOX), lambda deg, m: ADMITS_BOX.contains(deg)),
        ],
        ids=["switch", "switch-hinge", "interval"],
    )
    def test_shared_admits_matches_per_kernel_definitions(self, kernel, old_admits):
        """The one admits on _TableKernel agrees with each kernel's former
        definition on every degree sequence in [0, 4]^5, in the box and out
        of it, at edge counts 3 to 5, and refuses sequences of other lengths."""
        seen = Counter()
        for deg in itertools.product(range(5), repeat=5):
            for m in (3, 4, 5):
                want = old_admits(list(deg), m)
                assert kernel.admits(list(deg), m) == want, (deg, m)
                seen[want] += 1
        assert seen[True] and seen[False]
        for deg in ((1, 3, 2, 0), (1, 3, 2, 0, 2, 0), ()):
            assert not kernel.admits(list(deg), 4)

    def test_run_rejects_bad_start(self):
        with pytest.raises(ValueError):
            run_with_rng(SwitchKernel(d=(2, 2, 2)), Graph.empty(3), 1, make_rng(0))
        with pytest.raises(ValueError):
            SwitchKernel(d=(2, 2, 2)).step(Graph.empty(3), make_rng(0))

    def test_run_deterministic(self):
        iv = DegreeInterval((1,) * 5, (2,) * 5)
        k = DegreeIntervalKernel(iv)
        g0 = oracle.enumerate_graphs(5, interval=iv).graph(0)
        a = run_with_rng(k, g0, 500, make_rng(42))
        b = run_with_rng(k, g0, 500, make_rng(42))
        assert a == b
        c = run_with_rng(k, g0, 500, make_rng(43))
        # overwhelmingly likely to differ; both must stay in the space
        assert k.contains(a) and k.contains(c)

    def test_spawned_streams_differ(self):
        r1, r2 = spawn_rngs(7, 2)
        assert r1.integers(0, 1 << 30) != r2.integers(0, 1 << 30)

    def test_fast_loop_matches_functional(self):
        """A run and as many one-step runs (kernel.step) agree draw for draw."""
        iv = DegreeInterval((1,) * 5, (3,) * 5)
        for kernel in (
            SwitchKernel(d=(2,) * 5),
            SwitchHingeFlipKernel(iv, m=5),
            DegreeIntervalKernel(iv),
        ):
            if isinstance(kernel, SwitchKernel):
                g0 = oracle.enumerate_graphs(5, d=kernel.d).graph(0)
            elif isinstance(kernel, SwitchHingeFlipKernel):
                g0 = oracle.enumerate_graphs(5, interval=iv, m=kernel.m).graph(0)
            else:
                g0 = oracle.enumerate_graphs(5, interval=iv).graph(0)
            g_fast = run_with_rng(kernel, g0, 2000, make_rng(11))
            g_slow = g0
            rng = make_rng(11)
            for _ in range(2000):
                g_slow = kernel.step(g_slow, rng)
            assert g_fast == g_slow

    def test_run_matches_pure_moves_at_scale(self):
        """run_with_rng's stream, decoded here from its layout (module
        docstring) and replayed through the pure moves on Graphs, gives the
        run's graph at several lengths, for all three kernels on a seeded
        near-regular box of widths 0 and 1 on 60 nodes."""
        n, steps = 60, 24000
        rng = make_rng(9)
        lower = tuple(9 + int(b) for b in rng.integers(0, 2, n))
        iv = DegreeInterval(lower, tuple(a + int(b) for a, b in zip(lower, rng.integers(0, 2, n))))
        g0 = realize_in_interval(iv, (sum(iv.lower) + sum(iv.upper)) // 4)
        kernels = (
            SwitchKernel(d=g0.degree_sequence()),
            SwitchHingeFlipKernel(iv, m=g0.num_edges),
            DegreeIntervalKernel(iv),
        )
        lengths = {1000, BLOCK + 3, 3 * BLOCK}
        rows = make_rng(21).random((steps, ROW))
        for kernel in kernels:
            hold, table = kernel.table
            g = g0
            for done, (u, *xs) in enumerate(rows):
                if done in lengths:
                    assert run_with_rng(kernel, g0, done, make_rng(21)) == g, (kernel, done)
                if u < hold:
                    continue
                cut = hold
                for move, p in table:
                    cut += p
                    if u < cut:
                        break
                labels = tuple(int(x * n) for x in xs[: MOVES[move][1]])
                g = PURE[move](g, labels, kernel.interval)
            assert run_with_rng(kernel, g0, steps, make_rng(21)) == g
            assert g != g0 and kernel.contains(g)

    def test_result_is_from_adjacency_of_the_run(self):
        """The graph run_with_rng returns equals Graph.from_adjacency of the
        neighbour sets that the same seeded run, replayed here through the
        in-place moves, leaves, for all three kernels; its edges are
        normalized pairs in a frozenset, as from_adjacency builds them."""
        n, steps = 40, 3 * BLOCK + 5
        rng = make_rng(17)
        lower = tuple(4 + int(b) for b in rng.integers(0, 2, n))
        iv = DegreeInterval(lower, tuple(a + int(b) for a, b in zip(lower, rng.integers(0, 2, n))))
        g0 = realize_in_interval(iv, (sum(iv.lower) + sum(iv.upper)) // 4)
        kernels = (
            SwitchKernel(d=g0.degree_sequence()),
            SwitchHingeFlipKernel(iv, m=g0.num_edges),
            DegreeIntervalKernel(iv),
        )
        for seed, kernel in enumerate(kernels):
            nb = g0.adjacency()
            deg = [len(row) for row in nb]
            hold, cuts, fns = kernel.branches()
            box = kernel.interval
            for u, *xs in make_rng(seed).random((steps, ROW)):
                if u >= hold:
                    labels = [int(x * n) for x in xs]
                    fns[int(np.searchsorted(cuts, u, side="right"))](nb, deg, box.lower, box.upper, *labels)
            want = Graph.from_adjacency(nb)
            got = run_with_rng(kernel, g0, steps, make_rng(seed))
            assert got == want and got != g0 and hash(got) == hash(want)
            assert type(got.edges) is frozenset and all(i < j for i, j in got.edges)

    def test_block_boundaries(self):
        """At every run length around the block size, run_with_rng returns
        what repeated one-step runs (kernel.step) return and leaves the rng
        where they do."""
        iv = DegreeInterval((1,) * 6, (3,) * 6)
        kernels = (
            (SwitchKernel(d=(2,) * 5), oracle.enumerate_graphs(5, d=(2,) * 5)),
            (SwitchHingeFlipKernel(iv, m=6), oracle.enumerate_graphs(6, interval=iv, m=6)),
            (DegreeIntervalKernel(iv), oracle.enumerate_graphs(6, interval=iv)),
        )
        lengths = {0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7}
        for kernel, space in kernels:
            g0 = space.graph(len(space) // 2)
            g_slow, rng_slow = g0, make_rng(3)
            for done in range(max(lengths) + 1):
                if done in lengths:
                    rng_fast = make_rng(3)
                    assert run_with_rng(kernel, g0, done, rng_fast) == g_slow
                    assert rng_fast.random() == copy.deepcopy(rng_slow).random()
                g_slow = kernel.step(g_slow, rng_slow)


class TestTransitionRows:
    """The vectorized matrix builder vs exhaustive ordered-tuple enumeration."""

    def test_switch_row_hand_count(self):
        # From G = {01, 23} on 4 nodes: 8 of the 256 ordered tuples fire,
        # 4 to each of the two other perfect matchings.
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        k = SwitchKernel(d=(1, 1, 1, 1))
        row = oracle.transition_row_reference(k, g)
        other = {t: p for t, p in row.items() if t != g}
        assert len(other) == 2
        for p in other.values():
            assert p == pytest.approx((1 / 6) * 4 / 256)
        assert row[g] == pytest.approx(1 - (1 / 6) * 8 / 256)

    @staticmethod
    def assert_rows_agree(k, space, tol):
        """Every full row of build_matrix matches the reference.

        Off-diagonal entries agree within tol and their sums within 1e-14.
        The reference's diagonal is a running sum of one term per ordered
        tuple, so it agrees within that sum's rounding bound, (number of
        terms) * machine epsilon.
        """
        P = oracle.build_matrix(k, space).toarray()
        terms = 1 + sum(k.n ** MOVES[move][1] for move in k.move_probabilities())
        for i in range(len(space)):
            ref = np.zeros(len(space))
            for t, p in oracle.transition_row_reference(k, space.graph(i)).items():
                ref[space.index_of(t)] += p
            off = np.arange(len(space)) != i
            assert P[i, off] == pytest.approx(ref[off], abs=tol)
            assert P[i, off].sum() == pytest.approx(ref[off].sum(), abs=1e-14)
            assert P[i, i] == pytest.approx(ref[i], abs=terms * np.finfo(float).eps)

    @pytest.mark.parametrize("n,r", [(4, 1), (4, 2), (5, 2)])
    def test_switch_kernel_rows_agree(self, n, r):
        k = SwitchKernel(d=(r,) * n)
        self.assert_rows_agree(k, oracle.enumerate_graphs(n, d=k.d), 1e-15)

    def test_interval_kernel_rows_agree(self):
        iv = DegreeInterval((1,) * 4, (2,) * 4)
        k = DegreeIntervalKernel(iv)
        self.assert_rows_agree(k, oracle.enumerate_graphs(4, interval=iv), 1e-15)

    def test_switch_hinge_kernel_rows_agree(self):
        iv = DegreeInterval((0,) * 4, (2,) * 4)
        k = SwitchHingeFlipKernel(iv, m=3)
        self.assert_rows_agree(k, oracle.enumerate_graphs(4, interval=iv, m=3), 1e-15)

    def test_empirical_step_frequencies(self):
        """Sampled one-step frequencies match the exact row."""
        iv = DegreeInterval((1,) * 4, (2,) * 4)
        k = DegreeIntervalKernel(iv)
        space = oracle.enumerate_graphs(4, interval=iv)
        g = space.graph(3)
        row = oracle.transition_row_reference(k, g)
        rng = make_rng(5)
        counts = Counter()
        N = 40000
        for _ in range(N):
            counts[k.step(g, rng)] += 1
        for t, p in row.items():
            emp = counts[t] / N
            assert emp == pytest.approx(p, abs=4 * np.sqrt(p * (1 - p) / N) + 1e-3)


class TestLaziness:
    def test_hold_probabilities(self):
        assert SwitchKernel(d=(2, 2, 2)).move_probabilities() == {"switch": 1 / 6}
        iv = DegreeInterval((0,) * 3, (2,) * 3)
        assert sum(SwitchHingeFlipKernel(iv, 1).move_probabilities().values()) == pytest.approx(1 / 3)
        assert sum(DegreeIntervalKernel(iv).move_probabilities().values()) == pytest.approx(1 / 2)
