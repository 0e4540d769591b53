"""Exact enumeration, counting, spectral and structural verification tools."""

import hashlib
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from degmc import oracle, projection, verify
from degmc.chains import MOVES, DegreeIntervalKernel, SwitchHingeFlipKernel, SwitchKernel, make_rng
from degmc.counting import exact_interval_count
from degmc.graphs import DegreeInterval, Graph, is_graphical
from degmc.oracle import (
    AlternatingPath,
    Mismatch,
    NotStochastic,
    TooLarge,
    canonical_decomposition,
    census,
    congestion_check,
    count_realizations,
    degree_class_counts,
    enumerate_graphs,
    find_alternating_path,
    graph_of,
    graph_of_rank,
    mask_of,
    spectral_gap,
    state_graph_components,
    strongly_stable_condition,
    tv_curve,
    verify_log_concave,
    verify_martin_randall,
)


class TestMasks:
    def test_roundtrip(self):
        g = Graph.from_edges(5, [(0, 4), (1, 2), (2, 3)])
        assert graph_of(mask_of(g), 5) == g

    @given(st.integers(0, (1 << 15) - 1))
    @settings(max_examples=100, deadline=None)
    def test_mask_bijection_n6(self, m):
        assert mask_of(graph_of(m, 6)) == m

    def test_census_degrees(self):
        masks, starts, degrees, edges = census(4)
        assert len(masks) == 64
        assert np.array_equal(2 * edges, degrees.sum(axis=1))
        # each mask's degree vector, read off its class
        deg = {int(x): degrees[k] for k in range(len(degrees)) for x in masks[starts[k] : starts[k + 1]]}
        # spot check the complete graph
        full = int(masks[-1])
        assert tuple(deg[full]) == (3, 3, 3, 3)
        assert tuple(deg[0]) == (0, 0, 0, 0)

    def test_census_cap(self):
        with pytest.raises(TooLarge):
            census(8)

    def test_popcount_fallback(self, monkeypatch):
        # numpy < 2.0 has no bitwise_count; the byte table is its only path
        masks = make_rng(3).integers(0, 1 << 63, size=2000, dtype=np.int64)
        masks = np.concatenate([masks, [0, (1 << 62) - 1, (1 << 63) - 1]])
        want = np.bitwise_count(masks)
        monkeypatch.delattr(np, "bitwise_count")
        got = oracle._popcount(masks)
        assert np.array_equal(got, want)
        assert got.tolist() == [int(x).bit_count() for x in masks.tolist()]
        assert got[-3:].tolist() == [0, 62, 63]

    def test_popcount_fallback_census_and_degrees(self, monkeypatch):
        """The census and a space's degree vectors come out the same on the
        byte-table path as on numpy's bitwise_count."""
        space = enumerate_graphs(6, interval=DegreeInterval((1,) * 6, (3,) * 6))
        want_census, want_degrees = census.__wrapped__(5), space.degrees()
        monkeypatch.delattr(np, "bitwise_count")
        for got, want in zip(census.__wrapped__(5), want_census):
            assert np.array_equal(got, want)
        assert np.array_equal(space.degrees(), want_degrees)


def bit_degrees(masks, n):
    """Each mask's degree vector on n nodes, read bit by bit."""
    deg = np.zeros((len(masks), n), dtype=np.uint8)
    for k, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        bit = ((masks >> k) & 1).astype(np.uint8)
        deg[:, i] += bit
        deg[:, j] += bit
    return deg


def scan_degrees(n):
    """Every mask on n nodes and its degree vector."""
    masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.int64)
    return masks, bit_degrees(masks, n)


SCANS = {n: scan_degrees(n) for n in range(1, 7)}


def scan_filter(n, lo, hi, m=None, scans=SCANS):
    """The masks of G_m(lo, hi) by a full scan, ascending."""
    masks, deg = scans[n]
    sel = np.all((deg >= lo) & (deg <= hi), axis=1)
    if m is not None:
        sel &= deg.sum(axis=1) == 2 * m
    return masks[sel]


def assert_same_masks(space, want):
    assert space.masks.dtype == np.int64
    assert np.all(np.diff(space.masks) > 0)
    assert np.array_equal(space.masks, want)


@st.composite
def enumeration_cases(draw):
    """(n, d, interval, m): a degree vector or an interval on n <= 6 nodes,
    with or without an edge count, empty spaces included."""
    n = draw(st.integers(1, 6))
    m = draw(st.none() | st.integers(-1, n * (n - 1) // 2 + 1))
    if draw(st.booleans()):
        return n, tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))), None, m
    lower = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    upper = [draw(st.integers(lo, n - 1)) for lo in lower]
    return n, None, DegreeInterval(lower, upper), m


IV8 = DegreeInterval((2,) * 8, (3,) * 8)


class TestEnumeration:
    @given(enumeration_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_full_scan(self, case):
        n, d, iv, m = case
        lo, hi = (d, d) if d is not None else (iv.lower, iv.upper)
        want = scan_filter(n, lo, hi, m)
        assert_same_masks(enumerate_graphs(n, d=d, interval=iv, m=m), want)
        if iv is not None:
            assert exact_interval_count(iv, m) == len(want)
        elif m is None:
            assert count_realizations(d) == len(want)
        # the ranks below the count unrank to the scan's masks, one each
        if len(want) <= 20_000:
            got = sorted(mask_of(graph_of_rank(lo, hi, m, r)) for r in range(len(want)))
            assert np.array_equal(np.array(got, dtype=np.int64), want)
        for r in (-1, len(want)):
            with pytest.raises(IndexError):
                graph_of_rank(lo, hi, m, r)

    def test_matches_full_scan_n7(self):
        """Every edge count of [2,3]^7 (and two beyond its range), one d in
        it and a non-graphical d, against a full scan of the 2^21 masks."""
        scans = {7: scan_degrees(7)}
        iv = DegreeInterval((2,) * 7, (3,) * 7)
        for m in (None, 6, 7, 8, 9, 10, 11):
            want = scan_filter(7, iv.lower, iv.upper, m, scans)
            assert len(want) > 0 or m in (6, 11)
            assert_same_masks(enumerate_graphs(7, interval=iv, m=m), want)
        for d in ((2, 3, 2, 3, 3, 2, 3), (6, 6, 1, 1, 1, 1, 2)):
            want = scan_filter(7, d, d, None, scans)
            assert len(want) == count_realizations(d)
            assert_same_masks(enumerate_graphs(7, d=d), want)

    @pytest.mark.parametrize(
        "d, iv, m",
        [(None, IV8, m) for m in (None, 7, 8, 9, 10, 11, 12, 13)]
        + [
            ((3,) * 8, None, None),
            # node 0 isolated, and node 0 joined to every other node
            (None, DegreeInterval((0,) + (2,) * 7, (0,) + (3,) * 7), None),
            (None, DegreeInterval((7,) + (2,) * 7, (7,) + (3,) * 7), None),
            ((7, 7, 1, 1, 1, 1, 1, 1), None, None),  # not graphical
            (None, DegreeInterval((0,) * 8, (7,) * 8), 3),  # both clamps bind
        ],
    )
    def test_exact_n8(self, d, iv, m):
        """At n = 8 the masks are distinct (strictly ascending), each lies in
        the box with m edges (degrees read bit by bit), and there are as many
        as the independent count recursion gives, so the set is exact."""
        lo, hi = (d, d) if d is not None else (iv.lower, iv.upper)
        masks = enumerate_graphs(8, d=d, interval=iv, m=m).masks
        assert masks.dtype == np.int64
        assert np.all(np.diff(masks) > 0)
        assert np.all((masks >= 0) & (masks < 1 << 28))
        deg = bit_degrees(masks, 8)
        assert np.all((deg >= lo) & (deg <= hi))
        if m is not None:
            assert np.all(deg.sum(axis=1) == 2 * m)
        want = count_realizations(d) if d is not None else exact_interval_count(iv, m)
        assert len(masks) == want
        if iv == IV8:
            # the profile, from the 8 edges of a 2-regular graph on, is the
            # histogram of the enumeration's edge counts
            w = dict(enumerate(oracle.edge_count_profile(iv.lower, iv.upper), 8))
            if m is None:
                assert w == Counter((deg.sum(axis=1) // 2).tolist())
            else:
                assert w.get(m, 0) == len(masks)
        if iv is not None and iv.upper == (7,) * 8:
            assert want == math.comb(28, 3)

    def test_empty(self):
        assert not is_graphical((3, 3, 1, 1))
        assert_same_masks(enumerate_graphs(4, d=(3, 3, 1, 1)), np.empty(0, dtype=np.int64))
        iv = DegreeInterval((1,) * 5, (2,) * 5)
        for m in (2, 6):  # edge counts [1,2]^5 cannot reach
            assert_same_masks(enumerate_graphs(5, interval=iv, m=m), np.empty(0, dtype=np.int64))

    @pytest.mark.parametrize("n", [5, 8])
    def test_wrong_length(self, n):
        """A d or interval whose length is not n is refused on both paths,
        not broadcast."""
        for d in ((2,), (2,) * (n - 2), (2,) * (n + 1)):
            with pytest.raises(ValueError, match="entries, expected n="):
                enumerate_graphs(n, d=d)
        with pytest.raises(ValueError, match="nodes, expected n="):
            enumerate_graphs(n, interval=DegreeInterval((1,) * (n - 1), (2,) * (n - 1)))

    def test_fixed_degree(self):
        sp = enumerate_graphs(4, d=(1, 1, 1, 1))
        assert len(sp) == 3  # perfect matchings of K4
        sp = enumerate_graphs(5, d=(2, 2, 2, 2, 2))
        assert len(sp) == 12  # 5-cycles: 4!/2

    def test_interval_and_m(self):
        iv = DegreeInterval((0,) * 3, (2,) * 3)
        assert len(enumerate_graphs(3, interval=iv)) == 8
        assert len(enumerate_graphs(3, interval=iv, m=2)) == 3

    def test_bad_args(self):
        with pytest.raises(ValueError):
            enumerate_graphs(4)
        with pytest.raises(TooLarge):
            enumerate_graphs(9, d=(0,) * 9)

    def test_index_membership(self):
        sp = enumerate_graphs(4, d=(1, 1, 1, 1))
        g = sp.graph(1)
        assert sp.index_of(g) == 1
        assert g in sp
        assert Graph.empty(4) not in sp


class TestCounting:
    def test_known_counts(self):
        assert count_realizations((0, 0, 0)) == 1
        assert count_realizations((1, 1)) == 1
        assert count_realizations((2, 2, 2, 2)) == 3  # 4-cycles
        assert count_realizations((2,) * 5 ) == 12
        assert count_realizations((2,) * 6) == 70
        assert count_realizations((3,) * 6) == 70  # complement symmetry
        assert count_realizations((1, 1, 1)) == 0  # odd sum
        assert count_realizations((3, 1, 1, 1)) == 1  # star
        assert count_realizations((1, 1, -1)) == 0  # negative entry

    def test_matches_census_exhaustively_n5(self):
        for d, c in degree_class_counts(5).items():
            assert count_realizations(d) == c, d

    def test_matches_census_sampled_n6(self):
        items = sorted(degree_class_counts(6).items())
        for d, c in items[::37]:
            assert count_realizations(d) == c, d

    def test_census_classes_n7(self):
        """The class sizes of the n=7 census cover all 2^21 graphs, and a
        seeded sample of them matches the count recursion."""
        counts = degree_class_counts(7)
        assert sum(counts.values()) == 1 << 21
        assert list(counts) == sorted(counts)
        items = list(counts.items())
        for k in make_rng(7).choice(len(items), size=40, replace=False):
            d, c = items[k]
            assert count_realizations(d) == c, d

    def test_nongraphical_zero(self):
        for d in itertools.product(range(4), repeat=4):
            assert (count_realizations(d) > 0) == is_graphical(d)

    def test_cap(self):
        with pytest.raises(TooLarge):
            count_realizations((1,) * 13)

    def test_cap_on_every_entry_point(self, monkeypatch):
        """count_interval, edge_count_profile and graph_of_rank refuse a
        box above COUNT_CAP too; raising COUNT_CAP lifts it for all four."""
        lo, hi = (2,) * 13, (3,) * 13
        calls = (lambda: oracle.count_interval(lo, hi), lambda: oracle.count_interval(lo, hi, 16),
                 lambda: oracle.edge_count_profile(lo, hi), lambda: graph_of_rank(lo, hi, None, 0),
                 lambda: count_realizations(hi))
        for call in calls:
            with pytest.raises(TooLarge):
                call()
        monkeypatch.setattr(oracle, "COUNT_CAP", 13)
        for call in calls:
            call()

    def test_mismatched_bound_lengths(self):
        """Bounds of unequal lengths are refused, not cut to the shorter."""
        for call in (
            lambda: oracle.count_interval((1, 1, 5), (1, 1)),
            lambda: oracle.count_interval((1, 1), (1, 1, 5), 1),
            lambda: oracle.edge_count_profile((1, 1, 5), (1, 1)),
            lambda: graph_of_rank((1, 1, 5), (1, 1), None, 0),
        ):
            with pytest.raises(ValueError):
                call()


def _old_split_rank(items, k, q):
    """The linear scan the unrank replaced: one binomial per item."""
    take, keep = [], []
    for i, x in enumerate(items):
        j = k - len(take)
        first = math.comb(len(items) - i - 1, j - 1) if j else 0  # subsets whose next member is x
        if q < first:
            take.append(x)
        else:
            q -= first
            keep.append(x)
    return take, keep


class TestWalk:
    # SHA-256 over the sorted edge list of graph_of_rank(lo, hi, m, r) for
    # every rank r, with m = None and then every m of the profile, each m's
    # block ended by "|"; recorded before the walk was compiled into plans
    RANK_ORDER = {
        ((1,) * 5, (3,) * 5): "6a16d1c1cd61d5b374d8bfabfec2d1214a3db89e5664b4a00e24d7ba75eb0d27",
        ((2,) * 6, (3,) * 6): "7b46e2d1b8801b09ae88b0924947f991b5c6b82e1a65499f28db5a64f6581a68",
        ((0, 1, 1, 2, 2, 3), (2, 2, 3, 3, 4, 4)): "5a636d16efb357b1fc79a0ec25ea6429b52dafe0c7a2c3914dd31a775f41fefb",
        ((1,) * 7, (2,) * 7): "ab1786e32c54a0286e173ecf73fb656b04e09b0b8657554ebf9b4cfb8a098fef",
    }

    @pytest.mark.parametrize("lo, hi", RANK_ORDER)
    def test_rank_order_pinned(self, lo, hi):
        """Every rank maps to the same graph as before, for G(l,u) and
        for each G_m(l,u)."""
        import hashlib

        h = hashlib.sha256()
        profile = oracle.edge_count_profile(lo, hi)
        first = next(m for m in itertools.count() if oracle.count_interval(lo, hi, m))
        for m in [None, *range(first, first + len(profile))]:
            for r in range(oracle.count_interval(lo, hi, m)):
                h.update(repr(sorted(graph_of_rank(lo, hi, m, r).edges)).encode())
            h.update(b"|")
        assert h.hexdigest() == self.RANK_ORDER[lo, hi]

    def test_split_rank_matches_combinations(self):
        """Rank q is the q-th k-subset in itertools.combinations order, and
        the others keep their order, for every L <= 12, k and q."""
        for L in range(13):
            items = [10 * x + 1 for x in range(L)]
            for k in range(L + 1):
                size = math.comb(L, k)
                for q, want in enumerate(itertools.combinations(items, k)):
                    take, keep = oracle._split_rank(items, k, q, size)
                    assert take == list(want), (L, k, q)
                    assert keep == [x for x in items if x not in want], (L, k, q)
                assert q == size - 1

    def test_split_rank_matches_linear_scan_at_200(self):
        """On 200 labels, random ranks for k <= 6 split as the linear scan
        splits them, at both ends of the range too."""
        rng = make_rng(27)
        items = [int(x) for x in rng.permutation(400)[:200]]
        for k in range(1, 7):
            size = math.comb(200, k)
            qs = [0, size - 1] + [int(x) for x in rng.integers(0, size, size=60)]
            for q in qs:
                assert oracle._split_rank(items, k, q, size) == _old_split_rank(items, k, q), (k, q)

    def test_box_memo_keeps_the_cap(self, monkeypatch):
        """A box counted under a raised cap is refused again once the cap
        is back: the memo sits behind the cap test."""
        lo, hi = (0,) * 13, (1,) * 13
        monkeypatch.setattr(oracle, "COUNT_CAP", 13)
        assert oracle.count_interval(lo, hi) == sum(
            math.comb(13, 2 * j) * math.prod(range(2 * j - 1, 0, -2)) for j in range(7)
        )
        monkeypatch.setattr(oracle, "COUNT_CAP", 12)
        with pytest.raises(TooLarge):
            oracle.count_interval(lo, hi)

    def test_box_memo_is_shared(self):
        """The count, the profile and the walk read one memo entry, whose
        buckets are the labels of each group in label order."""
        lo, hi = (0, 2, 1, 2, 0), (1, 3, 2, 3, 0)
        b = oracle.box(lo, hi)
        assert oracle.box(list(lo), list(hi)) is b
        assert b.groups == ((0, 1, 1), (1, 2, 1), (2, 3, 2))
        assert b.buckets == ((0,), (2,), (1, 3))
        assert b.total == oracle.count_interval(lo, hi) == sum(oracle.edge_count_profile(lo, hi))
        assert [oracle.walk(b, r) for r in range(b.total)] == [graph_of_rank(lo, hi, None, r) for r in range(b.total)]


class TestMatrices:
    def test_mismatch(self):
        sp = enumerate_graphs(4, d=(1, 1, 1, 1))
        with pytest.raises(Mismatch):
            oracle.build_matrix(SwitchKernel(d=(2, 2, 2, 2)), sp)

    def test_mismatch_space_not_closed(self):
        # additions and deletions leave the m = 3 slice of the interval
        iv = DegreeInterval((0,) * 4, (2,) * 4)
        sp = enumerate_graphs(4, interval=iv, m=3)
        with pytest.raises(Mismatch):
            oracle.build_matrix(DegreeIntervalKernel(iv), sp)

    def test_not_stochastic(self):
        for form in (np.asarray, sparse.csr_matrix):
            with pytest.raises(NotStochastic):
                oracle.check_stochastic(form(np.array([[0.5, 0.4], [0.5, 0.5]])))
            with pytest.raises(NotStochastic):
                oracle.check_stochastic(form(np.array([[1.2, -0.2], [0.0, 1.0]])))
            P = form(np.array([[0.5, 0.5], [0.25, 0.75]]))
            assert oracle.check_stochastic(P) is P

    def test_two_state_gap(self):
        P = np.array([[0.75, 0.25], [0.25, 0.75]])
        assert spectral_gap(P) == pytest.approx(0.5)

    def test_tv_curve_decreases(self):
        P = np.array([[0.75, 0.25], [0.25, 0.75]])
        curve = tv_curve(P, 0, 10)
        assert curve[0] == pytest.approx(0.5)
        assert all(a >= b - 1e-12 for a, b in zip(curve, curve[1:]))
        # exact geometric decay at rate lambda_2 = 1/2
        assert curve[5] == pytest.approx(0.5 * 0.5**5)

    def test_interval_chain_symmetric_uniform(self):
        iv = DegreeInterval((1,) * 5, (2,) * 5)
        sp = enumerate_graphs(5, interval=iv)
        P = oracle.build_matrix(DegreeIntervalKernel(iv), sp).toarray()
        assert np.allclose(P, P.T)
        pi = np.full(len(sp), 1 / len(sp))
        assert np.abs(pi @ P - pi).max() < 1e-14

    def test_mixing_bound_consistent(self):
        iv = DegreeInterval((1,) * 4, (2,) * 4)
        sp = enumerate_graphs(4, interval=iv)
        P = oracle.build_matrix(DegreeIntervalKernel(iv), sp)
        gap = spectral_gap(P)
        t = int(oracle.mixing_time_bound(1 / len(sp), 1 - gap, 0.01)) + 1
        assert max(tv_curve(P, 0, t)[-1:]) <= 0.01


def eigvalsh_gap(P, pi=None):
    """1 - second largest eigenvalue of the dense symmetrization."""
    P = P.toarray() if sparse.issparse(P) else np.asarray(P, dtype=float)
    root = np.sqrt(np.full(len(P), 1.0 / len(P)) if pi is None else np.asarray(pi))
    S = (root[:, None] / root[None, :]) * P
    return float(1.0 - np.linalg.eigvalsh(0.5 * (S + S.T))[-2])


def dense_tv_curve(P, x0, t_max, pi=None):
    """TV distance from pi at t = 0..t_max, stepping dist @ P densely."""
    P = P.toarray() if sparse.issparse(P) else np.asarray(P, dtype=float)
    pi = np.full(len(P), 1.0 / len(P)) if pi is None else pi
    dist = np.zeros(len(P))
    dist[x0] = 1.0
    out = []
    for _ in range(t_max + 1):
        out.append(0.5 * float(np.abs(dist - pi).sum()))
        dist = dist @ P
    return out


def acceptance_1_matrices():
    """Every kernel of the acceptance-1 chains with its space, n = 4..6."""
    for n in range(4, 7):
        for kernel in verify.stationarity_chains(n):
            yield kernel, verify.state_space(kernel)


@pytest.fixture(scope="module")
def large_matrices():
    """Every matrix at or above the sparse crossover among the acceptance-1
    spaces ([2,3]^6, 1,760 states, the largest), plus [1,3]^6 switch-hinge
    at m = 5 (1,455 states)."""
    iv = DegreeInterval((1,) * 6, (3,) * 6)
    extra = [(SwitchHingeFlipKernel(iv, 5), enumerate_graphs(6, interval=iv, m=5))]
    out = [
        oracle.build_matrix(kernel, space)
        for kernel, space in itertools.chain(acceptance_1_matrices(), extra)
        if len(space) >= oracle.SPARSE_FROM
    ]
    assert len(out) == 29 and {1760, 1455} <= {P.shape[0] for P in out}
    return out


class TestSparsePath:
    """spectral_gap and tv_curve from SPARSE_FROM states on, against dense
    references written here."""

    def test_gaps_match_eigvalsh(self, large_matrices):
        for P in large_matrices:
            gap = spectral_gap(P)
            assert abs(gap - eigvalsh_gap(P)) <= 1e-12
            assert spectral_gap(sparse.csr_matrix(P)) == gap
            assert spectral_gap(P) == gap  # deterministic

    def test_non_uniform_pi(self):
        k = np.arange(500)
        w = np.exp(-(((k - 230) / 70.0) ** 2))  # log-concave
        assert verify_log_concave(w)[0]
        P = projection.edge_count_matrix(w)
        pi = w / w.sum()
        gap = spectral_gap(P, pi)
        assert abs(gap - eigvalsh_gap(P, pi)) <= 1e-12
        assert gap >= projection.logconcave_gap_bound(w)
        # P is not symmetric here, so this also checks the transpose
        want = dense_tv_curve(P, 0, 64, pi)
        for form in (P, sparse.csr_matrix(P)):
            assert np.abs(np.subtract(tv_curve(form, 0, 64, pi), want)).max() <= 1e-14

    def test_disconnected_chain_has_gap_zero(self, large_matrices):
        P = next(P for P in large_matrices if P.shape[0] == 540)
        two = sparse.block_diag([P, P], format="csr")
        assert abs(spectral_gap(two)) <= 1e-12
        assert abs(eigvalsh_gap(two)) <= 1e-12

    def test_tiny_matrices(self, monkeypatch):
        one = np.array([[1.0]])
        two = np.array([[0.75, 0.25], [0.25, 0.75]])
        three = np.array([[0.5, 0.5, 0.0], [0.5, 0.25, 0.25], [0.0, 0.25, 0.75]])
        for P in (one, two, three):
            for form in (P, sparse.csr_matrix(P)):
                assert spectral_gap(form) == pytest.approx(
                    1.0 if len(P) == 1 else eigvalsh_gap(P), abs=1e-12
                )
                assert tv_curve(form, 0, 6) == pytest.approx(dense_tv_curve(P, 0, 6), abs=1e-14)
        # the sparse path on a tiny matrix; ARPACK with k = 2 needs at least
        # three states
        monkeypatch.setattr(oracle, "SPARSE_FROM", 3)
        assert abs(spectral_gap(sparse.csr_matrix(three)) - eigvalsh_gap(three)) <= 1e-12
        assert tv_curve(three, 0, 6) == pytest.approx(dense_tv_curve(three, 0, 6), abs=1e-14)

    @staticmethod
    def empty_chain():
        # (1,1,1,1,1) has an odd sum, so G(d) is empty and P is 0 x 0
        d = (1,) * 5
        P = oracle.build_matrix(SwitchKernel(d=d), enumerate_graphs(5, d=d))
        assert P.shape == (0, 0)
        return P

    def test_empty_chain_gap(self):
        with pytest.raises(ValueError, match="no states"):
            spectral_gap(self.empty_chain())

    def test_empty_chain_tv_curve(self):
        with pytest.raises(ValueError, match="no states"):
            tv_curve(self.empty_chain(), 0, 4)

    def test_tv_curve_spans_row_blocks(self, large_matrices, monkeypatch):
        """Curves that fill several row blocks, on the dense path (112
        states, 585 rows a block) and on the CSR path (1,760 states, 37 rows
        a block), each given as CSR and as an array, then with blocks of one
        row."""
        iv = DegreeInterval((1,) * 5, (2,) * 5)
        small = oracle.build_matrix(DegreeIntervalKernel(iv), enumerate_graphs(5, interval=iv))
        large = next(P for P in large_matrices if P.shape[0] == 1760)
        cases = [(small, 1300), (large, 100)]
        for P, t_max in cases:
            assert t_max + 1 > 2 * (oracle._BLOCK_CELLS // P.shape[0])
        for cells in (oracle._BLOCK_CELLS, 1):
            monkeypatch.setattr(oracle, "_BLOCK_CELLS", cells)
            for P, t_max in cases:
                x0 = P.shape[0] // 3
                want = dense_tv_curve(P, x0, t_max)
                for form in (P, P.toarray()):
                    got = tv_curve(form, x0, t_max)
                    assert len(got) == t_max + 1
                    assert np.abs(np.subtract(got, want)).max() <= 1e-14

    def test_tv_curves_match(self, large_matrices):
        for P in large_matrices[::4]:
            x0 = P.shape[0] // 3
            want = dense_tv_curve(P, x0, 32)
            for form in (P, P.toarray()):
                assert np.abs(np.subtract(tv_curve(form, x0, 32), want)).max() <= 1e-14

    def test_never_densifies(self, monkeypatch):
        iv = DegreeInterval((1,) * 6, (3,) * 6)
        space = enumerate_graphs(6, interval=iv)
        P = oracle.build_matrix(DegreeIntervalKernel(iv), space)
        assert sparse.issparse(P) and P.shape == (8285, 8285)  # above DENSE_LIMIT

        # sparse matrices below SPARSE_FROM states may go dense, none larger
        for cls in (sparse.csr_matrix, sparse.csc_matrix, sparse.coo_matrix,
                    sparse.csr_array, sparse.csc_array, sparse.coo_array):
            for name in ("toarray", "todense"):
                def refuse(self, *args, _real=getattr(cls, name), **kwargs):
                    if max(self.shape) >= oracle.SPARSE_FROM:
                        raise AssertionError("densified")
                    return _real(self, *args, **kwargs)

                monkeypatch.setattr(cls, name, refuse)
        gap = spectral_gap(P)
        assert 0 < gap < 1
        curve = tv_curve(P, 0, 40)
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))
        size = P.shape[0]
        for t, d in enumerate(curve):
            assert d <= 0.5 * math.sqrt(size - 1) * (1 - gap) ** t + 1e-9
        bad = P.copy()
        bad.data[0] = -bad.data[0]
        with pytest.raises(NotStochastic):
            spectral_gap(bad)
        # the interval chain by edge count: seven blocks, the largest 2,800 states
        masses = oracle._popcount(space.masks)
        rep = verify_martin_randall(P, [np.flatnonzero(masses == m) for m in np.unique(masses)])
        assert rep["holds"] and rep["gap"] == gap and rep["num_blocks"] == 7
        assert not rep["disconnected_blocks"]
        # a birth-death chain on 300 states, in CSR
        k = np.arange(300)
        B = projection.edge_count_matrix(np.exp(-(((k - 130) / 40.0) ** 2)))
        rep = congestion_check(sparse.csr_matrix(B))
        assert rep["holds"] and rep == pytest.approx(congestion_check(B), rel=1e-12)


class TestCongestion:
    def test_birth_death_bound(self):
        w = [1.0, 4.0, 6.0, 4.0, 1.0]
        from degmc.projection import edge_count_matrix

        P = edge_count_matrix(w)
        pi = np.array(w) / sum(w)
        rep = congestion_check(P, pi)
        assert rep["holds"]
        assert rep["gap"] >= 1.0 / rep["bound"]

    def test_detailed_balance_pi(self):
        """Without pi, the law comes from detailed balance along the path."""
        k = np.arange(60)
        for w in ([1.0, 4.0, 6.0, 4.0, 1.0], np.exp(-(((k - 23) / 9.0) ** 2))):
            P = projection.edge_count_matrix(w)
            assert congestion_check(P) == pytest.approx(congestion_check(P, np.asarray(w) / np.sum(w)))

    def test_sigma_matches_cut_loop(self):
        """sigma against a loop over the cuts, for a pi that is not in
        detailed balance, so the two directions of a cut differ."""
        P = projection.edge_count_matrix([1.0, 3.0, 5.0, 4.0, 2.0, 1.0])
        pi = np.array([0.1, 0.3, 0.1, 0.2, 0.2, 0.1])
        sigma = 0.0
        for z in range(len(pi) - 1):
            flow = pi[: z + 1].sum() * pi[z + 1 :].sum()
            sigma = max(sigma, flow / (pi[z] * P[z, z + 1]), flow / (pi[z + 1] * P[z + 1, z]))
        for form in (P, sparse.csr_matrix(P)):
            assert congestion_check(form, pi)["sigma"] == pytest.approx(sigma, rel=1e-14)

    def test_checks_stochasticity_once(self, monkeypatch):
        """congestion_check and verify_martin_randall check P once (the
        latter also checks its smaller restriction and projection chains);
        the gap they report is spectral_gap's."""
        calls = []
        real = oracle.check_stochastic
        monkeypatch.setattr(oracle, "check_stochastic", lambda P, tol=1e-12: calls.append(P.shape) or real(P, tol))
        w = [1.0, 4.0, 6.0, 4.0, 1.0]
        P = projection.edge_count_matrix(w)
        for form in (P, sparse.csr_matrix(P)):
            calls.clear()
            rep = congestion_check(form, np.array(w) / sum(w))
            assert calls == [(5, 5)] and rep["gap"] == spectral_gap(P, np.array(w) / sum(w))
            calls.clear()
            rep = verify_martin_randall(form, [[0, 1], [2, 3, 4]])
            assert calls.count((5, 5)) == 1 and rep["gap"] == spectral_gap(P)

    def test_rejects_non_birth_death(self):
        for form in (np.asarray, sparse.csr_matrix):
            with pytest.raises(ValueError, match="birth-death"):
                congestion_check(form(np.full((3, 3), 1 / 3)))


class TestToggles:
    """The toggle patterns read off the in-place moves, against closed forms."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_closed_forms(self, n):
        # (move, directed entries, ordered tuples firing each, bits in a, b)
        expected = (
            ("switch", 6 * math.comb(n, 4), 4, (2, 2)),
            ("hinge", n * (n - 1) * (n - 2), 1, (1, 1)),
            ("add_delete", n * (n - 1), 2, None),
        )
        for move, entries, tuples, bits in expected:
            arity = MOVES[move][1]
            rows = [(t, a, b, c) for t, group in oracle._toggles(n, move) for a, b, c in group]
            assert len(rows) == entries
            assert len({t for t, *_ in rows}) == entries // 2
            assert {c for *_, c in rows} <= {tuples}
            # every injective tuple fires exactly one change (add/delete: one
            # from each side of its pair)
            per_tuple = 2 if move == "add_delete" else 1
            assert sum(c for *_, c in rows) == per_tuple * math.perm(n, arity)
            for t, a, b, _ in rows:
                assert a | b == t and a & b == 0
                if bits:
                    assert (a.bit_count(), b.bit_count()) == bits
                else:
                    assert sorted((a.bit_count(), b.bit_count())) == [0, 1]
            # state_graph_components walks only the changes with a < b
            for _, group in oracle._toggles(n, move):
                tuples = {(a, b): c for a, b, c in group}
                assert all(tuples.get((b, a)) == c for (a, b), c in tuples.items())


class TestSharedPass:
    """build_matrix and state_graph_components read one change table in one
    blocked pass."""

    @staticmethod
    def kernels():
        """The kernels of acceptance 1, then all three kernels on [1,3]^6."""
        for n in range(4, 7):
            yield from verify.stationarity_chains(n)
        iv = DegreeInterval((1,) * 6, (3,) * 6)
        yield DegreeIntervalKernel(iv)
        for m in projection.feasible_edge_counts(iv):
            yield SwitchHingeFlipKernel(iv, m)
        yield SwitchKernel(d=(3, 3, 2, 2, 1, 1))

    def test_components_are_the_matrix_support(self):
        seen = 0
        for kernel in self.kernels():
            space = verify.state_space(kernel)
            P = oracle.build_matrix(kernel, space)
            assert P.has_canonical_format
            off = P - sparse.diags(P.diagonal())
            off.eliminate_zeros()
            ncomp, labels = csgraph.connected_components(off, directed=False)
            got = state_graph_components(space, tuple(kernel.move_probabilities()))
            assert got[0] == ncomp and np.array_equal(got[1], labels)
            seen += len(space) > 4096
        assert seen  # the [1,3]^6 interval chain

    def test_rows_at_block_boundaries(self):
        iv = DegreeInterval((1,) * 6, (2,) * 6)
        kernel = DegreeIntervalKernel(iv)
        space = enumerate_graphs(6, interval=iv)
        ch = oracle._change_table(6, tuple(kernel.move_probabilities().items()))
        # every state takes the hold, so each block's first state leads it
        starts = [int(src[0]) for src, _ in oracle._matches(space.masks, ch.toggle, ch.before)]
        assert starts[0] == 0 and len(starts) >= 3
        P = oracle.build_matrix(kernel, space)
        terms = 1 + sum(6 ** MOVES[move][1] for move in kernel.move_probabilities())
        for i in (s + k for s in starts[1:] for k in (-1, 0)):
            ref = np.zeros(len(space))
            for g, p in oracle.transition_row_reference(kernel, space.graph(i)).items():
                ref[space.index_of(g)] += p
            row = P[[i]].toarray().ravel()
            off = np.arange(len(space)) != i
            assert row[off] == pytest.approx(ref[off], abs=1e-15)
            assert row[i] == pytest.approx(ref[i], abs=terms * np.finfo(float).eps)

    def test_diagonal_subtracts_move_by_move(self):
        # the diagonal is 1 - w - w - ..., one entry at a time in MOVES
        # order, and each move fires with one weight, p * tuples / n^arity
        n, iv = 6, DegreeInterval((1,) * 6, (2,) * 6)
        kernel = DegreeIntervalKernel(iv)
        probs, tuples = kernel.move_probabilities(), {"add_delete": 2, "hinge": 1, "switch": 4}
        weights = [probs[move] * tuples[move] / n**arity for move, (_, arity) in MOVES.items()]
        P = oracle.build_matrix(kernel, enumerate_graphs(n, interval=iv))
        for i in range(P.shape[0]):
            row = P.getrow(i)
            entries = Counter(row.data[row.indices != i].tolist())
            assert sum(entries.values()) == sum(entries[w] for w in weights)
            x = 1.0
            for w in weights:
                for _ in range(entries[w]):
                    x -= w
            assert P[i, i] == x

    def test_missing_late_state(self):
        iv = DegreeInterval((1,) * 6, (3,) * 6)
        full = enumerate_graphs(6, interval=iv)
        with pytest.raises(Mismatch):
            oracle.build_matrix(DegreeIntervalKernel(iv), oracle.StateSpace(6, full.masks[:-1]))

    def test_unknown_move(self):
        sp = enumerate_graphs(4, d=(1, 1, 1, 1))
        with pytest.raises(ValueError, match="swap"):
            state_graph_components(sp, moves=("swap",))
        with pytest.raises(ValueError, match="swap"):
            state_graph_components(oracle.StateSpace(4, np.empty(0, dtype=np.int64)), moves=("swap",))

    @pytest.mark.parametrize("n,lo,hi", [(3, 0, 2), (5, 1, 2), (8, 2, 3)])
    def test_ranker_matches_searchsorted(self, n, lo, hi):
        masks = enumerate_graphs(n, interval=DegreeInterval((lo,) * n, (hi,) * n)).masks
        rng = np.random.default_rng(n)
        targets = np.concatenate(
            [rng.integers(0, 1 << n * (n - 1) // 2, 2000), masks[rng.integers(0, len(masks), 2000)]]
        )
        rows, member = oracle._ranker(masks, n)(targets)
        assert np.array_equal(member, np.isin(targets, masks))
        assert member.any() and np.array_equal(rows[member], np.searchsorted(masks, targets[member]))

    def test_ranker_cap(self):
        with pytest.raises(TooLarge):
            oracle._ranker(np.zeros(1, dtype=np.int64), 9)


class TestComponents:
    def test_switch_components_regular(self):
        for n, r in [(5, 2), (6, 2), (6, 3)]:
            sp = enumerate_graphs(n, d=(r,) * n)
            ncomp, _ = state_graph_components(sp, moves=("switch",))
            assert ncomp == 1

    def test_interval_chain_connected(self):
        iv = DegreeInterval((1,) * 6, (2,) * 6)
        sp = enumerate_graphs(6, interval=iv)
        ncomp, _ = state_graph_components(sp)
        assert ncomp == 1

    def test_detects_disconnection(self):
        # only add/delete moves between two perfect matchings: no path
        sp = enumerate_graphs(4, d=(1, 1, 1, 1))
        ncomp, _ = state_graph_components(sp, moves=("add_delete",))
        assert ncomp == 3

    MOVE_SETS = [moves for k in range(1, 4) for moves in itertools.combinations(MOVES, k)]

    @staticmethod
    def assert_matches_scipy(space, moves):
        got = state_graph_components(space, moves)
        want = scipy_components(space, moves)
        assert got[0] == want[0] and np.array_equal(got[1], want[1]), (space.description, moves)
        assert got[1].dtype == np.int32
        return got[0]

    def test_matches_scipy_on_the_kernel_spaces(self):
        """Every space of TestSharedPass.kernels() under every nonempty set
        of moves, most of them disconnected."""
        split = 0
        for kernel in TestSharedPass.kernels():
            space = verify.state_space(kernel)
            for moves in self.MOVE_SETS:
                split += self.assert_matches_scipy(space, moves) > 1
        assert split

    @given(enumeration_cases(), st.sampled_from(MOVE_SETS))
    @settings(max_examples=150, deadline=None)
    def test_matches_scipy_on_enumerated_spaces(self, case, moves):
        n, d, iv, m = case
        self.assert_matches_scipy(enumerate_graphs(n, d=d, interval=iv, m=m), moves)

    def test_switch_only_splits_degree_sequences(self):
        """The switch keeps degrees, so on a box with several degree
        sequences each sequence is a union of components."""
        for lo, hi, n in [(1, 2, 5), (1, 3, 6), (2, 3, 6)]:
            space = enumerate_graphs(n, interval=DegreeInterval((lo,) * n, (hi,) * n))
            ncomp = self.assert_matches_scipy(space, ("switch",))
            assert ncomp >= len(np.unique(space.degrees(), axis=0)) > 1

    def test_random_subspaces(self):
        """Seeded random halves of [1,3]^6: many components, some single states."""
        full = enumerate_graphs(6, interval=DegreeInterval((1,) * 6, (3,) * 6))
        rng = np.random.default_rng(5)
        for keep in (0.05, 0.3, 0.6):
            space = oracle.StateSpace(6, full.masks[rng.random(len(full)) < keep])
            for moves in self.MOVE_SETS:
                self.assert_matches_scipy(space, moves)

    def test_space_without_pairs(self):
        """No state reaches another: every state is its own component."""
        for space, moves in [
            (enumerate_graphs(4, d=(1, 1, 1, 1)), ("hinge",)),  # a hinge flip moves degrees
            (oracle.StateSpace(4, np.array([0, 3, 12, 48], dtype=np.int64)), tuple(MOVES)),
            (oracle.StateSpace(5, np.array([7], dtype=np.int64)), tuple(MOVES)),
        ]:
            ncomp, labels = state_graph_components(space, moves)
            assert ncomp == len(space) and np.array_equal(labels, np.arange(len(space)))
            self.assert_matches_scipy(space, moves)

    @staticmethod
    def snake(bits, length, rng):
        """Masks of an induced path in the cube of `bits` bits, in path
        order: each flips one bit of the last, and is next to no earlier
        mask but the last."""
        path, seen = [0], {0}
        while len(path) < length:
            cur = path[-1]
            steps = [cur ^ 1 << b for b in range(bits)]
            free = [x for x in steps if x not in seen and all(x ^ 1 << c in (cur,) or x ^ 1 << c not in seen
                                                              for c in range(bits))]
            if not free:
                break
            path.append(free[rng.integers(len(free))])
            seen.add(path[-1])
        return path

    def test_path_shaped_state_graphs(self):
        """Additions and deletions along an induced path of masks make a
        path-shaped state graph, its states out of path order: the
        propagation ends with one component.  Cut at every 40th state it
        falls into paths, which must match scipy's components."""
        path = self.snake(21, 1500, np.random.default_rng(2))
        assert len(path) == 1500
        space = oracle.StateSpace(7, np.sort(np.array(path, dtype=np.int64)))
        ncomp, labels = state_graph_components(space, ("add_delete",))
        assert ncomp == 1 and not labels.any()
        cut = oracle.StateSpace(7, np.sort(np.array([x for k, x in enumerate(path) if k % 40 != 39])))
        assert self.assert_matches_scipy(cut, ("add_delete",)) == 38
        line = oracle.StateSpace(5, np.array([(1 << k) - 1 for k in range(11)], dtype=np.int64))
        ncomp, labels = state_graph_components(line, ("add_delete",))
        assert ncomp == 1 and not labels.any()


def scipy_components(space, moves):
    """(ncomp, labels) of the state graph from scipy's connected_components,
    the reference for state_graph_components: the adjacency is built here
    from every firing change of the moves' table, at once over the whole
    space, with targets found by np.isin and searchsorted."""
    ch = oracle._change_table(space.n, tuple((move, 1.0) for move in moves))
    masks = space.masks
    src, c = np.nonzero(((masks[:, None] & ch.toggle) == ch.before) & (ch.delta != 0))
    dst = masks[src] + ch.delta[c]
    inside = np.isin(dst, masks)
    rows, cols = src[inside], np.searchsorted(masks, dst[inside])
    adj = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(masks), len(masks)))
    return csgraph.connected_components(adj, directed=False)


def _seeded_graph(rng, n, p):
    """A graph on n nodes with each pair an edge with probability p."""
    return Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


class TestAlternatingPaths:
    # SHA-256 over the nodes (or None) of find_alternating_path(g, u, v, k)
    # on 60 seeded graphs per n = 2..8, each with its own edge density, for
    # every ordered (u, v) and k in (2, 6, 10): 30,240 queries, recorded
    # before the search was rewritten
    PINNED = "33c67180f33484c0c5acce9a0410151ca5caffdc86e8f4bb3abc9c5aeb9f2ac7"

    def test_outputs_pinned(self):
        h = hashlib.sha256()
        for n in range(2, 9):
            rng = make_rng(n)
            for _ in range(60):
                g = _seeded_graph(rng, n, rng.random())
                for u, v in itertools.permutations(range(n), 2):
                    for k in (2, 6, 10):
                        p = find_alternating_path(g, u, v, k)
                        h.update(repr(None if p is None else p.nodes).encode())
        assert h.hexdigest() == self.PINNED

    def test_direct_path(self):
        g = Graph.from_edges(3, [(0, 1)])
        p = find_alternating_path(g, 0, 2, 10)
        assert p is not None and p.length == 2
        assert p.is_valid(g)
        g2 = p.flip(g)
        # flip moves the degree unit from node 0 to node 2
        assert g2.degree_sequence() == (0, 1, 1)

    def test_no_path_in_complete_graph(self):
        # every pair is an edge, so no step can end with a non-edge
        g = Graph.complete(4)
        assert find_alternating_path(g, 0, 1, 10) is None

    def test_path_respects_bound(self):
        rng = make_rng(3)
        for _ in range(20):
            edges = [e for e in itertools.combinations(range(6), 2) if rng.random() < 0.5]
            g = Graph.from_edges(6, edges)
            for u, v in [(0, 1), (2, 5)]:
                p = find_alternating_path(g, u, v, 6)
                if p is not None:
                    assert p.length <= 6 and p.is_valid(g)

    # SHA-256 over the JSON of verify.run("stability", range(4, 7)), 7,944
    # records; recorded before the search was rewritten
    STABILITY = "6f0d492a0149299ca06de15884b03907d14c64d708183c6704f35e67f74f536d"

    def test_stability_records_pinned(self):
        records = verify.run("stability", range(4, 7))
        assert len(records) == 7944
        blob = json.dumps(records, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == self.STABILITY

    def test_stability_condition(self):
        assert strongly_stable_condition((2, 2, 2, 2, 2, 2))
        assert not strongly_stable_condition((5, 1, 1, 1, 1, 1))


class TestCanonicalDecomposition:
    # SHA-256 over repr(canonical_decomposition(g, g2)) on 500 seeded pairs
    # per n = 2..8, each pair with its own edge density; recorded before the
    # decomposition was rewritten
    PINNED = "0436970644d82d0f64868131ef2430f99976fc9095e31137652d00ec8949823a"

    def test_outputs_pinned(self):
        h = hashlib.sha256()
        for n in range(2, 9):
            rng = make_rng(100 + n)
            for _ in range(500):
                p = rng.random()
                g, g2 = _seeded_graph(rng, n, p), _seeded_graph(rng, n, p)
                h.update(repr(canonical_decomposition(g, g2)).encode())
        assert h.hexdigest() == self.PINNED

    def test_pure_cycle(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        g2 = Graph.from_edges(4, [(0, 2), (1, 3)])
        dec = canonical_decomposition(g, g2)
        assert len(dec["cycles"]) == 1
        assert not dec["even_paths"] and not dec["g_paths"] and not dec["g2_paths"]
        assert len(dec["cycles"][0]) == 4

    def test_single_edge_is_g_path(self):
        g = Graph.from_edges(3, [(0, 1)])
        g2 = Graph.empty(3)
        dec = canonical_decomposition(g, g2)
        assert dec["g_paths"] == [[(0, 1)]]

    def test_component_edge_partition(self):
        rng = make_rng(9)
        for _ in range(30):
            e1 = [e for e in itertools.combinations(range(6), 2) if rng.random() < 0.5]
            e2 = [e for e in itertools.combinations(range(6), 2) if rng.random() < 0.5]
            g, g2 = Graph.from_edges(6, e1), Graph.from_edges(6, e2)
            dec = canonical_decomposition(g, g2)
            comps = dec["cycles"] + dec["even_paths"] + dec["g_paths"] + dec["g2_paths"]
            flat = [e for c in comps for e in c]
            assert sorted(flat) == sorted(g.edges ^ g2.edges)

    def test_two_extra_edges_two_g_paths(self):
        """|E(G)| = |E(G2)| + 2 forces two more surplus paths than deficit."""
        rng = make_rng(17)
        tries = 0
        while tries < 50:
            e2 = [e for e in itertools.combinations(range(6), 2) if rng.random() < 0.4]
            g2 = Graph.from_edges(6, e2)
            spare = [e for e in itertools.combinations(range(6), 2) if not g2.has_edge(*e)]
            if len(spare) < 2:
                continue
            pick = rng.choice(len(spare), size=2, replace=False)
            g = g2.with_edges(add=[spare[int(pick[0])], spare[int(pick[1])]])
            dec = canonical_decomposition(g, g2)
            assert len(dec["g_paths"]) == len(dec["g2_paths"]) + 2
            tries += 1


class TestLogConcavity:
    def test_verify(self):
        assert verify_log_concave([1, 4, 6, 4, 1]) == (True, None)
        ok, where = verify_log_concave([1, 1, 4, 1])
        assert not ok and where == 1
        with pytest.raises(ValueError):
            verify_log_concave([1, -1, 1])

    @pytest.mark.parametrize("lo, n", [(2, 8), (3, 12)])
    def test_profiles_past_the_census(self, lo, n):
        """Profiles come from the count recursion, so the log-concavity and
        congestion checks run on boxes the n <= 7 census does not hold."""
        iv = DegreeInterval((lo,) * n, (lo + 1,) * n)
        for check, size in ((verify.check_logconcave, 1), (verify.check_congestion, 2)):
            records = check(iv)
            assert len(records) == size and all(r["pass"] for r in records)

    def test_profile_cap(self):
        iv = DegreeInterval((2,) * 13, (3,) * 13)
        for check in (verify.check_logconcave, verify.check_congestion):
            with pytest.raises(TooLarge):
                check(iv)


def dense_verify_martin_randall(P, partition, pi=None):
    """The decomposition check on a dense P by scans of each block pair."""
    P = np.asarray(P, dtype=float)
    size = P.shape[0]
    if pi is None:
        pi = np.full(size, 1.0 / size)
    pi = np.asarray(pi, dtype=float)
    q = len(partition)

    off = P.copy()
    np.fill_diagonal(off, 0.0)
    positive = off > 0
    beta = float(off[positive].min()) if positive.any() else 1.0

    block_pi = np.array([pi[np.asarray(idxs, dtype=int)].sum() for idxs in partition])

    # adjacency and boundary masses between blocks
    adj_blocks = set()
    gamma = 1.0
    disconnected = []
    for i in range(q):
        idx_i = np.asarray(partition[i], dtype=int)
        for j in range(q):
            if i == j:
                continue
            idx_j = np.asarray(partition[j], dtype=int)
            reach = positive[np.ix_(idx_i, idx_j)].any(axis=0)
            if reach.any():
                adj_blocks.add((i, j))
                boundary_mass = float(pi[idx_j[reach]].sum())
                gamma = min(gamma, boundary_mass / block_pi[j])

    # restriction chains
    restriction_gaps = []
    for i in range(q):
        idx = np.asarray(partition[i], dtype=int)
        sub = P[np.ix_(idx, idx)].copy()
        np.fill_diagonal(sub, 0.0)
        diag = 1.0 - sub.sum(axis=1)
        sub[np.diag_indices_from(sub)] = diag
        sub_pi = pi[idx] / pi[idx].sum()
        ncomp, _ = csgraph.connected_components(sparse.coo_matrix(sub > 0), directed=False)
        if ncomp > 1:
            disconnected.append(i)
        restriction_gaps.append(spectral_gap(sub, sub_pi) if len(idx) > 1 else 1.0)

    # Metropolis-Hastings projection chain
    if q == 1:
        gap_mh = 1.0
    else:
        out_deg = np.zeros(q, dtype=int)
        for (i, j) in adj_blocks:
            out_deg[i] += 1
        delta = int(out_deg.max()) if out_deg.max() > 0 else 1
        P_mh = np.zeros((q, q))
        for (i, j) in adj_blocks:
            P_mh[i, j] = min(1.0, block_pi[j] / block_pi[i]) / (2.0 * delta)
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


class TestMartinRandall:
    @staticmethod
    def assert_agree(rep, want):
        """Floats within 1e-12 relative, everything else equal."""
        assert rep.keys() == want.keys()
        for key, x in want.items():
            if isinstance(x, float):
                assert abs(rep[key] - x) <= 1e-12 * abs(x), key
            else:
                assert rep[key] == x, key

    def test_suite_matches_dense_reference(self, monkeypatch):
        """Every decomposition the suite builds at n = 4, 5, both levels."""
        real, calls = oracle.verify_martin_randall, []

        def record(P, partition, pi=None):
            rep = real(P, partition, pi)
            calls.append((P, partition, rep))
            return rep

        monkeypatch.setattr(oracle, "verify_martin_randall", record)
        assert len(verify.run("martinrandall", range(4, 6))) == len(calls) > 50
        for P, partition, rep in calls:
            assert sparse.issparse(P)
            self.assert_agree(rep, dense_verify_martin_randall(P.toarray(), partition))

    def test_small_chains_match_dense_reference(self):
        path = np.array([[0.75, 0.25, 0, 0], [0.25, 0.5, 0.25, 0], [0, 0.25, 0.5, 0.25], [0, 0, 0.25, 0.75]])
        iv = DegreeInterval((1,) * 5, (2,) * 5)
        sp = enumerate_graphs(5, interval=iv)
        masses = oracle._popcount(sp.masks)
        by_edges = [np.flatnonzero(masses == m) for m in np.unique(masses)]
        # a Metropolis chain of the symmetric interval chain, reversible for a
        # non-uniform pi
        pi = np.random.default_rng(3).uniform(0.5, 2.0, len(sp))
        pi /= pi.sum()
        M = oracle.build_matrix(DegreeIntervalKernel(iv), sp).toarray() * np.minimum(1.0, pi / pi[:, None])
        np.fill_diagonal(M, 0.0)
        np.fill_diagonal(M, 1.0 - M.sum(axis=1))
        # state 2 is reached from both states of the other block, state 3 from neither
        fan = np.array([[0.5, 0.25, 0.25, 0], [0.25, 0.5, 0.25, 0], [0.25, 0.25, 0.25, 0.25], [0, 0, 0.25, 0.75]])
        cases = [
            (path, [[0, 1, 2, 3]], None),
            (path, [[0, 1], [2, 3]], None),
            (path, [[0, 2], [3, 1]], None),  # both blocks disconnected
            (fan, [[0, 1], [2, 3]], None),
            (M, by_edges, pi),
        ]
        for P, partition, pi in cases:
            want = dense_verify_martin_randall(P, partition, pi)
            for form in (P, sparse.csr_matrix(P)):
                self.assert_agree(verify_martin_randall(form, partition, pi), want)
        assert dense_verify_martin_randall(path, [[0, 2], [3, 1]])["disconnected_blocks"] == [0, 1]
        assert dense_verify_martin_randall(fan, [[0, 1], [2, 3]])["gamma"] == 0.5

    def test_interval_chain_by_edge_count(self):
        iv = DegreeInterval((1,) * 5, (2,) * 5)
        sp = enumerate_graphs(5, interval=iv)
        P = oracle.build_matrix(DegreeIntervalKernel(iv), sp).toarray()
        masses = oracle._popcount(sp.masks).astype(int)
        partition = [
            list(np.nonzero(masses == m)[0]) for m in sorted(set(masses.tolist()))
        ]
        rep = verify_martin_randall(P, partition)
        assert rep["holds"]
        assert rep["gap"] >= rep["rhs"] > 0
        assert not rep["disconnected_blocks"]

    def test_single_block(self):
        P = np.array([[0.75, 0.25], [0.25, 0.75]])
        rep = verify_martin_randall(P, [[0, 1]])
        assert rep["holds"] and rep["gap_projection"] == 1.0
