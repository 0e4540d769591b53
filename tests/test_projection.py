"""Projected chains: degree-sequence walks and the edge-count walk."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from degmc import oracle
from degmc.chains import make_rng
from degmc.graphs import DegreeInterval, _feasible_sequence
from degmc.projection import (
    DegreeSpace,
    MixedSums,
    NotPositive,
    check_m_convex,
    edge_count_matrix,
    edge_count_step,
    enumerate_degree_vectors,
    feasible_edge_counts,
    hinge_projection_matrix,
    hinge_projection_step,
    load_exchange_matrix,
    load_exchange_step,
    logconcave_gap_bound,
)
from degmc.weights import slc_log_weight

IV5 = DegreeInterval((1,) * 5, (3,) * 5)


class TestEnumeration:
    def test_degree_vectors_brute_force(self):
        iv = DegreeInterval((0, 1, 0), (2, 2, 1))
        for m in range(0, 4):
            ref = [
                d
                for d in itertools.product(range(0, 3), range(1, 3), range(0, 2))
                if sum(d) == 2 * m
            ]
            assert sorted(enumerate_degree_vectors(iv, m)) == sorted(ref)

    def test_feasible_edge_counts(self):
        assert feasible_edge_counts(IV5) == [3, 4, 5, 6, 7]
        # odd lower-bound sum starts at the ceiling
        iv = DegreeInterval((1, 1, 1, 1, 1), (2, 2, 2, 2, 2))
        assert feasible_edge_counts(iv)[0] == 3

    def test_degree_space_filters_nongraphical(self):
        sp = DegreeSpace(IV5, 3)
        for d in sp.elements():
            assert oracle.count_realizations(d) > 0
        assert len(sp) == len(set(sp.elements()))


@pytest.fixture(scope="module")
def hinge_space():
    return DegreeSpace(IV5, 4)


@pytest.fixture(scope="module")
def exchange_space():
    return DegreeSpace(IV5, 5)


class TestHingeProjection:
    @pytest.fixture
    def space(self, hinge_space):
        return hinge_space

    def test_stationary_proportional_to_counts(self, space):
        P = hinge_projection_matrix(space)
        assert np.allclose(P.sum(axis=1), 1.0)
        counts = np.array([oracle.count_realizations(d) for d in space.elements()], float)
        pi = counts / counts.sum()
        assert np.abs(pi @ P - pi).max() < 1e-12
        # detailed balance
        F = pi[:, None] * P
        assert np.allclose(F, F.T)

    def test_step_matches_matrix(self, space):
        P = hinge_projection_matrix(space)
        d = space.elements()[2]
        a = space.index()[d]
        rng = make_rng(21)
        c = Counter()
        N = 30000
        for _ in range(N):
            c[hinge_projection_step(d, space, rng)] += 1
        for d2, k in c.items():
            b = space.index()[d2]
            se = 4 * math.sqrt(P[a, b] * (1 - P[a, b]) / N) + 1e-3
            assert k / N == pytest.approx(P[a, b], abs=se)


class TestLoadExchange:
    @pytest.fixture
    def space(self, exchange_space):
        return exchange_space

    def test_reversible_same_stationary(self, space):
        L = load_exchange_matrix(space)
        assert np.allclose(L.sum(axis=1), 1.0)
        pi = space.stationary()
        assert np.abs(pi @ L - pi).max() < 1e-12
        F = pi[:, None] * L
        assert np.allclose(F, F.T)

    def test_step_matches_matrix(self, space):
        L = load_exchange_matrix(space)
        d = space.elements()[0]
        a = space.index()[d]
        rng = make_rng(4)
        c = Counter()
        N = 30000
        for _ in range(N):
            c[load_exchange_step(d, space, rng)] += 1
        for d2, k in c.items():
            b = space.index()[d2]
            se = 4 * math.sqrt(L[a, b] * (1 - L[a, b]) / N) + 1e-3
            assert k / N == pytest.approx(L[a, b], abs=se)

    def test_comparable_to_hinge_projection(self, space):
        """Off-diagonal supports coincide; entries agree within n^3."""
        H = hinge_projection_matrix(space)
        L = load_exchange_matrix(space)
        n = space.n
        off = ~np.eye(len(space), dtype=bool)
        assert ((H[off] > 0) == (L[off] > 0)).all()
        mask = off & (H > 0)
        ratio = np.maximum(H[mask] / L[mask], L[mask] / H[mask])
        assert ratio.max() <= n**3


class TestOnDemand:
    def test_steps_do_not_enumerate(self, monkeypatch):
        """Both steps run on an n=300 slice without enumerating it."""
        def refuse(*args):
            raise AssertionError("the slice was enumerated")

        monkeypatch.setattr("degmc.projection.enumerate_degree_vectors", refuse)
        rng = np.random.default_rng(0)
        lower = rng.integers(4, 6, size=300)
        iv = DegreeInterval(tuple(lower), tuple(lower + rng.integers(0, 2, size=300)))
        m = (sum(iv.lower) + sum(iv.upper)) // 4
        space = DegreeSpace(iv, m, slc_log_weight)
        d = _feasible_sequence(iv, m)
        rng = make_rng(3)
        for step, steps in ((hinge_projection_step, 1000), (load_exchange_step, 50)):
            for _ in range(steps):
                d = step(d, space, rng)
                assert iv.contains(d) and sum(d) == 2 * m
        assert d in space


class TestEdgeCountChain:
    def test_matrix_form(self):
        w = [1.0, 2.0, 2.0, 1.0]
        P = edge_count_matrix(w)
        assert P[0, 1] == pytest.approx(0.25)
        assert P[1, 0] == pytest.approx(0.25 * 0.5)
        assert np.allclose(P.sum(axis=1), 1.0)
        pi = np.array(w) / sum(w)
        assert np.abs(pi @ P - pi).max() < 1e-14

    def test_rejects_nonpositive(self):
        with pytest.raises(NotPositive):
            edge_count_matrix([1.0, 0.0, 1.0])

    def test_step_matches_matrix(self):
        w = [1.0, 3.0, 1.0]
        P = edge_count_matrix(w)
        rng = make_rng(8)
        c = Counter()
        N = 30000
        for _ in range(N):
            c[edge_count_step(1, w, rng)] += 1
        for j, k in c.items():
            se = 4 * math.sqrt(P[1, j] * (1 - P[1, j]) / N) + 1e-3
            assert k / N == pytest.approx(P[1, j], abs=se)

    def test_gap_bound_holds_on_real_profiles(self):
        for iv in (IV5, DegreeInterval((1,) * 6, (2,) * 6)):
            from degmc.counting import exact_interval_count

            w = [exact_interval_count(iv, m) for m in feasible_edge_counts(iv)]
            assert oracle.verify_log_concave(w)[0]
            P = edge_count_matrix(w)
            pi = np.array(w, float) / sum(w)
            assert oracle.spectral_gap(P, pi) >= logconcave_gap_bound(w)

    def test_bound_edge_cases(self):
        assert logconcave_gap_bound([5.0]) == 1.0
        with pytest.raises(NotPositive):
            logconcave_gap_bound([1.0, -2.0])


class TestMConvexity:
    def test_box_slice_is_m_convex(self):
        for m in (3, 4, 5):
            pts = enumerate_degree_vectors(IV5, m)
            assert check_m_convex(pts) == (True, None)

    def test_mixed_sums(self):
        with pytest.raises(MixedSums):
            check_m_convex([(1, 1), (2, 1)])

    def test_witness_on_broken_set(self):
        # removing an interior point breaks the exchange property
        pts = [(2, 0), (1, 1), (0, 2)]
        ok, _ = check_m_convex(pts)
        assert ok
        ok, witness = check_m_convex([(2, 0), (0, 2)])
        assert not ok
        alpha, beta, i = witness
        assert alpha in ((2, 0), (0, 2))

    def test_empty_and_singleton(self):
        assert check_m_convex([]) == (True, None)
        assert check_m_convex([(1, 2)]) == (True, None)
