"""Telescoping count estimation and near-uniform interval sampling."""

import math
import typing
from collections import Counter

import numpy as np
import pytest

from degmc import oracle
from degmc.chains import make_rng
from degmc.counting import (
    Ladder,
    ZeroHits,
    build_ladder,
    estimate_count,
    estimate_count_m,
    estimate_ratio,
    exact_interval_count,
    ratio_sample_size,
    sample_interval,
    sample_realization,
)
from degmc.graphs import DegreeInterval, Infeasible
from degmc.projection import feasible_edge_counts

IV5 = DegreeInterval((1,) * 5, (3,) * 5)
UNIT5 = DegreeInterval((1,) * 5, (2,) * 5)


class TestExactCounts:
    def test_unconstrained_n3(self):
        iv = DegreeInterval((0,) * 3, (2,) * 3)
        assert exact_interval_count(iv) == 8

    def test_matches_enumeration(self):
        for iv in (IV5, UNIT5):
            sp = oracle.enumerate_graphs(5, interval=iv)
            assert exact_interval_count(iv) == len(sp)
            for m in feasible_edge_counts(iv):
                spm = oracle.enumerate_graphs(5, interval=iv, m=m)
                assert exact_interval_count(iv, m) == len(spm)
        # 512 graphs in the box, 130 of them with 4 edges
        assert exact_interval_count(IV5, 4) == 130

    def test_n12_without_degree_vectors(self, monkeypatch):
        """|G([2,3]^12)| and every |G_m| come from the recursion alone.  By
        symmetry G_m holds C(12, j) copies of G(3^j 2^(12-j)), j = 2m - 24;
        the total is the sum of count_realizations over all 2^12 degree
        vectors."""
        def refuse(*args):
            raise AssertionError("degree vectors were enumerated")

        monkeypatch.setattr("degmc.projection.enumerate_degree_vectors", refuse)
        iv = DegreeInterval((2,) * 12, (3,) * 12)
        ms = feasible_edge_counts(iv)
        assert ms == list(range(12, 19))
        by_m = [exact_interval_count(iv, m) for m in ms]
        for m, got in zip(ms, by_m):
            j = 2 * m - 24
            assert got == math.comb(12, j) * oracle.count_realizations((3,) * j + (2,) * (12 - j))
        assert exact_interval_count(iv) == sum(by_m) == 1322299270600

    @pytest.mark.parametrize(
        "lower, upper",
        [
            ((2,) * 7, (3,) * 7),
            ((0,) * 7, (6,) * 7),
            # node 0 held at degree 0; lower bounds of 0 and 1 that clamp
            ((0, 1, 2, 3, 0, 1, 5), (0, 3, 4, 3, 6, 2, 6)),
            ((1, 0, 0, 0, 2, 0, 1), (1, 2, 0, 3, 4, 6, 2)),
        ],
    )
    def test_matches_census_n7(self, lower, upper):
        """On 7-node boxes the counts equal sums of census class sizes, with
        m free and at every m from -1 to 22 (outside the box at both ends),
        and so does the profile between its first and last nonzero m."""
        iv = DegreeInterval(lower, upper)
        classes = [(d, c) for d, c in oracle.degree_class_counts(7).items() if iv.contains(d)]
        assert exact_interval_count(iv) == sum(c for _, c in classes)
        per_m = [sum(c for d, c in classes if sum(d) == 2 * m) for m in range(-1, 23)]
        for m, want in zip(range(-1, 23), per_m):
            assert exact_interval_count(iv, m) == want
        nonzero = [i for i, x in enumerate(per_m) if x]
        assert oracle.edge_count_profile(lower, upper) == per_m[nonzero[0] : nonzero[-1] + 1]

    def test_fails_fast_above_cap(self, monkeypatch):
        """Above the count recursion's cap, exact counts and both exact
        samplers raise TooLarge before listing any degree vector."""
        def refuse(*args):
            raise AssertionError("degree vectors were enumerated")

        monkeypatch.setattr("degmc.projection.enumerate_degree_vectors", refuse)
        iv = DegreeInterval((4,) * 30, (5,) * 30)
        for call in (lambda: exact_interval_count(iv), lambda: exact_interval_count(iv, 67),
                     lambda: sample_interval(iv, make_rng(0)),
                     lambda: sample_realization((4,) * 30, make_rng(0))):
            with pytest.raises(oracle.TooLarge):
                call()


class TestLadder:
    def test_structure_even_residue(self):
        iv = DegreeInterval((2,) * 5, (4,) * 5)  # sum(l)=10 even
        ladder = build_ladder(iv, 7)
        assert ladder.rungs[0] == iv.lower
        assert sum(ladder.final_sequence) == 14
        # consecutive sums differ by exactly 2; parity is invariant
        for a, b in zip(ladder.rungs, ladder.rungs[1:]):
            assert sum(b) - sum(a) == 2
            assert all(x <= y for x, y in zip(a, b))

    def test_structure_odd_residue(self):
        ladder = build_ladder(IV5, 5)  # sum(l)=5 odd vs 2m=10
        deltas = [sum(b) - sum(a) for a, b in zip(ladder.rungs, ladder.rungs[1:])]
        assert deltas.count(1) == 1  # exactly one single-coordinate rung
        assert set(deltas) <= {1, 2}
        assert sum(ladder.final_sequence) == 10

    def test_odd_residue_single_step(self):
        iv = DegreeInterval((1, 1, 1, 1, 1), (3, 3, 3, 3, 3))
        ladder = build_ladder(iv, 3)  # 2m - sum(l) = 1
        deltas = [sum(b) - sum(a) for a, b in zip(ladder.rungs, ladder.rungs[1:])]
        assert sorted(deltas)[:1] in ([], [1])
        assert sum(deltas) == 6 - 5

    def test_subset_chain(self):
        """Tightening the lower bound only shrinks the class, and every rung's
        class G_m(a, u), which the estimator counts by the recursion, has
        the size its enumeration has, on IV5 and [2,3]^8 at every feasible m."""
        for iv in (IV5, DegreeInterval((2,) * 8, (3,) * 8)):
            for m in feasible_edge_counts(iv):
                ladder = build_ladder(iv, m)
                prev = None
                for a in ladder.rungs:
                    rung = DegreeInterval(a, iv.upper)
                    size = len(oracle.enumerate_graphs(iv.n, interval=rung, m=m))
                    assert exact_interval_count(rung, m) == size
                    if prev is not None:
                        assert size <= prev
                    prev = size
                assert prev == oracle.count_realizations(ladder.final_sequence)

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            build_ladder(IV5, 1)

    def test_type_hints_resolve(self):
        assert typing.get_type_hints(Ladder)["interval"] is DegreeInterval


class TestRatioEstimation:
    def test_unbiased_on_known_mask(self):
        rng = make_rng(0)
        r, used = estimate_ratio(0.25, 20000, rng)
        assert r == pytest.approx(0.25, abs=0.02)
        assert used == 20000

    def test_zero_hits(self):
        rng = make_rng(0)
        with pytest.raises(ZeroHits):
            estimate_ratio(0.0, 10, rng, max_retries=2)

    def test_retry_doubles(self):
        rng = make_rng(12)
        r, used = estimate_ratio(1e-4, 1, rng, max_retries=20)
        assert r > 0 and used > 1

    def test_sample_size_scaling(self):
        base = ratio_sample_size(2, 0.1, 0.05, 4.0)
        assert ratio_sample_size(4, 0.1, 0.05, 4.0) > 2 * base
        assert ratio_sample_size(2, 0.05, 0.05, 4.0) > 3 * base


class TestEstimates:
    def test_exact_when_sum_matches(self):
        iv = DegreeInterval((2,) * 4, (3,) * 4)
        est = estimate_count_m(iv, 4, 0.1, 0.05, make_rng(0))
        assert est.method == "exact"
        assert est.value == pytest.approx(oracle.count_realizations((2, 2, 2, 2)))

    def test_infeasible_estimate(self):
        est = estimate_count_m(IV5, 1, 0.1, 0.05, make_rng(0))
        assert est.method == "infeasible" and est.value == 0.0

    def test_per_m_accuracy(self):
        for m in feasible_edge_counts(IV5):
            est = estimate_count_m(IV5, m, 0.1, 0.05, make_rng(3))
            assert est.method == "exact"
            assert est.log_value == math.log(exact_interval_count(IV5, m))

    def test_total_accuracy_and_schema(self):
        est = estimate_count(UNIT5, 0.1, 0.05, seed=7)
        assert (est.method, est.eps, est.delta) == ("exact", 0.1, 0.05)
        assert est.log_value == math.log(exact_interval_count(UNIT5))
        d = est.to_dict()
        assert set(d) == {
            "log_value",
            "value_if_small",
            "eps",
            "delta",
            "method",
            "samples_used",
            "ladder_length",
            "per_rung_ratios",
        }
        assert (d["samples_used"], d["ladder_length"], d["per_rung_ratios"]) == (0, 0, [])
        import json

        assert json.loads(est.to_json()) == d

    def test_deterministic_given_seed(self):
        a = estimate_count(UNIT5, 0.1, 0.05, seed=5)
        b = estimate_count(UNIT5, 0.1, 0.05, seed=5)
        assert a.log_value == b.log_value

    def test_count_adds_no_memo_state(self):
        """On a box whose ladder rungs mix bound types, the count is the
        exact count's own: it adds no recursion state beyond it."""
        iv = DegreeInterval((3,) * 10, (5,) * 10)
        exact = exact_interval_count(iv)
        states = oracle._profile.cache_info().currsize
        est = estimate_count(iv, 0.1, 0.05, seed=0)
        assert oracle._profile.cache_info().currsize == states
        assert est.log_value == math.log(exact)


    def test_exact_value_is_the_integer(self):
        """An exact estimate keeps the count as an int, and its JSON prints it."""
        iv = DegreeInterval((2,) * 6, (3,) * 6)
        for est in (estimate_count(iv, 0.1, 0.05, seed=3), estimate_count_m(iv, 7, 0.1, 0.05, make_rng(0))):
            assert est.method == "exact" and type(est.value) is int
        assert estimate_count(iv, 0.1, 0.05).value == exact_interval_count(iv) == 1760
        assert estimate_count(iv, 0.1, 0.05).to_dict()["value_if_small"] == 1760
        assert estimate_count_m(iv, 7, 0.1, 0.05, make_rng(0)).value == exact_interval_count(iv, 7)

    def test_infeasible_above_cap(self):
        """The feasibility test runs before the recursion's cap: an odd-sum
        box and an even-sum box with no graphical sequence, on 13 and 14
        nodes, are "infeasible", not TooLarge."""
        d = (13, 13) + (1,) * 12
        for iv in (DegreeInterval((1,) * 13, (1,) * 13), DegreeInterval(d, d)):
            assert iv.n > oracle.COUNT_CAP
            est = estimate_count(iv, 0.1, 0.05)
            assert (est.method, est.value) == ("infeasible", 0.0)

    @pytest.mark.parametrize("lower, upper", [((0,) * 3, (2,) * 3), ((1, 0, 2), (1, 2, 2)), ((2,) * 6, (4,) * 6),
                                              ((1,) * 5, (1,) * 5), ((3, 0, 0, 0), (3, 1, 1, 1)),
                                              ((2, 0, 0), (2, 0, 0))])
    def test_feasibility_matches_edge_counts(self, lower, upper):
        """Stopping at the first feasible edge count decides as the whole
        list of feasible edge counts does."""
        iv = DegreeInterval(lower, upper)
        want = "exact" if feasible_edge_counts(iv) else "infeasible"
        assert estimate_count(iv, 0.1, 0.05).method == want

    def test_count_leaves_projection_unloaded(self):
        """estimate_count in a fresh interpreter loads no degmc.projection."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import sys\n"
            "from degmc.counting import estimate_count\n"
            "from degmc.graphs import DegreeInterval\n"
            "est = estimate_count(DegreeInterval((2,) * 7, (3,) * 7), 0.1, 0.05)\n"
            "print(est.method, est.value, 'degmc.projection' in sys.modules)\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["exact", str(exact_interval_count(DegreeInterval((2,) * 7, (3,) * 7))), "False"]


class TestSampling:
    def test_singleton_class(self):
        iv = DegreeInterval((2, 2, 2), (2, 2, 2))
        g = sample_interval(iv, make_rng(0))
        assert g.degree_sequence() == (2, 2, 2)

    def test_realization_uniform_small(self):
        d = (2,) * 5
        space = oracle.enumerate_graphs(5, d=d)
        rng = make_rng(2)
        c = Counter(space.index_of(sample_realization(d, rng)) for _ in range(12000))
        p = 1 / len(space)
        for i in range(len(space)):
            assert c[i] / 12000 == pytest.approx(p, abs=4 * math.sqrt(p / 12000))

    def test_interval_sampler_stays_inside(self):
        rng = make_rng(3)
        for _ in range(200):
            g = sample_interval(IV5, rng=rng)
            assert IV5.contains_graph(g)

    def test_count_beyond_int64(self):
        """|G([3,8]^12)| is above 2^63, numpy's bound for an integer draw;
        the rank is drawn from raw words instead."""
        iv = DegreeInterval((3,) * 12, (8,) * 12)
        assert exact_interval_count(iv) >= 2**63
        rng = make_rng(6)
        for _ in range(5):
            assert iv.contains_graph(sample_interval(iv, rng=rng))

    def test_interval_sampler_tv(self):
        space = oracle.enumerate_graphs(5, interval=UNIT5)
        rng = make_rng(11)
        N = 30000
        c = Counter(space.index_of(sample_interval(UNIT5, rng=rng)) for _ in range(N))
        emp = np.array([c[i] for i in range(len(space))]) / N
        tv = 0.5 * np.abs(emp - 1 / len(space)).sum()
        assert tv <= 0.05

    def test_infeasible_interval(self):
        iv = DegreeInterval((0, 0, 2), (0, 0, 2))
        with pytest.raises(Infeasible):
            sample_interval(iv, make_rng(0))
