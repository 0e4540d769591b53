"""Weight models: sequence statistics and count estimates."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from degmc.graphs import DegreeInterval
from degmc.oracle import count_realizations
from degmc.projection import DegreeSpace
from degmc.weights import (
    DegenerateDensity,
    _entropy_term,
    _log_binom_sum,
    exact_log_weight,
    lw_log_weight,
    sequence_stats,
    slc_log_weight,
)


class TestStats:
    def test_regular_sequence(self):
        st_ = sequence_stats((2, 2, 2, 2))
        assert st_.xi == 2.0
        assert st_.mu == pytest.approx(2 / 3)
        assert st_.chi == 0.0
        assert st_.s == 0.0

    def test_dispersion_by_hand(self):
        # d = (1,3) on n=2... degenerate; use (1,1,3,3): xi=2, mu=2/3,
        # chi = 4/9, s = chi / (2*(2/3)*(1/3)) = 1
        st_ = sequence_stats((1, 1, 3, 3))
        assert st_.chi == pytest.approx(4 / 9)
        assert st_.s == pytest.approx(1.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateDensity):
            sequence_stats((0, 0, 0))
        with pytest.raises(DegenerateDensity):
            sequence_stats((3, 3, 3, 3))


class TestFormula:
    def test_hand_value(self):
        """d=(2,2,2,2): mu=2/3, s=0, binomial product 3^4,
        value = sqrt(2) e^{1/4} ((2/3)^{2/3} (1/3)^{1/3})^6 * 81 ~ 3.2282."""
        val = math.exp(lw_log_weight((2, 2, 2, 2)))
        by_hand = (
            math.sqrt(2)
            * math.exp(0.25)
            * ((2 / 3) ** (2 / 3) * (1 / 3) ** (1 / 3)) ** 6
            * 81
        )
        assert val == pytest.approx(by_hand, rel=1e-12)
        assert val == pytest.approx(3.2282, abs=1e-3)

    def test_tracks_exact_counts_loosely(self):
        """The estimate is asymptotic; at small n it should sit within a
        modest constant factor of the truth for near-regular sequences."""
        for d in [(2,) * 6, (3,) * 6, (2,) * 8, (3,) * 8, (2, 2, 3, 3, 2, 2)]:
            exact = count_realizations(d)
            ratio = math.exp(lw_log_weight(d)) / exact
            assert 0.5 < ratio < 2.0, (d, ratio)

    def test_slc_equals_lw_for_regular(self):
        # regular sequences have s = 0 and mu = 2m/(n(n-1)) already
        d = (2, 2, 2, 2)
        assert slc_log_weight(d) == pytest.approx(lw_log_weight(d))

    @given(st.integers(2, 12).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    @settings(max_examples=200, deadline=None)
    def test_slc_reads_m_from_the_sum(self, d):
        """slc's density Σd / (n(n-1)) is bit for bit the 2.0·m / (n(n-1))
        of an edge count m = Σd / 2 given beside d."""
        n = len(d)
        assume(sum(d) % 2 == 0 and 0 < sum(d) < n * (n - 1))
        mu = 2.0 * (sum(d) // 2) / (n * (n - 1))
        by_m = 0.5 * math.log(2.0) + 0.25 + _entropy_term(mu, n) + _log_binom_sum(d, n)
        assert slc_log_weight(d) == by_m

    def test_slc_ratio_free_of_dispersion(self):
        """Within a slice, slc ratios depend only on the binomial product."""
        n = 6
        d1, d2 = (2, 2, 2, 2, 3, 3), (2, 2, 2, 2, 2, 4)
        m = sum(d1) // 2
        assert sum(d1) == sum(d2) == 2 * m
        diff = slc_log_weight(d1) - slc_log_weight(d2)
        from scipy.special import gammaln

        def lb(d):
            return sum(gammaln(n) - gammaln(x + 1) - gammaln(n - x) for x in d)

        assert diff == pytest.approx(lb(d1) - lb(d2))


class TestWeightModel:
    def test_exact(self):
        assert math.exp(exact_log_weight((2, 2, 2, 2))) == pytest.approx(3.0)
        assert exact_log_weight((1, 1, 1)) == -math.inf  # odd sum

    def test_lw_and_slc_dispatch(self):
        """A DegreeSpace weighs its members by the function it is given,
        exact by default, and gives -inf off its slice."""
        iv, d = DegreeInterval((1,) * 4, (3,) * 4), (2, 2, 2, 2)
        assert DegreeSpace(iv, 4).log_weight(d) == exact_log_weight(d)
        for weight in (lw_log_weight, slc_log_weight):
            assert DegreeSpace(iv, 4, weight).log_weight(d) == weight(d)
            assert DegreeSpace(iv, 5, weight).log_weight(d) == -math.inf

    @given(st.lists(st.integers(1, 4), min_size=5, max_size=7))
    @example([4, 4, 4, 4, 4])
    @settings(max_examples=60, deadline=None)
    def test_log_space_consistency(self, d):
        """exp(log weight) is finite and positive whenever density is proper;
        at mu = 1 (the complete sequence) DegenerateDensity is raised."""
        d = tuple(d)
        n = len(d)
        assume(max(d) <= n - 1)
        if sum(d) == n * (n - 1):
            with pytest.raises(DegenerateDensity):
                lw_log_weight(d)
            return
        val = math.exp(lw_log_weight(d))
        assert np.isfinite(val) and val > 0
