"""Paired tests, effect sizes, and ESD ranking against independent oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from reviewtime.errors import (
    AllZeroDifferencesError,
    EmptyInputError,
    TooFewGroupsError,
    TooFewObservationsError,
    ZeroPooledVarianceError,
)
from reviewtime.stats import (
    bonferroni,
    chi2_ppf,
    cliffs_delta,
    cohens_d,
    compare_pairwise,
    rankdata,
    scott_knott_esd,
    wilcoxon_signed_rank,
)

# two-sided critical values from the standard signed-rank tables
# (largest W whose exact two-sided p-value does not exceed alpha)
WILCOXON_CRITICAL = {
    0.05: {6: 0, 7: 2, 8: 3, 9: 5, 10: 8},
    0.01: {8: 0, 9: 1, 10: 3},
}


def exhaustive_two_sided_p(diffs):
    """Brute-force enumeration of every sign assignment (small n only)."""
    diffs = np.asarray(diffs, dtype=float)
    ranks = sps.rankdata(np.abs(diffs))
    w_plus = ranks[diffs > 0].sum()
    w_minus = ranks[diffs < 0].sum()
    w_obs = min(w_plus, w_minus)
    n = len(diffs)
    count = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if w <= w_obs:
            count += 1
    return min(1.0, 2.0 * count / 2 ** n)


class TestWilcoxon:
    def test_all_positive_differences(self):
        a = [2.0, 3.0, 4.0, 5.0, 6.0]
        b = [1.0, 1.0, 1.0, 1.0, 1.0]
        w, p = wilcoxon_signed_rank(a, b)
        assert w == 0.0
        assert p == pytest.approx(2 / 32)

    def test_all_zero_differences(self):
        with pytest.raises(AllZeroDifferencesError):
            wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])

    def test_symmetric_small_sample_not_significant(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [2.0, 1.0, 4.0, 3.0]  # differences -1, +1, -1, +1
        _, p = wilcoxon_signed_rank(a, b)
        assert p > 0.5

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            diffs = rng.normal(size=n)
            diffs[diffs == 0] = 0.5
            _, p = wilcoxon_signed_rank(diffs, np.zeros(n))
            assert p == pytest.approx(exhaustive_two_sided_p(diffs), abs=1e-12)

    def test_matches_scipy_exact(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 100:
            n = int(rng.integers(3, 26))
            a = rng.normal(size=n)
            b = a + rng.normal(size=n)
            if np.any(a - b == 0):
                continue
            w, p = wilcoxon_signed_rank(a, b)
            ref = sps.wilcoxon(a, b, mode="exact")
            assert w == pytest.approx(ref.statistic)
            assert p == pytest.approx(ref.pvalue, abs=1e-12)
            checked += 1

    def test_matches_scipy_approx_above_threshold(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=60)
        b = a + rng.normal(size=60) * 0.4 + 0.2
        w, p = wilcoxon_signed_rank(a, b)
        ref = sps.wilcoxon(a, b, correction=True, mode="approx")
        assert p == pytest.approx(ref.pvalue, rel=1e-9)

    @pytest.mark.parametrize("alpha,table", sorted(WILCOXON_CRITICAL.items()))
    def test_published_critical_values(self, alpha, table):
        for n, critical in sorted(table.items()):
            ranks = np.arange(1, n + 1, dtype=float)
            # construct differences realizing W = critical and W = critical + 1
            for w_target, expect_significant in ((critical, True),
                                                 (critical + 1, False)):
                signs = np.ones(n)
                remaining = w_target
                for r in range(n, 0, -1):
                    if remaining >= r:
                        signs[r - 1] = -1.0
                        remaining -= r
                assert remaining == 0 or w_target == 0
                diffs = signs * ranks
                _, p = wilcoxon_signed_rank(diffs, np.zeros(n))
                if expect_significant:
                    assert p <= alpha, (alpha, n, w_target, p)
                else:
                    assert p > alpha, (alpha, n, w_target, p)


class TestScipyFreeHelpers:
    """The two helpers that stand in for scipy, with scipy as the oracle."""

    def test_rankdata_matches_scipy_on_tied_vectors(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(0, 40))
            values = rng.integers(0, int(rng.integers(1, 12)), size=n) * 0.25
            np.testing.assert_array_equal(rankdata(values), sps.rankdata(values))

    def test_chi2_ppf_matches_scipy_at_the_scott_knott_dof(self):
        # dof = k / (pi - 2) is the Scott-Knott criterion's; over k = 1..399
        # the bisection evaluates the CDF on both sides of the switch between
        # the series and the continued fraction
        for k in range(1, 400):
            dof = k / (math.pi - 2.0)
            expected = sps.chi2.ppf(0.95, dof)
            assert chi2_ppf(0.95, dof) == pytest.approx(expected, rel=1e-13, abs=0)


class TestBonferroni:
    def test_multiplies(self):
        assert bonferroni([0.004], 3) == [pytest.approx(0.012)]

    def test_clamps(self):
        assert bonferroni([0.5], 10) == [1.0]

    def test_empty(self):
        assert bonferroni([], 5) == []

    def test_m_must_cover(self):
        with pytest.raises(ValueError):
            bonferroni([0.1, 0.2], 1)

    @given(st.lists(st.floats(0.0, 1.0), max_size=10))
    def test_pointwise_bounds(self, ps):
        out = bonferroni(ps, max(10, len(ps)))
        assert all(o >= p for o, p in zip(out, ps))
        assert all(o <= 1.0 for o in out)


def brute_force_delta(a, b):
    gt = sum(1 for x in a for y in b if x > y)
    lt = sum(1 for x in a for y in b if x < y)
    return (gt - lt) / (len(a) * len(b))


class TestCliffsDelta:
    def test_identical(self):
        d, mag = cliffs_delta([1.0, 2.0], [1.0, 2.0])
        assert d == 0.0 and mag == "N"

    def test_full_separation(self):
        d, mag = cliffs_delta([3.0, 4.0], [1.0, 2.0])
        assert d == 1.0 and mag == "L"

    def test_sign_convention(self):
        d, mag = cliffs_delta([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
        assert d == pytest.approx(-5 / 9)
        assert mag == "L"

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            cliffs_delta([], [1.0])

    def test_magnitude_thresholds(self):
        cases = [(0.0, "N"), (0.146, "N"), (0.147, "S"), (0.329, "S"),
                 (0.33, "M"), (0.473, "M"), (0.474, "L"), (1.0, "L")]
        from reviewtime.stats import cliffs_magnitude
        for d, label in cases:
            assert cliffs_magnitude(d) == label
            assert cliffs_magnitude(-d) == label

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=50),
           st.lists(st.integers(0, 20), min_size=1, max_size=50))
    def test_matches_brute_force(self, a, b):
        d, _ = cliffs_delta(a, b)
        assert d == pytest.approx(brute_force_delta(a, b), abs=1e-12)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30),
           st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    def test_antisymmetry_and_bounds(self, a, b):
        d_ab, _ = cliffs_delta(a, b)
        d_ba, _ = cliffs_delta(b, a)
        assert d_ab == pytest.approx(-d_ba)
        assert -1.0 <= d_ab <= 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=30)
        b = rng.normal(0.5, 1.0, size=25)
        d1, _ = cliffs_delta(a, b)
        d2, _ = cliffs_delta(np.exp(a), np.exp(b))
        assert d1 == pytest.approx(d2)


class TestCohensD:
    def test_identical_groups(self):
        assert cohens_d([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_degenerate(self):
        with pytest.raises(ZeroPooledVarianceError):
            cohens_d([0.0, 0.0], [1.0, 1.0])

    def test_hand_example(self):
        assert cohens_d([2.0, 4.0, 6.0], [1.0, 3.0, 5.0]) == pytest.approx(0.5)

    def test_too_few(self):
        with pytest.raises(TooFewObservationsError):
            cohens_d([1.0], [1.0, 2.0])


class TestScottKnottEsd:
    def test_identical_groups_single_cluster_mostly(self):
        singles = 0
        trials = 100
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            groups = {"a": rng.normal(10, 1, 30), "b": rng.normal(10, 1, 30)}
            ranking = scott_knott_esd(groups)
            singles += len(ranking.clusters) == 1
        assert singles >= 95

    def test_separated_groups_split(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            groups = {"low": rng.normal(1, 0.05, 20),
                      "high": rng.normal(100, 5.0, 20)}
            ranking = scott_knott_esd(groups)
            assert ranking.clusters == (("high",), ("low",))

    def test_negligible_effect_merges(self):
        rng = np.random.default_rng(1)
        noise = 1.0
        groups = {
            "a": rng.normal(10.0, noise, 50),
            "b": rng.normal(10.05, noise, 50),   # negligible shift vs a
            "c": rng.normal(1000.0, noise, 50),
        }
        ranking = scott_knott_esd(groups)
        assert len(ranking.clusters) == 2
        assert set(ranking.clusters[1]) == {"a", "b"}
        assert ranking.clusters[0] == ("c",)

    def test_single_group_single_cluster(self):
        ranking = scott_knott_esd({"only": [1.0, 2.0, 3.0]})
        assert ranking.clusters == (("only",),)

    def test_no_groups(self):
        with pytest.raises(TooFewGroupsError):
            scott_knott_esd({})

    def test_too_few_observations(self):
        with pytest.raises(TooFewObservationsError):
            scott_knott_esd({"a": [1.0, 2.0], "b": [1.0, 2.0, 3.0]})

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(2)
        samples = [rng.normal(loc, 1, 20) for loc in (10, 50, 51)]
        r1 = scott_knott_esd({"x": samples[0], "y": samples[1], "z": samples[2]})
        r2 = scott_knott_esd({"z": samples[2], "x": samples[0], "y": samples[1]})
        assert r1.clusters == r2.clusters

    def test_rank_of(self):
        rng = np.random.default_rng(4)
        groups = {"small": rng.normal(1, 0.1, 20), "big": rng.normal(100, 1, 20)}
        ranking = scott_knott_esd(groups)
        assert ranking.rank_of("big") == 1
        assert ranking.rank_of("small") == 2


class TestComparePairwise:
    def test_pair_count_and_adjustment(self):
        rng = np.random.default_rng(5)
        samples = {name: rng.normal(loc, 1, 20)
                   for name, loc in (("a", 0), ("b", 5), ("c", 10))}
        results = compare_pairwise(samples)
        assert len(results) == 3
        for r in results:
            assert r.p_adjusted == pytest.approx(min(1.0, r.p_value * 3))

    def test_identical_samples_not_significant(self):
        x = np.arange(10.0)
        results = compare_pairwise({"a": x, "b": x})
        assert results[0].significant is False
        assert results[0].cliffs_d == 0.0
