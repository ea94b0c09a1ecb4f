"""Statistical comparison machinery: paired tests, effect sizes, ESD ranking."""

from __future__ import annotations

import itertools
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    AllZeroDifferencesError,
    EmptyInputError,
    TooFewGroupsError,
    TooFewObservationsError,
    TooFewPairsError,
    ZeroPooledVarianceError,
)

WILCOXON_EXACT_MAX_N = 25
SIGNIFICANCE_ALPHA = 0.01
SCOTT_KNOTT_ALPHA = 0.05
NEGLIGIBLE_D = 0.2

CLIFFS_THRESHOLDS = ((0.147, "N"), (0.33, "S"), (0.474, "M"))

# the relative accuracy at which the incomplete gamma sums stop, and the
# floor that keeps the continued fraction's divisions finite
_GAMMA_EPS = sys.float_info.epsilon
_GAMMA_TINY = 1e-300


@dataclass(frozen=True)
class ComparisonResult:
    left: str
    right: str
    w_statistic: float
    p_value: float
    p_adjusted: float
    significant: bool
    cliffs_d: float
    magnitude: str


@dataclass(frozen=True)
class EsdRanking:
    clusters: tuple[tuple[str, ...], ...]

    def rank_of(self, name: str) -> int:
        for rank, cluster in enumerate(self.clusters, start=1):
            if name in cluster:
                return rank
        raise KeyError(name)


def rankdata(values: Sequence[float]) -> np.ndarray:
    """Ranks 1..n of ``values``; tied values share the mean of their ranks."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.ones(values.size, dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    # a run of ties at sorted positions s..e-1 holds the ranks s+1..e
    bounds = np.append(np.flatnonzero(starts), values.size)
    ranks = np.empty(values.size)
    ranks[order] = (0.5 * (bounds[:-1] + bounds[1:] + 1))[np.cumsum(starts) - 1]
    return ranks


def _gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x), a > 0, x >= 0.

    The power series below x = a + 1, and above it the continued fraction
    for Q = 1 - P by the modified Lentz method (Numerical Recipes, 3rd ed.,
    section 6.2), where each converges quickly.
    """
    if x <= 0.0:
        return 0.0
    prefactor = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        denominator = a
        while abs(term) >= abs(total) * _GAMMA_EPS:
            denominator += 1.0
            term *= x / denominator
            total += term
        return prefactor * total
    b = x + 1.0 - a
    c = 1.0 / _GAMMA_TINY
    d = 1.0 / b
    fraction = d
    for i in itertools.count(1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _GAMMA_TINY:
            d = _GAMMA_TINY
        c = b + an / c
        if abs(c) < _GAMMA_TINY:
            c = _GAMMA_TINY
        d = 1.0 / d
        step = d * c
        fraction *= step
        if abs(step - 1.0) < _GAMMA_EPS:
            return 1.0 - prefactor * fraction


def chi2_ppf(p: float, dof: float) -> float:
    """Quantile function of the chi-square distribution, 0 < p < 1, dof > 0.

    Bisects the CDF P(dof/2, q/2) until the bracket is two adjacent floats
    and returns its upper end, so the result is exact up to the rounding of
    the CDF.
    """
    a = dof / 2.0
    low, high = 0.0, max(dof, 1.0)
    while _gamma_p(a, high / 2.0) < p:
        low, high = high, 2.0 * high
    while low < (mid := 0.5 * (low + high)) < high:
        if _gamma_p(a, mid / 2.0) < p:
            low = mid
        else:
            high = mid
    return high


def _exact_wilcoxon_cdf(ranks: np.ndarray, w: float) -> float:
    """P(W+ <= w) over all equally likely sign assignments of the ranks.

    Computed by dynamic programming over the doubled (integer) rank sums,
    which enumerates the full sign-assignment distribution.
    """
    doubled = np.rint(ranks * 2).astype(int)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=float)
    counts[0] = 1.0
    for r in doubled:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[:len(counts) - r]
        counts = counts + shifted
    threshold = int(math.floor(round(w * 2, 6)))
    return float(counts[:threshold + 1].sum() / counts.sum())


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> tuple[float, float]:
    """Two-sided paired Wilcoxon test; returns (W, p).

    Uses the exact sign-assignment distribution up to n = 25 non-zero
    differences, and the tie-corrected normal approximation with continuity
    correction beyond.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise TooFewPairsError("paired samples must have equal length")
    diffs = a - b
    diffs = diffs[diffs != 0]
    if diffs.size == 0:
        raise AllZeroDifferencesError("all paired differences are zero")
    if diffs.size < 2:
        raise TooFewPairsError("need at least 2 non-zero differences")
    n = diffs.size
    ranks = rankdata(np.abs(diffs))
    w_plus = float(ranks[diffs > 0].sum())
    w_minus = float(ranks[diffs < 0].sum())
    w = min(w_plus, w_minus)
    if n <= WILCOXON_EXACT_MAX_N:
        p = 2.0 * _exact_wilcoxon_cdf(ranks, w)
    else:
        mean = n * (n + 1) / 4.0
        _, tie_counts = np.unique(np.abs(diffs), return_counts=True)
        tie_term = float(np.sum(tie_counts ** 3 - tie_counts)) / 48.0
        sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_term)
        z = (w - mean + 0.5) / sigma
        p = 2.0 * _norm_cdf(z)
    return w, min(p, 1.0)


def bonferroni(p_values: Sequence[float], m: int) -> list[float]:
    if m < len(p_values):
        raise ValueError("m must cover at least the given comparisons")
    return [min(1.0, p * m) for p in p_values]


def cliffs_delta(a: Sequence[float], b: Sequence[float]) -> tuple[float, str]:
    """Pairwise dominance effect size with N/S/M/L magnitude label."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise EmptyInputError("cliffs_delta needs two non-empty samples")
    sorted_b = np.sort(b)
    a_wins = sum(bisect_left(sorted_b, x) for x in a)        # pairs with a_i > b_j
    b_wins = sum(len(sorted_b) - bisect_right(sorted_b, x) for x in a)
    d = (a_wins - b_wins) / (a.size * b.size)
    return d, cliffs_magnitude(d)


def cliffs_magnitude(d: float) -> str:
    magnitude = abs(d)
    for threshold, label in CLIFFS_THRESHOLDS:
        if magnitude < threshold:
            return label
    return "L"


def cohens_d(a: Sequence[float], b: Sequence[float]) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise TooFewObservationsError("cohens_d needs >= 2 observations per group")
    pooled_var = ((a.size - 1) * a.var(ddof=1) + (b.size - 1) * b.var(ddof=1)) \
        / (a.size + b.size - 2)
    if pooled_var == 0.0:
        raise ZeroPooledVarianceError("both groups are constant")
    return float((a.mean() - b.mean()) / math.sqrt(pooled_var))


def _scott_knott_partition(groups: list[tuple[str, np.ndarray]]) -> list[list[tuple[str, np.ndarray]]]:
    """Recursive binary partition of mean-sorted groups.

    The split maximizing the between-block sum of squares is kept when its
    lambda statistic exceeds the chi-square criterion.
    """
    k = len(groups)
    if k < 2:
        return [groups]
    sizes = np.array([len(obs) for _, obs in groups], dtype=float)
    sums = np.array([obs.sum() for _, obs in groups])
    means = sums / sizes
    all_obs = np.concatenate([obs for _, obs in groups])
    grand_mean = all_obs.mean()

    best_b = -1.0
    best_cut = None
    for cut in range(1, k):
        n_left = sizes[:cut].sum()
        n_right = sizes[cut:].sum()
        mean_left = sums[:cut].sum() / n_left
        mean_right = sums[cut:].sum() / n_right
        b0 = n_left * (mean_left - grand_mean) ** 2 \
            + n_right * (mean_right - grand_mean) ** 2
        if b0 > best_b:
            best_b = b0
            best_cut = cut

    n_total = sizes.sum()
    within_ss = float(np.sum((all_obs - np.repeat(means, sizes.astype(int))) ** 2))
    df_error = n_total - k
    mse = within_ss / df_error if df_error > 0 else 0.0
    mean_rep = float(sizes.mean())
    s2_nu = mse / mean_rep
    between_means_ss = float(np.sum(sizes * (means - grand_mean) ** 2) / mean_rep)
    sigma2 = (between_means_ss + df_error * s2_nu) / (k + df_error) \
        if (k + df_error) > 0 else 0.0

    if best_b <= 0.0:
        return [groups]
    if sigma2 <= 0.0:
        significant = True  # zero variance estimate with positive separation
    else:
        lam = math.pi / (2.0 * (math.pi - 2.0)) * (best_b / mean_rep) / sigma2
        dof = k / (math.pi - 2.0)
        significant = lam > chi2_ppf(1.0 - SCOTT_KNOTT_ALPHA, dof)
    if not significant:
        return [groups]
    left = _scott_knott_partition(groups[:best_cut])
    right = _scott_knott_partition(groups[best_cut:])
    return left + right


def _merge_negligible(clusters: list[list[tuple[str, np.ndarray]]]) -> list[list[tuple[str, np.ndarray]]]:
    """Merge adjacent clusters whose pooled Cohen's |d| is negligible."""
    merged = True
    while merged and len(clusters) > 1:
        merged = False
        for i in range(len(clusters) - 1):
            left = np.concatenate([obs for _, obs in clusters[i]])
            right = np.concatenate([obs for _, obs in clusters[i + 1]])
            try:
                d = abs(cohens_d(left, right))
            except ZeroPooledVarianceError:
                d = 0.0 if left.mean() == right.mean() else float("inf")
            if d < NEGLIGIBLE_D:
                clusters[i:i + 2] = [clusters[i] + clusters[i + 1]]
                merged = True
                break
    return clusters


def scott_knott_esd(groups: Mapping[str, Sequence[float]]) -> EsdRanking:
    """Rank treatment groups into statistically distinct clusters.

    Observations are transformed by ln(x+1) to damp skew; the Scott-Knott
    recursion splits mean-sorted groups at the chi-square criterion and
    adjacent clusters with negligible effect size (|d| < 0.2) are merged.
    Clusters are ordered by descending transformed mean.
    """
    if len(groups) == 0:
        raise TooFewGroupsError("no groups given")
    transformed: list[tuple[str, np.ndarray]] = []
    for name, obs in groups.items():
        arr = np.asarray(obs, dtype=float)
        if arr.size < 3:
            raise TooFewObservationsError(
                f"group {name!r} has {arr.size} observations; need >= 3"
            )
        if np.any(arr <= -1.0):
            raise ValueError(f"group {name!r} has values <= -1; ln(x+1) undefined")
        transformed.append((name, np.log1p(arr)))

    transformed.sort(key=lambda item: (-item[1].mean(), item[0]))
    if len(transformed) == 1:
        clusters = [transformed]
    else:
        clusters = _scott_knott_partition(transformed)
        clusters = _merge_negligible(clusters)
    return EsdRanking(
        clusters=tuple(tuple(name for name, _ in cluster) for cluster in clusters))


def compare_pairwise(samples: Mapping[str, Sequence[float]],
                     m: int | None = None) -> list[ComparisonResult]:
    """All-pairs Wilcoxon + Bonferroni + Cliff's delta over paired samples."""
    names = list(samples)
    pairs = [(names[i], names[j])
             for i in range(len(names)) for j in range(i + 1, len(names))]
    if m is None:
        m = len(pairs)
    results = []
    p_values = []
    stats_raw = []
    for left, right in pairs:
        a = np.asarray(samples[left], dtype=float)
        b = np.asarray(samples[right], dtype=float)
        try:
            w, p = wilcoxon_signed_rank(a, b)
        except AllZeroDifferencesError:
            w, p = 0.0, 1.0
        d, magnitude = cliffs_delta(a, b)
        stats_raw.append((left, right, w, d, magnitude))
        p_values.append(p)
    adjusted = bonferroni(p_values, m)
    for (left, right, w, d, magnitude), p, p_adj in zip(stats_raw, p_values, adjusted):
        results.append(ComparisonResult(
            left=left, right=right, w_statistic=w, p_value=p, p_adjusted=p_adj,
            significant=p_adj < SIGNIFICANCE_ALPHA, cliffs_d=d, magnitude=magnitude,
        ))
    return results
