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
    EmptyInputError,
    LengthMismatchError,
    TooFewGroupsError,
    TooFewObservationsError,
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
    correction beyond.  With no non-zero difference, or one, the exact
    distribution gives (0.0, 1.0).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise LengthMismatchError("paired samples must have equal length")
    diffs = a - b
    diffs = diffs[diffs != 0]
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
    if best_b <= 0.0:
        return [groups]

    within_ss = float(np.sum((all_obs - np.repeat(means, sizes.astype(int))) ** 2))
    df_error = sizes.sum() - k  # > 0: every group holds at least 3 observations
    mean_rep = float(sizes.mean())
    s2_nu = within_ss / df_error / mean_rep
    between_means_ss = float(np.sum(sizes * (means - grand_mean) ** 2) / mean_rep)
    sigma2 = (between_means_ss + df_error * s2_nu) / (k + df_error)

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


def _negligible(left: np.ndarray, right: np.ndarray) -> bool:
    """Whether two clusters' pooled Cohen's |d| is below ``NEGLIGIBLE_D``.

    With zero pooled variance, |d| counts as 0 when the means are equal and
    as infinite otherwise.
    """
    pooled_var = ((left.size - 1) * left.var(ddof=1)
                  + (right.size - 1) * right.var(ddof=1)) / (left.size + right.size - 2)
    difference = float(left.mean() - right.mean())
    if pooled_var == 0.0:
        return difference == 0.0
    return abs(difference / math.sqrt(pooled_var)) < NEGLIGIBLE_D


def _merge_negligible(clusters: list[list[tuple[str, np.ndarray]]]) -> list[list[tuple[str, np.ndarray]]]:
    """Merge adjacent clusters whose pooled Cohen's |d| is negligible."""
    merged = True
    while merged:
        merged = False
        for i in range(len(clusters) - 1):
            left = np.concatenate([obs for _, obs in clusters[i]])
            right = np.concatenate([obs for _, obs in clusters[i + 1]])
            if _negligible(left, right):
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
    clusters = _merge_negligible(_scott_knott_partition(transformed))
    return EsdRanking(
        clusters=tuple(tuple(name for name, _ in cluster) for cluster in clusters))


def compare_pairwise(samples: Mapping[str, Sequence[float]],
                     m: int | None = None) -> list[ComparisonResult]:
    """All-pairs Wilcoxon + Bonferroni + Cliff's delta over paired samples."""
    rows = []
    for left, right in itertools.combinations(samples, 2):
        a = np.asarray(samples[left], dtype=float)
        b = np.asarray(samples[right], dtype=float)
        w, p = wilcoxon_signed_rank(a, b)
        d, magnitude = cliffs_delta(a, b)
        rows.append((left, right, w, p, d, magnitude))
    adjusted = bonferroni([p for _, _, _, p, _, _ in rows],
                          len(rows) if m is None else m)
    return [ComparisonResult(left=left, right=right, w_statistic=w, p_value=p,
                             p_adjusted=p_adj, significant=p_adj < SIGNIFICANCE_ALPHA,
                             cliffs_d=d, magnitude=magnitude)
            for (left, right, w, p, d, magnitude), p_adj in zip(rows, adjusted)]
