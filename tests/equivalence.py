"""Statistical-equivalence harness for cross-engine result comparison.

The packed mega engine (:mod:`repro.sim.mega`) draws from the same
per-round distributions as the fast engine but consumes a different
random stream, so seeded runs can never be trace-identical across the
two.  This module pins the *distributional* claim instead, with three
independent tests on a pair of :class:`~repro.sim.results
.MonteCarloResult` objects for the same scenario:

- a **two-sample Kolmogorov–Smirnov** test on the per-run
  rounds-to-threshold samples (censored runs count as ``max_rounds``,
  matching ``mean_rounds``);
- a **permutation-calibrated chi-square** test on the per-round
  new-infection curves (:func:`curve_permutation_test`);
- **Wilson binomial confidence intervals** on delivery reliability (the
  fraction of runs reaching the coverage threshold) — the engines agree
  when the intervals overlap.

The curve test needs the permutation calibration because individual
infections within one run are *cluster-correlated*: a run whose wave
starts a round late shifts its whole curve, so the pooled per-round
counts are nowhere near independent multinomial draws and the textbook
chi-square reference (:func:`chi2_homogeneity`, kept here as the
generic histogram helper) rejects identical engines with p-values like
1e-36.  Re-computing the same statistic under random reassignments of
*runs* — the actual independent units — to the two groups gives an
exact-level p-value under the null whatever the within-run dependence,
and a seeded permutation stream keeps the gate deterministic.

Everything is implemented on numpy + math alone (Kolmogorov series,
regularised incomplete gamma) so the harness carries no dependency the
engines themselves do not; the test suite cross-checks the statistics
against scipy where it is available.

This file deliberately does **not** start with ``test_`` — it is a
library imported by the test suite, not a collectable test module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

#: Default significance level for the equivalence gate.  Deliberately
#: small: the gate asserts *non*-rejection, so alpha is the false-alarm
#: rate of a seeded CI job, not the power of the test.
DEFAULT_ALPHA = 1e-3

#: Default resampling depth for :func:`curve_permutation_test`.  With B
#: permutations the smallest attainable p-value is 1/(B + 1); 999 makes
#: that exactly ``DEFAULT_ALPHA``, so a gross engine mismatch can fail
#: the gate while the null fails it with probability alpha exactly.
DEFAULT_PERMUTATIONS = 999


# ---------------------------------------------------------------------------
# special functions (pure python/numpy)
# ---------------------------------------------------------------------------

def kolmogorov_sf(t: float) -> float:
    """P(K > t) for the Kolmogorov distribution (asymptotic series)."""
    if t <= 0:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * t * t)
        total += term
        if abs(term) < 1e-12:
            break
    return min(1.0, max(0.0, total))


def _gamma_q(a: float, x: float) -> float:
    """The regularised upper incomplete gamma function Q(a, x).

    Series expansion for ``x < a + 1``, Lentz continued fraction
    otherwise — the classic split that converges fast on both sides.
    """
    if a <= 0 or x < 0:
        raise ValueError(f"need a > 0 and x >= 0, got a={a}, x={x}")
    if x == 0:
        return 1.0
    log_prefix = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        term = 1.0 / a
        total = term
        denom = a
        for _ in range(1000):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        return min(1.0, max(0.0, 1.0 - total * math.exp(log_prefix)))
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return min(1.0, max(0.0, h * math.exp(log_prefix)))


def chi2_sf(x: float, df: float) -> float:
    """P(X > x) for a chi-square variable with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError(f"df must be > 0, got {df}")
    if x <= 0:
        return 1.0
    return _gamma_q(df / 2.0, x / 2.0)


# ---------------------------------------------------------------------------
# the three statistics
# ---------------------------------------------------------------------------

def ks_2samp(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """Two-sample KS: ``(statistic, asymptotic p-value)``.

    On discrete samples (integer round counts) the asymptotic p-value
    is conservative — ties can only shrink the statistic — which is the
    safe direction for an equivalence gate asserting non-rejection.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("both samples must be non-empty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / n
    cdf_b = np.searchsorted(b, grid, side="right") / m
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    en = math.sqrt(n * m / (n + m))
    return stat, kolmogorov_sf((en + 0.12 + 0.11 / en) * stat)


def pool_bins(
    counts_a: np.ndarray, counts_b: np.ndarray, min_count: float = 10.0
) -> Tuple[np.ndarray, np.ndarray]:
    """Pool adjacent bins until every pooled bin's combined total is at
    least ``min_count`` (the last bin absorbs any small remainder), so
    the chi-square asymptotics hold on sparse tails."""
    pooled_a, pooled_b = [], []
    acc_a = acc_b = 0.0
    for va, vb in zip(counts_a, counts_b):
        acc_a += float(va)
        acc_b += float(vb)
        if acc_a + acc_b >= min_count:
            pooled_a.append(acc_a)
            pooled_b.append(acc_b)
            acc_a = acc_b = 0.0
    if acc_a or acc_b:
        if pooled_a:
            pooled_a[-1] += acc_a
            pooled_b[-1] += acc_b
        else:
            pooled_a.append(acc_a)
            pooled_b.append(acc_b)
    return np.asarray(pooled_a), np.asarray(pooled_b)


def chi2_homogeneity(
    counts_a: Sequence[float],
    counts_b: Sequence[float],
    *,
    min_count: float = 10.0,
) -> Tuple[float, float]:
    """Two-sample chi-square test of homogeneity on binned counts.

    Tests whether two histograms over the same bins (here: new
    infections per round, pooled over runs) draw from one distribution:
    the 2×k contingency statistic against ``chi2(k - 1)``.  Returns
    ``(statistic, p_value)``; degenerate inputs (one informative bin)
    return ``(0, 1)``.
    """
    counts_a = np.asarray(counts_a, dtype=float)
    counts_b = np.asarray(counts_b, dtype=float)
    if counts_a.shape != counts_b.shape:
        raise ValueError(
            f"histograms must align, got {counts_a.shape} vs {counts_b.shape}"
        )
    if np.any(counts_a < 0) or np.any(counts_b < 0):
        raise ValueError("counts must be non-negative")
    counts_a, counts_b = pool_bins(counts_a, counts_b, min_count)
    total_a = counts_a.sum()
    total_b = counts_b.sum()
    if total_a == 0 or total_b == 0:
        raise ValueError("each histogram needs at least one observation")
    keep = (counts_a + counts_b) > 0
    counts_a, counts_b = counts_a[keep], counts_b[keep]
    k = len(counts_a)
    if k < 2:
        return 0.0, 1.0
    grand = total_a + total_b
    stat = 0.0
    for col, total in ((counts_a, total_a), (counts_b, total_b)):
        expected = (counts_a + counts_b) * (total / grand)
        stat += float(np.sum((col - expected) ** 2 / expected))
    return stat, chi2_sf(stat, k - 1)


def _pooled_slices(
    totals: np.ndarray, min_count: float
) -> Tuple[Tuple[int, int], ...]:
    """Contiguous ``[start, stop)`` round ranges whose combined totals
    reach ``min_count`` each (last range absorbs the remainder)."""
    slices = []
    acc = 0.0
    start = 0
    for r in range(len(totals)):
        acc += float(totals[r])
        if acc >= min_count:
            slices.append((start, r + 1))
            start = r + 1
            acc = 0.0
    if start < len(totals):
        if slices:
            slices[-1] = (slices[-1][0], len(totals))
        else:
            slices.append((0, len(totals)))
    return tuple(slices)


def curve_permutation_test(
    curves_a: np.ndarray,
    curves_b: np.ndarray,
    *,
    permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
    min_count: float = 10.0,
) -> Tuple[float, float]:
    """Permutation-calibrated chi-square on per-run infection curves.

    ``curves_a`` / ``curves_b`` are ``(runs, rounds)`` matrices of new
    infections per round, one row per run (:func:`per_run_curves`).  The
    statistic is the pooled 2×k contingency chi-square on the group
    totals — exactly :func:`chi2_homogeneity`'s statistic — but the
    p-value is the fraction of random run-label reassignments whose
    statistic is at least as large, because runs (not infections) are
    the independent sampling units: within a run the whole delivery
    wave shifts together, which inflates the pooled statistic far
    beyond its nominal chi-square null.  Returns ``(statistic, p)``
    with ``p >= 1 / (permutations + 1)``; the seeded generator makes
    the p-value deterministic for a given input pair.
    """
    curves_a = np.asarray(curves_a, dtype=np.int64)
    curves_b = np.asarray(curves_b, dtype=np.int64)
    if curves_a.ndim != 2 or curves_b.ndim != 2:
        raise ValueError("curves must be (runs, rounds) matrices")
    if permutations < 1:
        raise ValueError(f"permutations must be >= 1, got {permutations}")
    width = max(curves_a.shape[1], curves_b.shape[1])
    curves_a = np.pad(curves_a, ((0, 0), (0, width - curves_a.shape[1])))
    curves_b = np.pad(curves_b, ((0, 0), (0, width - curves_b.shape[1])))
    # Bin rounds by the *combined* totals — invariant under run
    # relabelling, so the binning never leaks group identity.
    totals = curves_a.sum(axis=0) + curves_b.sum(axis=0)
    slices = _pooled_slices(totals, min_count)
    stacked = np.vstack([curves_a, curves_b])
    binned = np.stack(
        [stacked[:, s:e].sum(axis=1) for s, e in slices], axis=1
    ).astype(float)
    n_a = curves_a.shape[0]
    n_total = stacked.shape[0]
    column_sum = binned.sum(axis=0)

    def statistic(rows_a: np.ndarray) -> float:
        sum_a = binned[rows_a].sum(axis=0)
        sum_b = column_sum - sum_a
        total_a, total_b = sum_a.sum(), sum_b.sum()
        if total_a == 0 or total_b == 0:
            return 0.0
        keep = column_sum > 0
        grand = total_a + total_b
        stat = 0.0
        for col, total in ((sum_a[keep], total_a), (sum_b[keep], total_b)):
            expected = column_sum[keep] * (total / grand)
            stat += float(np.sum((col - expected) ** 2 / expected))
        return stat

    observed = statistic(np.arange(n_a))
    rng = np.random.default_rng(seed)
    at_least = 0
    for _ in range(permutations):
        if statistic(rng.permutation(n_total)[:n_a]) >= observed:
            at_least += 1
    return observed, (at_least + 1) / (permutations + 1)


def wilson_ci(
    successes: int, trials: int, z: float = 3.0
) -> Tuple[float, float]:
    """The Wilson score interval for a binomial proportion.

    The default ``z = 3`` (≈ 99.7 % two-sided) keeps the equivalence
    gate's overlap check wide enough that a seeded CI job essentially
    never false-alarms.
    """
    if trials <= 0:
        raise ValueError(f"trials must be > 0, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}")
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
        / denom
    )
    return max(0.0, centre - half), min(1.0, centre + half)


# ---------------------------------------------------------------------------
# result-object plumbing
# ---------------------------------------------------------------------------

def delivery_round_samples(result) -> np.ndarray:
    """Per-run rounds-to-threshold, with censored runs at ``max_rounds``
    (the same censoring ``mean_rounds`` applies)."""
    rounds = result.rounds_to_threshold().astype(float)
    rounds[np.isnan(rounds)] = float(result.scenario.max_rounds)
    return rounds


def per_run_curves(result) -> np.ndarray:
    """``(runs, rounds)`` new-infection counts, one row per run.

    Trajectories are non-decreasing and padded with their final value,
    so the diff along the round axis is exactly each run's per-round
    delivery histogram with zero tails.
    """
    return np.diff(result.counts.astype(np.int64), axis=1)


def new_infection_curve(result, width: int) -> np.ndarray:
    """New infections per round, pooled over runs, padded to ``width``."""
    diffs = per_run_curves(result).sum(axis=0)
    if len(diffs) < width:
        diffs = np.pad(diffs, (0, width - len(diffs)))
    return diffs[:width]


def delivery_successes(result) -> Tuple[int, int]:
    """``(runs that reached the threshold, total runs)``."""
    rounds = result.rounds_to_threshold()
    return int((~np.isnan(rounds)).sum()), int(result.runs)


@dataclass(frozen=True)
class EquivalenceReport:
    """The three tests' verdict on one result pair."""

    ks_stat: float
    ks_p: float
    #: Pooled-curve chi-square statistic with its *permutation* p-value
    #: (:func:`curve_permutation_test`) — never the nominal chi-square
    #: tail, which the within-run clustering invalidates.
    chi2_stat: float
    chi2_p: float
    reliability_ci_a: Tuple[float, float]
    reliability_ci_b: Tuple[float, float]
    alpha: float

    @property
    def ci_overlap(self) -> bool:
        (lo_a, hi_a), (lo_b, hi_b) = (
            self.reliability_ci_a,
            self.reliability_ci_b,
        )
        return not (hi_a < lo_b or hi_b < lo_a)

    @property
    def passed(self) -> bool:
        return (
            self.ks_p > self.alpha
            and self.chi2_p > self.alpha
            and self.ci_overlap
        )

    def describe(self) -> str:
        return (
            f"KS D={self.ks_stat:.4f} p={self.ks_p:.4g} | "
            f"chi2={self.chi2_stat:.2f} p={self.chi2_p:.4g} | "
            f"reliability CI A=[{self.reliability_ci_a[0]:.4f}, "
            f"{self.reliability_ci_a[1]:.4f}] "
            f"B=[{self.reliability_ci_b[0]:.4f}, "
            f"{self.reliability_ci_b[1]:.4f}] | "
            f"{'PASS' if self.passed else 'FAIL'} (alpha={self.alpha:g})"
        )


def compare_results(
    result_a,
    result_b,
    *,
    alpha: float = DEFAULT_ALPHA,
    permutations: int = DEFAULT_PERMUTATIONS,
    seed: int = 0,
) -> EquivalenceReport:
    """Run all three equivalence tests on two Monte-Carlo results.

    Both results must describe the same scenario (same n, protocol,
    attack, threshold); the function checks the facts the statistics
    depend on and raises ``ValueError`` on a mismatch, so a passing
    report can never come from comparing different experiments.
    ``permutations`` and ``seed`` parameterise the curve test's
    permutation calibration (deterministic for a fixed seed).
    """
    sc_a, sc_b = result_a.scenario, result_b.scenario
    if (
        sc_a.n != sc_b.n
        or sc_a.protocol != sc_b.protocol
        or sc_a.threshold != sc_b.threshold
        or sc_a.max_rounds != sc_b.max_rounds
    ):
        raise ValueError(
            "cannot compare results from different scenarios: "
            f"{sc_a.describe()} vs {sc_b.describe()}"
        )
    ks_stat, ks_p = ks_2samp(
        delivery_round_samples(result_a), delivery_round_samples(result_b)
    )
    chi2_stat, chi2_p = curve_permutation_test(
        per_run_curves(result_a),
        per_run_curves(result_b),
        permutations=permutations,
        seed=seed,
    )
    ci_a = wilson_ci(*delivery_successes(result_a))
    ci_b = wilson_ci(*delivery_successes(result_b))
    return EquivalenceReport(
        ks_stat=ks_stat,
        ks_p=ks_p,
        chi2_stat=chi2_stat,
        chi2_p=chi2_p,
        reliability_ci_a=ci_a,
        reliability_ci_b=ci_b,
        alpha=alpha,
    )
