"""Paired significance testing and a parametric quadrant estimate of UIR.

The Wilcoxon signed-rank test is self-contained because its exact-mode
behavior is part of this package's contract: zero differences are dropped,
tied magnitudes share average ranks, and for small samples the two-sided
p-value comes from the exact distribution of the rank sum over all sign
assignments.  The parametric estimate fits a bivariate normal to per-case
score differences and integrates it over the positive and negative
quadrants with deterministic Gauss-Legendre quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from operator import sub
from typing import TYPE_CHECKING

from unanimity.data import ScoreTable
from unanimity.metrics import MetricPair, metric_pair_columns

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the functions that use it, so that commands
# which never reach this module's statistics (eval, rank, alpha-sweep)
# never pay its import.

EXACT_CUTOFF = 20


@dataclass(frozen=True)
class WilcoxonResult:
    """Two-sided signed-rank test outcome on paired samples.

    ``w_plus`` and ``w_minus`` are the rank sums of the positive and the
    negative differences; the test statistic is the smaller of the two.
    """

    w_plus: float
    w_minus: float
    n_effective: int
    p_value: float
    significant: bool

    @property
    def w_statistic(self) -> float:
        return min(self.w_plus, self.w_minus)


def _ndtr(x: float) -> float:
    """Standard normal CDF, with the branch structure of Cephes' ``ndtr``:
    ``erf`` near zero, ``erfc`` of the magnitude in both tails."""
    z = x * math.sqrt(0.5)
    if abs(z) < math.sqrt(0.5):
        return 0.5 + 0.5 * math.erf(z)
    y = 0.5 * math.erfc(abs(z))
    return 1.0 - y if z > 0.0 else y


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d array, tied values sharing their mean rank."""
    import numpy as np

    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], ordered.size]
    ranks = np.empty(ordered.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _signed_ranks(x, y):
    import numpy as np

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("paired samples must be equal-length 1-d sequences")
    if x.size == 0:
        raise ValueError("empty samples")
    d = x - y
    d = d[d != 0.0]
    if d.size == 0:
        return d, np.empty(0), 0.0, 0.0
    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    return d, ranks, w_plus, w_minus


def _exact_two_sided_p(ranks: np.ndarray, w_min: float) -> float:
    import numpy as np

    # Average ranks are half-integers; double them onto an exact int lattice.
    r2 = np.rint(ranks * 2.0).astype(np.int64)
    total = int(r2.sum())
    counts = np.zeros(total + 1, dtype=np.int64)
    counts[0] = 1
    for r in r2:
        shifted = np.zeros_like(counts)
        shifted[r:] = counts[: counts.size - r]
        counts = counts + shifted
    w2 = int(np.rint(2.0 * w_min))
    sums = np.arange(total + 1)
    in_tail = np.minimum(sums, total - sums) <= min(w2, total - w2)
    n_tail = int(counts[in_tail].sum())
    return n_tail / (2 ** ranks.size)


def _approx_two_sided_p(d: np.ndarray, w_min: float, n: int) -> float:
    import numpy as np

    mean = n * (n + 1) / 4.0
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    tie_term = float((tie_counts.astype(float) ** 3 - tie_counts).sum())
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
    # w_min <= mean, so the continuity correction moves toward the mean.
    z = (w_min - mean + 0.5) / math.sqrt(var)
    return min(1.0, 2.0 * _ndtr(z))


def wilcoxon_signed_rank(x, y, significance_level: float = 0.05) -> WilcoxonResult:
    """Two-sided paired signed-rank test.

    Up to ``EXACT_CUTOFF`` non-zero differences the p-value is exact: with
    T = min(W+, W-), p = P(T <= T_obs) over all 2^n equiprobable sign
    assignments.  Larger samples use the normal approximation with tie and
    continuity corrections.  With no non-zero differences p = 1.
    """
    if not 0.0 < significance_level < 1.0:
        raise ValueError(f"significance level {significance_level} outside (0, 1)")
    d, ranks, w_plus, w_minus = _signed_ranks(x, y)
    n = int(d.size)
    if n == 0:
        return WilcoxonResult(0.0, 0.0, 0, 1.0, False)
    w = min(w_plus, w_minus)
    if n <= EXACT_CUTOFF:
        p = _exact_two_sided_p(ranks, w)
    else:
        p = _approx_two_sided_p(d, w, n)
    return WilcoxonResult(w_plus, w_minus, n, p, p < significance_level)


class ImprovementCategory(Enum):
    """Joint verdict of the per-metric significance tests for a system pair."""

    CONCORDANT_SIGNIFICANT = "concordant_significant"
    OPPOSITE_SIGNIFICANT = "opposite_significant"
    NON_SIGNIFICANT = "non_significant"


def categorize_improvement(
    table: ScoreTable,
    sys_a: str,
    sys_b: str,
    significance_level: float = 0.05,
) -> ImprovementCategory:
    """Classify a system pair by its two per-metric signed-rank tests.

    ``OPPOSITE_SIGNIFICANT`` needs both metrics significant with opposite
    rank-sum directions; ``CONCORDANT_SIGNIFICANT`` needs at least one
    significant metric and no opposition.  The category is symmetric in the
    two systems.
    """
    names = table.metric_names
    if len(names) != 2:
        raise ValueError(
            f"improvement categories need exactly 2 metrics, table has {len(names)}"
        )
    directions = []
    for name in names:
        x = table.scores_for(sys_a, name)
        y = table.scores_for(sys_b, name)
        result = wilcoxon_signed_rank(x, y, significance_level)
        if not result.significant:
            directions.append(0)
            continue
        directions.append(1 if result.w_plus > result.w_minus else -1)
    if all(direction == 0 for direction in directions):
        return ImprovementCategory.NON_SIGNIFICANT
    if 1 in directions and -1 in directions:
        return ImprovementCategory.OPPOSITE_SIGNIFICANT
    return ImprovementCategory.CONCORDANT_SIGNIFICANT


REGULARIZATION = 1e-9


@dataclass(frozen=True)
class BivariateNormalModel:
    """Mean and covariance of per-case score differences on two metrics."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        import numpy as np

        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        if mean.shape != (2,) or cov.shape != (2, 2):
            raise ValueError("model must be 2-dimensional")
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-15):
            raise ValueError("covariance must be symmetric")
        if cov[0, 0] < 0.0 or cov[1, 1] < 0.0:
            raise ValueError("negative variance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    def mirrored(self) -> "BivariateNormalModel":
        """Same spread, negated mean: its positive quadrant is this model's
        negative one."""
        return BivariateNormalModel(-self.mean, self.covariance)


def fit_bivariate_normal(deltas) -> BivariateNormalModel:
    """Fit mean and unbiased covariance to (delta_p, delta_r) samples.

    Near-singular fits (smallest eigenvalue below 1e-9, e.g. constant
    differences) get 1e-9 added to the diagonal so quadrant probabilities
    stay well defined.  Needs at least 3 samples.
    """
    import numpy as np

    arr = np.asarray(deltas, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise ValueError("insufficient samples for parametric UIR (need >= 3 pairs)")
    mean = arr.mean(axis=0)
    cov = np.cov(arr, rowvar=False, ddof=1)
    cov = (cov + cov.T) / 2.0
    if float(np.linalg.eigvalsh(cov)[0]) < REGULARIZATION:
        cov = cov + REGULARIZATION * np.eye(2)
    return BivariateNormalModel(mean, cov)


@functools.cache
def _legendre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per size
    and returned read-only because every caller shares them."""
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _bvn_upper_tail(dh: float, dk: float, r: float) -> float:
    """P(X > dh, Y > dk) for standard bivariate normal X, Y with correlation r.

    Gauss-Legendre quadrature after Drezner & Wesolowsky (1990) as refined
    by Genz (2004): the moderate-correlation branch integrates over the
    arcsine reparameterization, the high-correlation branch subtracts an
    analytic singular part.  Absolute error is below 5e-16, far inside the
    1e-6 needed here; r = +-1 reduces to exact single-normal expressions.
    """
    import numpy as np

    if math.isinf(dh) or math.isinf(dk):
        if dh == math.inf or dk == math.inf:
            return 0.0
        if dh == -math.inf:
            return 1.0 if dk == -math.inf else _ndtr(-dk)
        return _ndtr(-dh)
    if r == 0.0:
        return _ndtr(-dh) * _ndtr(-dk)

    if abs(r) < 0.3:
        nodes = 6
    elif abs(r) < 0.75:
        nodes = 12
    else:
        nodes = 20
    x, w = _legendre_rule(nodes)
    x = 1.0 + x  # shift onto (0, 2); symmetry of the nodes covers both halves

    tp = 2.0 * math.pi
    h = dh
    k = dk
    hk = h * k
    bvn = 0.0
    if abs(r) < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = math.asin(r) / 2.0
        sn = np.sin(asr * x)
        bvn = float(np.exp((sn * hk - hs) / (1.0 - sn**2)) @ w)
        bvn = bvn * asr / tp + _ndtr(-h) * _ndtr(-k)
    else:
        if r < 0.0:
            k = -k
            hk = -hk
        if abs(r) < 1.0:
            a_sq = (1.0 - r) * (1.0 + r)
            a = math.sqrt(a_sq)
            bs = (h - k) ** 2
            c = (4.0 - hk) / 8.0
            d = (12.0 - hk) / 80.0
            asr = -(bs / a_sq + hk) / 2.0
            if asr > -100.0:
                bvn = (
                    a
                    * math.exp(asr)
                    * (1.0 - c * (bs - a_sq) * (1.0 - d * bs) / 3.0 + c * d * a_sq**2)
                )
            if hk > -100.0:
                b = math.sqrt(bs)
                sp = math.sqrt(tp) * _ndtr(-b / a)
                bvn -= math.exp(-hk / 2.0) * sp * b * (1.0 - c * bs * (1.0 - d * bs) / 3.0)
            a /= 2.0
            xs = (a * x) ** 2
            asr = -(bs / xs + hk) / 2.0
            inside = asr > -100.0
            xs = xs[inside]
            sp = 1.0 + c * xs * (1.0 + 5.0 * d * xs)
            rs = np.sqrt(1.0 - xs)
            ep = np.exp(-(hk / 2.0) * xs / (1.0 + rs) ** 2) / rs
            bvn = float(a * ((np.exp(asr[inside]) * (sp - ep)) @ w[inside]) - bvn) / tp
        if r > 0.0:
            bvn += _ndtr(-max(h, k))
        elif h >= k:
            bvn = -bvn
        else:
            if h < 0.0:
                tail = _ndtr(k) - _ndtr(h)
            else:
                tail = _ndtr(-h) - _ndtr(-k)
            bvn = tail - bvn
    return min(1.0, max(0.0, bvn))


def orthant_probability(model: BivariateNormalModel) -> float:
    """Mass of the model on the quadrant where both differences are >= 0."""
    mu = model.mean
    cov = model.covariance
    s1 = math.sqrt(cov[0, 0])
    s2 = math.sqrt(cov[1, 1])
    # Zero-variance coordinates degenerate to point masses at the mean.
    if s1 == 0.0 and s2 == 0.0:
        return 1.0 if mu[0] >= 0.0 and mu[1] >= 0.0 else 0.0
    if s1 == 0.0:
        return _ndtr(mu[1] / s2) if mu[0] >= 0.0 else 0.0
    if s2 == 0.0:
        return _ndtr(mu[0] / s1) if mu[1] >= 0.0 else 0.0
    rho = min(1.0, max(-1.0, cov[0, 1] / (s1 * s2)))
    return _bvn_upper_tail(-mu[0] / s1, -mu[1] / s2, rho)


def parametric_uir(
    table: ScoreTable,
    sys_a: str,
    sys_b: str,
    pair: MetricPair | str | None = None,
) -> float:
    """Difference between positive- and negative-quadrant mass of the fitted
    difference model; a smoothed stand-in for the UIR, in [-1, 1].

    Exactly antisymmetric in the two systems: swapping them negates every
    fitted difference, which mirrors the mean and keeps the covariance.
    """
    p_col, r_col = metric_pair_columns(table, pair)
    delta_p = map(sub, table.scores_for(sys_a, p_col), table.scores_for(sys_b, p_col))
    delta_r = map(sub, table.scores_for(sys_a, r_col), table.scores_for(sys_b, r_col))
    model = fit_bivariate_normal(list(zip(delta_p, delta_r)))
    return orthant_probability(model) - orthant_probability(model.mirrored())
