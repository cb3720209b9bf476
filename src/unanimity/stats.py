"""Paired significance testing and a parametric quadrant estimate of UIR.

The Wilcoxon signed-rank test is self-contained because its exact-mode
behavior is part of this package's contract: zero differences are dropped,
tied magnitudes share average ranks, and for small samples the two-sided
p-value comes from the exact distribution of the rank sum over all sign
assignments.  The parametric estimate fits a bivariate normal to per-case
score differences and takes its positive- minus negative-quadrant mass
in closed form.  ``orthant_probability`` integrates one quadrant with
deterministic Gauss-Legendre quadrature.

Everything here is plain Python: the inputs are small (tens of ranks, 2 x 2
covariances, at most 20 quadrature nodes), and floats are accumulated in
explicit loops so that their summation order is fixed.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from enum import Enum
from itertools import accumulate
from operator import neg, sub
from struct import unpack_from
from typing import NamedTuple

from unanimity.data import ScoreTable
from unanimity.metrics import metric_pair_columns
from unanimity.uir import _PackedRanks

EXACT_CUTOFF = 20


class WilcoxonResult(NamedTuple):
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


def _rank_sums(x, y) -> tuple[tuple[int, ...], int]:
    """Tie-group sizes of the non-zero |x - y|, in ascending order of the
    magnitude, and twice the rank sum W+ of the positive differences.

    Group sizes fix the average ranks: a group of ``size`` values after the
    ``start`` smaller ones shares the rank (2 * start + size + 1) / 2.
    Doubled rank sums are integers, so they are exact in any order.  An
    infinite difference takes the largest rank; a NaN one is refused.
    """
    try:
        xs = list(map(float, x))
        ys = list(map(float, y))
    except TypeError:
        raise ValueError("paired samples must be equal-length 1-d sequences") from None
    if len(xs) != len(ys):
        raise ValueError("paired samples must be equal-length 1-d sequences")
    if not xs:
        raise ValueError("empty samples")
    d = list(map(sub, xs, ys))
    # A NaN leaves the sort order of the differences undefined.
    if any(map(math.isnan, d)):
        raise ValueError("paired differences must not be NaN")
    d.sort()
    # Zeros of either sign sit between the negative and positive runs.
    lo = bisect_left(d, 0.0)
    positive = d[bisect_right(d, 0.0, lo) :]
    # The mirrored negatives and the positives are two ascending runs,
    # which the sort merges in linear time.
    magnitudes = [*map(neg, reversed(d[:lo])), *positive]
    magnitudes.sort()
    sizes = []
    w_plus2 = 0
    # Every positive difference is one of the magnitudes, so the walk over
    # the tie groups moves through ``positive`` in step.
    start = i = 0
    while start < len(magnitudes):
        value = magnitudes[start]
        end = bisect_right(magnitudes, value, start)
        k = bisect_right(positive, value, i)
        w_plus2 += (start + end + 1) * (k - i)
        sizes.append(end - start)
        start = end
        i = k
    return tuple(sizes), w_plus2


# Width of one coefficient slot in the packed null distribution.  A count is
# at most 2^n <= 2^EXACT_CUTOFF, so it never carries into the next slot.
_SLOT_BITS = 32


@functools.lru_cache(maxsize=1024)
def _null_cumulative(sizes: tuple[int, ...]) -> list[int]:
    """Cumulative counts of the doubled rank sum over all 2^n sign
    assignments, for sums 0 .. n(n+1)/2: the lower half of the exact null
    distribution, which is symmetric.

    The distribution is the coefficient list of the product of
    (1 + z^r) over the doubled ranks r.  The product is built on one
    integer holding each coefficient in its own ``_SLOT_BITS``-bit slot,
    so multiplying by (1 + z^r) is one shift and one add.  Cached per tie
    pattern; each entry holds at most 211 counts (n = 20).
    """
    n = sum(sizes)
    half = n * (n + 1) // 2
    poly = 1
    start = 0
    for size in sizes:
        shift = _SLOT_BITS * (2 * start + size + 1)
        for _ in range(size):
            poly += poly << shift
        start += size
    packed = poly.to_bytes(_SLOT_BITS // 8 * (2 * half + 1), "little")
    return list(accumulate(unpack_from(f"<{half + 1}I", packed)))


def _exact_two_sided_p(sizes: tuple[int, ...], w2_min: int) -> float:
    """P(min(W+, W-) <= w2_min / 2) over all sign assignments."""
    # The tails are equally heavy by symmetry, and overlap only at W+ = W-, where p = 1.
    return min(1.0, 2 * _null_cumulative(sizes)[w2_min] / 2 ** sum(sizes))


def _approx_two_sided_p(sizes: tuple[int, ...], w_min: float, n: int) -> float:
    mean = n * (n + 1) / 4.0
    tie_term = float(sum((size**3 - size) * k for size, k in Counter(sizes).items()))
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
    # w_min <= mean, so the continuity correction moves toward the mean.
    z = (w_min - mean + 0.5) / math.sqrt(var)
    return min(1.0, 2.0 * _ndtr(z))


def _check_level(significance_level: float) -> None:
    if not 0.0 < significance_level < 1.0:
        raise ValueError(f"significance level {significance_level} outside (0, 1)")


def wilcoxon_signed_rank(x, y, significance_level: float = 0.05) -> WilcoxonResult:
    """Two-sided paired signed-rank test.

    Up to ``EXACT_CUTOFF`` non-zero differences the p-value is exact: with
    T = min(W+, W-), p = P(T <= T_obs) over all 2^n equiprobable sign
    assignments.  Larger samples use the normal approximation with tie and
    continuity corrections.  With no non-zero differences p = 1.  A NaN
    difference raises ``ValueError``.
    """
    _check_level(significance_level)
    sizes, w_plus2 = _rank_sums(x, y)
    n = sum(sizes)
    w_minus2 = n * (n + 1) - w_plus2
    w_plus = w_plus2 / 2
    w_minus = w_minus2 / 2
    if n <= EXACT_CUTOFF:
        p = _exact_two_sided_p(sizes, min(w_plus2, w_minus2))
    else:
        p = _approx_two_sided_p(sizes, min(w_plus, w_minus), n)
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
    return _categories(table, [(sys_a, sys_b)], significance_level)[0]


def _categories(table: ScoreTable, pairs: list, significance_level: float, ranks=None) -> list:
    """``categorize_improvement`` of each pair, in the order given, from one
    packing of the table, or from ``ranks`` if given."""
    names = metric_pair_columns(table)
    ranks = ranks or _PackedRanks(table, [s for pair in pairs for s in pair])
    _check_level(significance_level)
    # A column whose p is bounded below this is significant without its test:
    # rounding is monotone, and the margin covers _ndtr's error.
    settled_below = significance_level * (1 - 1e-9)
    categories = []
    for a, b in pairs:
        directions = set()
        for name, (ge, le) in zip(names, ranks.masks(a, b)):
            n = ranks.n_total - (ge & le).bit_count()
            k = (ge & ~le).bit_count()
            # Mid-ranks average 1..n within tie groups, so the k positives have
            # k(k+1)/2 <= W+ <= k(2n-k+1)/2, and min(W+, W-) <= w_max.
            w_max = min(k * (2 * n - k + 1), n * (n + 1) - k * (k + 1)) // 2
            sign = 1 if 2 * k > n else -1
            if n <= EXACT_CUTOFF and k in (0, n):
                # Every non-zero difference has one sign, so the smaller rank
                # sum is 0: the first cumulative null count, 1 for any ties.
                p = min(1.0, 2 / 2**n)
            elif n > EXACT_CUTOFF and _approx_two_sided_p((), w_max, n) < settled_below:
                # Ties only shrink the variance: the test's z is at most this one.
                p = 0.0
            else:
                x, y = table.scores_for(a, name), table.scores_for(b, name)
                result = wilcoxon_signed_rank(x, y, significance_level)
                p, sign = result.p_value, 1 if result.w_plus > result.w_minus else -1
            if p < significance_level:
                directions.add(sign)
        categories.append(
            ImprovementCategory.OPPOSITE_SIGNIFICANT if len(directions) == 2
            else ImprovementCategory.CONCORDANT_SIGNIFICANT if directions
            else ImprovementCategory.NON_SIGNIFICANT
        )
    return categories


REGULARIZATION = 1e-9
_TOO_FEW_SAMPLES = "insufficient samples for parametric UIR (need >= 3 pairs)"


class _BivariateNormalFields(NamedTuple):
    mean: tuple[float, float]
    covariance: tuple[tuple[float, float], tuple[float, float]]


class BivariateNormalModel(_BivariateNormalFields):
    """Mean and covariance of per-case score differences on two metrics.

    Takes any array-likes of shape (2,) and (2, 2) and stores them as
    tuples of floats.  The mean and variances must be finite and the
    covariance symmetric and positive semi-definite, up to rounding.
    """

    __slots__ = ()

    def __new__(cls, mean, covariance):
        try:
            m0, m1 = map(float, mean)
            (c00, c01), (c10, c11) = (map(float, row) for row in covariance)
        except (TypeError, ValueError):
            raise ValueError("model must be 2-dimensional") from None
        # Each entry within 1e-15 of its transpose's, or equal to it (an
        # infinity); a NaN is close to nothing.
        if not (c01 == c10 or abs(c01 - c10) <= 1e-15) or math.isnan(c00) or math.isnan(c11):
            raise ValueError("covariance must be symmetric")
        if c00 < 0.0 or c11 < 0.0:
            raise ValueError("negative variance")
        if not all(map(math.isfinite, (m0, m1, c00, c11))):
            raise ValueError("mean and variances must be finite")
        if abs(c01) > (1.0 + 1e-9) * math.sqrt(c00) * math.sqrt(c11):
            raise ValueError("covariance must be positive semi-definite")
        return super().__new__(cls, (m0, m1), ((c00, c01), (c10, c11)))

    @classmethod
    def _make(cls, iterable) -> "BivariateNormalModel":
        # The tuple-level constructor behind ``_replace``, which would
        # otherwise skip the checks.
        return cls(*iterable)

    def mirrored(self) -> "BivariateNormalModel":
        """Same spread, negated mean: its positive quadrant is this model's
        negative one."""
        return BivariateNormalModel((-self.mean[0], -self.mean[1]), self.covariance)


def fit_bivariate_normal(deltas) -> BivariateNormalModel:
    """Fit mean and unbiased covariance to (delta_p, delta_r) samples.

    Near-singular fits (smallest eigenvalue below 1e-9, e.g. constant
    differences) get 1e-9 added to the diagonal so quadrant probabilities
    stay well defined.  Needs at least 3 samples.
    """
    try:
        rows = [tuple(map(float, row)) for row in deltas]
    except TypeError:
        rows = []
    if len(rows) < 3 or any(len(row) != 2 for row in rows):
        raise ValueError(_TOO_FEW_SAMPLES)
    delta_p, delta_r = zip(*rows)
    mean_p, mean_r, c00, c01, c11 = _fit(delta_p, delta_r)
    return BivariateNormalModel((mean_p, mean_r), ((c00, c01), (c01, c11)))


def _fit(delta_p, delta_r) -> tuple[float, float, float, float, float]:
    """The moments (mean_p, mean_r, c00, c01, c11) ``fit_bivariate_normal`` fits to two columns."""
    n = len(delta_p)
    if n < 3:
        raise ValueError(_TOO_FEW_SAMPLES)
    # Explicit loops fix the summation order: builtin sum() of floats
    # compensates since Python 3.12.
    mean_p = mean_r = 0.0
    for p in delta_p:
        mean_p += p
    for r in delta_r:
        mean_r += r
    mean_p /= n
    mean_r /= n
    c00 = c01 = c11 = 0.0
    for p, r in zip(delta_p, delta_r):
        dp = p - mean_p
        dr = r - mean_r
        c00 += dp * dp
        c01 += dp * dr
        c11 += dr * dr
    scale = 1.0 / (n - 1)
    c00 *= scale
    c01 *= scale
    c11 *= scale
    smallest_eigenvalue = (c00 + c11) / 2.0 - math.hypot((c00 - c11) / 2.0, c01)
    if smallest_eigenvalue < REGULARIZATION:
        c00 += REGULARIZATION
        c11 += REGULARIZATION
    return mean_p, mean_r, c00, c01, c11


# The 20-point Gauss-Legendre rule on [-1, 1], as the exact doubles that the
# reference ``leggauss`` routine returns.  It is symmetric: its positive half is kept.
_NODES = (0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
          0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
          0.9639719272779138, 0.993128599185095)
_WEIGHTS = (0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
            0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
            0.040601429800386446, 0.017614007139150893)
_GAUSS_LEGENDRE = ((*map(neg, reversed(_NODES)), *_NODES), (*reversed(_WEIGHTS), *_WEIGHTS))


# Bounds past this count as infinite: the tails they cut off are below the
# smallest double, and nearer ones keep the quadrature's products finite.
_FAR = 1e20


def _bvn_upper_tail(h: float, k: float, r: float) -> float:
    """P(X > h, Y > k) for standard bivariate normal X, Y with correlation r.

    20-point Gauss-Legendre quadrature after Drezner & Wesolowsky (1990) as
    refined by Genz (2004): the moderate-correlation branch integrates over the
    arcsine reparameterization, the high-correlation branch subtracts an
    analytic singular part.  Absolute error is below 5e-16, far inside the
    1e-6 needed here; r = +-1 reduces to exact single-normal expressions.
    """
    if h > _FAR or k > _FAR:
        return 0.0
    if h < -_FAR or k < -_FAR:
        # The far bound always holds; the other one alone sets the tail.
        return _ndtr(-max(h, k))
    tp = 2.0 * math.pi
    hk = h * k
    bvn = 0.0
    if abs(r) < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = math.asin(r) / 2.0
        for node, weight in zip(*_GAUSS_LEGENDRE):
            sn = math.sin(asr * (1.0 + node))
            bvn += math.exp((sn * hk - hs) / (1.0 - sn * sn)) * weight
        return min(1.0, max(0.0, bvn * asr / tp + _ndtr(-h) * _ndtr(-k)))

    # Each node is shifted onto (0, 2); symmetry of the nodes covers both
    # halves of the interval.
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
        integral = 0.0
        for node, weight in zip(*_GAUSS_LEGENDRE):
            ax = a * (1.0 + node)
            xs = ax * ax
            asr = -(bs / xs + hk) / 2.0
            if asr > -100.0:
                sp = 1.0 + c * xs * (1.0 + 5.0 * d * xs)
                rs = math.sqrt(1.0 - xs)
                rs1 = 1.0 + rs
                ep = math.exp(-(hk / 2.0) * xs / (rs1 * rs1)) / rs
                integral += math.exp(asr) * (sp - ep) * weight
        bvn = (a * integral - bvn) / tp
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
    """Mass of the model on the quadrant where both differences are >= 0.

    A zero-variance coordinate is a point mass at its mean, so its bound is
    -inf when the mean is >= 0 and +inf otherwise."""
    mu = model.mean
    cov = model.covariance
    s1 = math.sqrt(cov[0][0])
    s2 = math.sqrt(cov[1][1])
    dh = -mu[0] / s1 if s1 else (-math.inf if mu[0] >= 0.0 else math.inf)
    dk = -mu[1] / s2 if s2 else (-math.inf if mu[1] >= 0.0 else math.inf)
    rho = min(1.0, max(-1.0, cov[0][1] / (s1 * s2))) if s1 and s2 else 0.0
    return _bvn_upper_tail(dh, dk, rho)


def parametric_uir(table: ScoreTable, sys_a: str, sys_b: str) -> float:
    """Difference between positive- and negative-quadrant mass of the fitted
    difference model; a smoothed stand-in for the UIR, in [-1, 1].

    By inclusion-exclusion the difference is P(dP > 0) + P(dR > 0) - 1 for
    any correlation, which is (erf(mu_p / sqrt(2 v_p)) + erf(mu_r /
    sqrt(2 v_r))) / 2; ``REGULARIZATION`` keeps both variances positive.
    Exactly antisymmetric in the two systems: swapping them negates every
    fitted mean and keeps the covariance, and erf is odd.
    """
    p_col, r_col = metric_pair_columns(table)
    delta_p = list(map(sub, table.scores_for(sys_a, p_col), table.scores_for(sys_b, p_col)))
    delta_r = list(map(sub, table.scores_for(sys_a, r_col), table.scores_for(sys_b, r_col)))
    mu_p, mu_r, v_p, _, v_r = _fit(delta_p, delta_r)
    return 0.5 * (math.erf(mu_p / math.sqrt(2.0 * v_p)) + math.erf(mu_r / math.sqrt(2.0 * v_r)))
