"""numpy reference implementations of the statistics in ``unanimity.stats``.

These are the array versions that the package used before its statistics
became plain Python.  The tests hold the package to them: the Wilcoxon
fields must be equal, and the parametric UIR, fitted mean and covariance
within 1e-15, because numpy sums and products go through other orders.
"""

from __future__ import annotations

import math

import numpy as np

from unanimity.stats import EXACT_CUTOFF, REGULARIZATION, WilcoxonResult, _ndtr


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d array, tied values sharing their mean rank."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], ordered.size]
    ranks = np.empty(ordered.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def signed_ranks(x, y):
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
    ranks = average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    return d, ranks, w_plus, w_minus


def exact_two_sided_p(ranks: np.ndarray, w_min: float) -> float:
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


def approx_two_sided_p(d: np.ndarray, w_min: float, n: int) -> float:
    mean = n * (n + 1) / 4.0
    _, tie_counts = np.unique(np.abs(d), return_counts=True)
    tie_term = float((tie_counts.astype(float) ** 3 - tie_counts).sum())
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
    z = (w_min - mean + 0.5) / math.sqrt(var)
    return min(1.0, 2.0 * _ndtr(z))


def wilcoxon_signed_rank(x, y, significance_level: float = 0.05) -> WilcoxonResult:
    if not 0.0 < significance_level < 1.0:
        raise ValueError(f"significance level {significance_level} outside (0, 1)")
    d, ranks, w_plus, w_minus = signed_ranks(x, y)
    n = int(d.size)
    if n == 0:
        return WilcoxonResult(0.0, 0.0, 0, 1.0, False)
    w = min(w_plus, w_minus)
    if n <= EXACT_CUTOFF:
        p = exact_two_sided_p(ranks, w)
    else:
        p = approx_two_sided_p(d, w, n)
    return WilcoxonResult(w_plus, w_minus, n, p, p < significance_level)


def fit_bivariate_normal(deltas) -> tuple[np.ndarray, np.ndarray]:
    """Mean and (regularized) unbiased covariance, as arrays."""
    arr = np.asarray(deltas, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise ValueError("insufficient samples for parametric UIR (need >= 3 pairs)")
    mean = arr.mean(axis=0)
    cov = np.cov(arr, rowvar=False, ddof=1)
    cov = (cov + cov.T) / 2.0
    if float(np.linalg.eigvalsh(cov)[0]) < REGULARIZATION:
        cov = cov + REGULARIZATION * np.eye(2)
    return mean, cov


def bvn_upper_tail(dh: float, dk: float, r: float) -> float:
    """P(X > dh, Y > dk) for standard bivariate normal X, Y with correlation r
    (Drezner & Wesolowsky 1990, Genz 2004), with array quadrature."""
    if math.isinf(dh) or math.isinf(dk):
        if dh == math.inf or dk == math.inf:
            return 0.0
        if dh == -math.inf:
            return 1.0 if dk == -math.inf else _ndtr(-dk)
        return _ndtr(-dh)
    if r == 0.0:
        return _ndtr(-dh) * _ndtr(-dk)

    x, w = np.polynomial.legendre.leggauss(20)
    x = 1.0 + x

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


def orthant_probability(mean, cov) -> float:
    """Mass of N(mean, cov) on the quadrant where both coordinates are >= 0."""
    mu = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    s1 = math.sqrt(cov[0, 0])
    s2 = math.sqrt(cov[1, 1])
    if s1 == 0.0 and s2 == 0.0:
        return 1.0 if mu[0] >= 0.0 and mu[1] >= 0.0 else 0.0
    if s1 == 0.0:
        return _ndtr(mu[1] / s2) if mu[0] >= 0.0 else 0.0
    if s2 == 0.0:
        return _ndtr(mu[0] / s1) if mu[1] >= 0.0 else 0.0
    rho = min(1.0, max(-1.0, cov[0, 1] / (s1 * s2)))
    return bvn_upper_tail(-mu[0] / s1, -mu[1] / s2, rho)


def parametric_uir_of_deltas(deltas) -> float:
    """Positive- minus negative-quadrant mass of the fitted difference model."""
    mean, cov = fit_bivariate_normal(deltas)
    return orthant_probability(mean, cov) - orthant_probability(-mean, cov)
