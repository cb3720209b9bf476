"""Reference versions of the code that each handled a degenerate case itself.

``orthant_probability`` returned point-mass values for a zero variance
before it standardized the bounds, ``bvn_upper_tail`` tested for exact
infinities and short-cut r = 0, ``parametric_uir`` built the mirrored model
for the negative quadrant, and ``f_measure`` returned early at a zero
component or an end-point alpha.  The package now expresses a degenerate
coordinate as an infinite bound and computes F with ``_mean_f``; the
arithmetic is the same wherever every bound is within ``_FAR``, so the tests
hold the package to these by ``repr``.

The package's ``parametric_uir`` no longer integrates at all: it is
``quadrant_difference``, P(dP > 0) + P(dR > 0) - 1.  The tests hold it to
``parametric_uir_closed_form`` by ``repr``, and to the mirrored-model
quadrature ``parametric_uir`` within 1e-15.
"""

from __future__ import annotations

import math
from operator import sub

import numpy as np

from unanimity.data import _SCORE_MAX
from unanimity.metrics import _check_alpha, metric_pair_columns
from unanimity.stats import BivariateNormalModel, _fit, _ndtr

# The 20-point Gauss-Legendre rule, from numpy rather than the package's table.
_NODES, _WEIGHTS = (tuple(a.tolist()) for a in np.polynomial.legendre.leggauss(20))


def bvn_upper_tail(dh: float, dk: float, r: float) -> float:
    """P(X > dh, Y > dk) for standard bivariate normal X, Y with correlation r."""
    if math.isinf(dh) or math.isinf(dk):
        if dh == math.inf or dk == math.inf:
            return 0.0
        if dh == -math.inf:
            return 1.0 if dk == -math.inf else _ndtr(-dk)
        return _ndtr(-dh)
    if r == 0.0:
        return _ndtr(-dh) * _ndtr(-dk)

    tp = 2.0 * math.pi
    h = dh
    k = dk
    hk = h * k
    bvn = 0.0
    if abs(r) < 0.925:
        hs = (h * h + k * k) / 2.0
        asr = math.asin(r) / 2.0
        for node, weight in zip(_NODES, _WEIGHTS):
            sn = math.sin(asr * (1.0 + node))
            bvn += math.exp((sn * hk - hs) / (1.0 - sn * sn)) * weight
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
            integral = 0.0
            for node, weight in zip(_NODES, _WEIGHTS):
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


def orthant_probability(model) -> float:
    """Mass of the model on the quadrant where both differences are >= 0."""
    mu = model.mean
    cov = model.covariance
    s1 = math.sqrt(cov[0][0])
    s2 = math.sqrt(cov[1][1])
    if s1 == 0.0 and s2 == 0.0:
        return 1.0 if mu[0] >= 0.0 and mu[1] >= 0.0 else 0.0
    if s1 == 0.0:
        return _ndtr(mu[1] / s2) if mu[0] >= 0.0 else 0.0
    if s2 == 0.0:
        return _ndtr(mu[0] / s1) if mu[1] >= 0.0 else 0.0
    rho = min(1.0, max(-1.0, cov[0][1] / (s1 * s2)))
    return bvn_upper_tail(-mu[0] / s1, -mu[1] / s2, rho)


def _difference_model(table, sys_a: str, sys_b: str):
    p_col, r_col = metric_pair_columns(table)
    delta_p = list(map(sub, table.scores_for(sys_a, p_col), table.scores_for(sys_b, p_col)))
    delta_r = list(map(sub, table.scores_for(sys_a, r_col), table.scores_for(sys_b, r_col)))
    mean_p, mean_r, c00, c01, c11 = _fit(delta_p, delta_r)
    return BivariateNormalModel((mean_p, mean_r), ((c00, c01), (c01, c11)))


def parametric_uir(table, sys_a: str, sys_b: str) -> float:
    """Positive- minus negative-quadrant mass, through the mirrored model."""
    model = _difference_model(table, sys_a, sys_b)
    return orthant_probability(model) - orthant_probability(model.mirrored())


def quadrant_difference(model) -> float:
    """P(both > 0) - P(both < 0) = P(dP > 0) + P(dR > 0) - 1: inclusion-
    exclusion drops the correlation.  Needs both variances positive."""
    (mu_p, mu_r), ((v_p, _), (_, v_r)) = model
    return 0.5 * (math.erf(mu_p / math.sqrt(2.0 * v_p)) + math.erf(mu_r / math.sqrt(2.0 * v_r)))


def parametric_uir_closed_form(table, sys_a: str, sys_b: str) -> float:
    """``quadrant_difference`` of the fitted difference model."""
    return quadrant_difference(_difference_model(table, sys_a, sys_b))


def f_measure(precision: float, recall: float, alpha: float = 0.5) -> float:
    """``1 / (alpha/p + (1 - alpha)/r)``, 0 where a weighted component is 0."""
    _check_alpha(alpha)
    for name, value in (("precision", precision), ("recall", recall)):
        if not 0.0 <= value <= _SCORE_MAX:
            raise ValueError(f"{name} {value} outside [0, 1]")
    if alpha > 0.0 and precision == 0.0:
        return 0.0
    if alpha < 1.0 and recall == 0.0:
        return 0.0
    if alpha == 0.0:
        return recall
    if alpha == 1.0:
        return precision
    return 1.0 / (alpha / precision + (1.0 - alpha) / recall)
