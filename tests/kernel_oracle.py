"""Plain-Python reference versions of the per-pair kernels.

These are the list- and ``Counter``-based kernels that ``unanimity.stats``
and ``unanimity.uir`` used before the packed null distribution, the sorted
tie walk, the bitmask UIR counts and the column-native fit replaced them,
and the byte-mask UIR counts and the all-Wilcoxon improvement categories
that the packed-rank comparison replaced.  The arithmetic is the same, so
the tests hold the package to them with ``==``.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate
from operator import add, and_, ge, le, sub

from unanimity.stats import (
    REGULARIZATION,
    BivariateNormalModel,
    ImprovementCategory,
    wilcoxon_signed_rank,
)
from unanimity.uir import UirResult


def rank_sums(x, y) -> tuple[tuple[int, ...], int]:
    """Tie-group sizes of the non-zero |x - y| and twice W+, from two
    ``Counter``s of the magnitudes and the positive differences."""
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
    magnitudes = Counter(map(abs, d))
    if any(map(math.isnan, magnitudes)):
        raise ValueError("paired differences must not be NaN")
    magnitudes.pop(0.0, None)
    positive = Counter(filter((0.0).__lt__, d))
    sizes = []
    w_plus2 = 0
    end = 0
    for value in sorted(magnitudes):
        size = magnitudes[value]
        start = end
        end += size
        w_plus2 += (start + end + 1) * positive.get(value, 0)
        sizes.append(size)
    return tuple(sizes), w_plus2


def null_cumulative(sizes: tuple[int, ...]) -> list[int]:
    """Cumulative lower half of the doubled rank-sum null distribution, by
    the list dynamic programme: one shifted add per rank."""
    n = sum(sizes)
    counts = [1] + [0] * (n * (n + 1) // 2)
    start = 0
    for size in sizes:
        rank2 = 2 * start + size + 1
        for _ in range(size):
            counts[rank2:] = map(add, counts[rank2:], counts[:-rank2])
        start += size
    return list(accumulate(counts))


def uir(cols_a, cols_b) -> UirResult:
    """UIR from two systems' score columns, with per-case boolean lists."""
    n_total = len(cols_a[0])
    a_geq = b_geq = [True] * n_total
    for col_a, col_b in zip(cols_a, cols_b):
        a_geq = list(map(and_, a_geq, map(ge, col_a, col_b)))
        b_geq = list(map(and_, b_geq, map(le, col_a, col_b)))
    n_a = sum(a_geq)
    n_b = sum(b_geq)
    n_inc = n_total - n_a - n_b + sum(map(and_, a_geq, b_geq))
    return UirResult(n_a, n_b, n_inc, n_total, (n_a - n_b) / n_total)


def byte_mask_uir(cols_a, cols_b) -> UirResult:
    """UIR from two systems' score columns: each metric's per-case verdicts
    become one integer, a byte per case, ANDed over the metrics."""
    n_total = len(cols_a[0])
    a_geq = b_geq = -1
    for col_a, col_b in zip(cols_a, cols_b):
        a_geq &= int.from_bytes(bytes(map(ge, col_a, col_b)), "little")
        b_geq &= int.from_bytes(bytes(map(le, col_a, col_b)), "little")
    n_a = a_geq.bit_count()
    n_b = b_geq.bit_count()
    n_inc = n_total - n_a - n_b + (a_geq & b_geq).bit_count()
    return UirResult(n_a, n_b, n_inc, n_total, (n_a - n_b) / n_total)


def categorize_improvement(table, sys_a, sys_b, significance_level=0.05):
    """The category from one signed-rank test per metric, one-signed
    columns included."""
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


def fit_bivariate_normal(deltas) -> BivariateNormalModel:
    """The row-wise fit: both means summed in one loop over (p, r) rows."""
    rows = [tuple(map(float, row)) for row in deltas]
    n = len(rows)
    mean_p = mean_r = 0.0
    for p, r in rows:
        mean_p += p
        mean_r += r
    mean_p /= n
    mean_r /= n
    c00 = c01 = c11 = 0.0
    for p, r in rows:
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
    return BivariateNormalModel((mean_p, mean_r), ((c00, c01), (c01, c11)))
