"""Weighting-sensitivity sweeps and the cross-collection prediction protocol.

An alpha sweep traces each system's mean F as the precision weight moves
from 0 to 1.  A threshold sweep asks, for every UIR acceptance threshold,
how the accepted system pairs relate to significance categories and to
F-based verdicts.  The prediction protocol scores UIR, mean-F difference
and parametric UIR on one collection as predictors of F improvements that
hold on every other collection.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from enum import Enum
from functools import partial
from itertools import accumulate, chain
from operator import gt, le, neg, sub
from typing import Iterator, Mapping, NamedTuple, Sequence

from unanimity.data import ScoreTable
from unanimity.metrics import _mean_f, mean_f_measure, metric_pair_columns
from unanimity.stats import ImprovementCategory, _categories, _check_level, parametric_uir
from unanimity.uir import _f_gain_set, _f_gains, _pair_layout

ALPHA_GRID_POINTS = 101
_STEP = 10  # threshold_sweep computes every _STEP-th grid alpha's mean F first


def alpha_grid(points: int = ALPHA_GRID_POINTS) -> tuple[float, ...]:
    """Evenly spaced alpha values covering [0, 1] with both endpoints."""
    if points < 2:
        raise ValueError("alpha grid needs at least 2 points")
    return tuple(i / (points - 1) for i in range(points))


def _check_grid(grid: Sequence[float], what: str) -> tuple[float, ...]:
    lo, hi = {"alpha": (0.0, 1.0), "threshold": (-1.0, 1.0)}[what]
    grid = tuple(float(t) for t in grid)
    if not grid:
        raise ValueError(f"empty {what} grid")
    # Every point is checked: NaN fails the sortedness and endpoint tests alike.
    if not all(lo <= t <= hi for t in grid):
        raise ValueError(f"{what} grid outside [{lo}, {hi}]")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{what} grid must be sorted ascending")
    return grid


def _counts_above(
    values: Sequence[float], flags: Sequence[Sequence[bool]], grid: Sequence[float]
) -> Iterator[tuple[float, int, list[int]]]:
    """Yield t, the number k of ordered pairs valued strictly above t, and
    how many of those k carry each flag column, for every t of the grid.
    ``values`` has one value per unordered pair, whose mirror has its
    negation; a flag column lists the pairs, then their mirrors.  v lies
    above ``grid[i]`` exactly when ``i < bisect_left(grid, v)``: O(P log G + G).
    """
    slot = partial(bisect_left, grid)
    slots = chain(map(slot, values), map(slot, map(neg, values)))
    tallies = [[0] * (len(grid) + 1) for _ in range(len(flags) + 1)]
    for (i, *marks), n in Counter(zip(slots, *flags)).items():
        for tally, mark in zip(tallies, (True, *marks)):
            tally[i] += mark * n
    totals = list(map(sum, tallies))
    for t, at_or_below in zip(grid, zip(*map(accumulate, tallies))):
        k, *counts = map(sub, totals, at_or_below)
        yield t, k, counts


def _convex_bounds(points: Sequence[float], n: int) -> tuple[list[float], list[float]]:
    """lo <= computed mean F <= hi at every grid alpha, from the computed
    means ``points`` of ``n`` cases at every ``_STEP``-th one, where lo = hi.

    Each case's F is convex in alpha, so between two points the mean lies
    below their chord and above both neighbouring secants, extended.  The
    margin covers rounding: a mean is within (n + 4)u of the exact one, the
    chord adds that error once, a secant three times, and the grid alphas'
    own rounding ~20u (u = 2**-52).
    """
    margin = 8 * (n + 8) * 2.0**-52
    lo, hi = [points[0]], [points[0]]
    for q in range(1, len(points)):
        y0, y1 = points[q - 1], points[q]
        for i in range(1, _STEP):
            t, s = i / _STEP, (_STEP - i) / _STEP
            hi.append(y0 + (y1 - y0) * t + margin)
            left = y0 + (y0 - points[q - 2]) * t if q > 1 else -math.inf
            right = y1 + (y1 - points[q + 1]) * s if q + 1 < len(points) else -math.inf
            lo.append(max(left, right) - margin)
        lo.append(y1)
        hi.append(y1)
    return lo, hi


class AlphaSweep(NamedTuple):
    """Mean-F curves over a shared alpha grid, one curve per system."""

    alphas: tuple[float, ...]
    curves: Mapping[str, tuple[float, ...]]


def alpha_sweep(table: ScoreTable, grid: Sequence[float] | None = None) -> AlphaSweep:
    """Mean F of each system at every alpha of the grid."""
    grid = alpha_grid() if grid is None else _check_grid(grid, "alpha")
    p_col, r_col = metric_pair_columns(table)
    curves: dict[str, tuple[float, ...]] = {}
    for system in table.systems:
        precision = table.scores_for(system, p_col)
        recall = table.scores_for(system, r_col)
        curves[system] = tuple(_mean_f(precision, recall, grid))
    return AlphaSweep(grid, curves)


class ThresholdSweepRow(NamedTuple):
    """Share and makeup of system pairs accepted at one UIR threshold.

    Ratios conditioned on the accepted set are 0 by convention when nothing
    is accepted; ``accepted_empty`` flags that case.
    """

    t: float
    accepted_ratio: float
    concordant_ratio: float
    opposite_ratio: float
    all_alpha_ratio: float
    f05_ratio: float
    n_accepted: int

    @property
    def accepted_empty(self) -> bool:
        return self.n_accepted == 0


def threshold_sweep(
    table: ScoreTable,
    grid: Sequence[float],
    alpha: float = 0.5,
    significance_level: float = 0.05,
) -> list[ThresholdSweepRow]:
    """Profile the accepted pair set as the UIR threshold moves over the grid.

    For each threshold t, over ordered system pairs with UIR > t:
    ``concordant_ratio`` and ``opposite_ratio`` come from the per-metric
    significance categories, ``all_alpha_ratio`` is the share whose mean-F
    difference is positive at every alpha of the 101-point grid, and
    ``f05_ratio`` the share positive at the single ``alpha`` given here.
    """
    grid = _check_grid(grid, "threshold")
    systems = table.systems
    if len(systems) < 2:
        raise ValueError("threshold sweep needs at least 2 systems")
    p_col, r_col = metric_pair_columns(table)  # a wider table is refused before any pair work
    ranks, pairs, results = _pair_layout(table)
    _check_level(significance_level)
    alphas = alpha_grid()
    columns = {s: (table.scores_for(s, p_col), table.scores_for(s, r_col)) for s in systems}
    known: dict[str, dict[float, float]] = {s: {} for s in systems}

    def mean_f(s: str, wanted: Sequence[float]) -> list[float]:
        """Mean F of ``s`` at each wanted alpha; each (s, alpha) runs once."""
        new = [a for a in wanted if a not in known[s]]
        if new:
            known[s].update(zip(new, _mean_f(*columns[s], new)))
        return [known[s][a] for a in wanted]

    bounds = {s: _convex_bounds(mean_f(s, alphas[::_STEP]), len(table.cases)) for s in systems}
    means = {s: mean_f(s, (alpha,))[0] for s in systems}
    categories = _categories(table, pairs, significance_level, ranks)
    # Mirrors follow their pairs: a category is symmetric.  The all-alpha
    # flag: the bounds settle most pairs, by lo_a > hi_b everywhere or
    # hi_a <= lo_b somewhere; the rest compare exact curves.
    flags = (
        [c is ImprovementCategory.CONCORDANT_SIGNIFICANT for c in categories] * 2,
        [c is ImprovementCategory.OPPOSITE_SIGNIFICANT for c in categories] * 2,
        [
            all(map(gt, bounds[a][0], bounds[b][1]))
            or not any(map(le, bounds[a][1], bounds[b][0]))
            and all(map(gt, mean_f(a, alphas), mean_f(b, alphas)))
            for a, b in chain(pairs, map(reversed, pairs))
        ],
        _f_gains([means], pairs),
    )
    rows = []
    for t, k, counts in _counts_above([result.value for result in results], flags, grid):
        ratios = [count / k for count in counts] if k else [0.0] * len(counts)
        rows.append(ThresholdSweepRow(t, k / (2 * len(pairs)), *ratios, k))
    return rows


def gold_consistent_pairs(tables: Sequence[ScoreTable], alpha: float = 0.5) -> set[tuple[str, str]]:
    """Ordered system pairs whose mean-F gap is positive in every collection:
    the intersection of ``robust_set_f(table, 0.0, alpha)`` over the tables."""
    return _f_gain_set(_collection_means(tables, alpha), 0.0)


def _collection_means(tables: Sequence[ScoreTable], alpha: float) -> list[dict[str, float]]:
    """Each table's mean F per system, once the tables share one system set and metric pair."""
    if len(tables) < 2:
        raise ValueError("need at least 2 collections")
    base = set(tables[0].systems)
    for table in tables[1:]:
        if set(table.systems) != base:
            raise ValueError("system sets differ across collections")
    means = [{s: mean_f_measure(table, s, alpha) for s in table.systems} for table in tables]
    if any(table.metric_names != tables[0].metric_names for table in tables):
        raise ValueError("metric names differ across collections")
    return means


class Predictor(str, Enum):
    """Single-collection signals scored as robustness predictors."""

    UIR = "uir"
    F_DELTA = "f_delta"
    PARAMETRIC_UIR = "parametric_uir"


class PredictorCurve(NamedTuple):
    """(threshold, precision, recall) points; thresholds whose predicted set
    is empty are omitted because precision is undefined there."""

    predictor: Predictor
    points: tuple[tuple[float, float, float], ...]


def predictor_curves(
    reference: ScoreTable,
    collections: Sequence[ScoreTable],
    grid: Sequence[float],
    alpha: float = 0.5,
) -> list[PredictorCurve]:
    """Precision/recall of each predictor at every threshold of the grid.

    The target set is the gold-consistent pairs over all collections; the
    predicted set at threshold t holds the reference-collection pairs whose
    predictor value strictly exceeds t.  The reference must be one of the
    collections, or equal to one; a shared ``collection_id`` is not enough.
    """
    grid = _check_grid(grid, "threshold")
    # ``in`` tests identity first, then equality.
    if reference not in collections:
        raise ValueError("reference collection must be among the collections")
    _, pairs, results = _pair_layout(reference)
    collection_means = _collection_means(collections, alpha)
    in_target = _f_gains(collection_means, pairs)
    n_target = sum(in_target)
    if not n_target:
        raise ValueError("no gold-consistent pairs across the collections")
    means = collection_means[collections.index(reference)]
    # One value per unordered pair: _counts_above reads each mirror's as its negation.
    scores = {
        Predictor.UIR: [result.value for result in results],
        Predictor.F_DELTA: [means[a] - means[b] for a, b in pairs],
        Predictor.PARAMETRIC_UIR: [parametric_uir(reference, a, b) for a, b in pairs],
    }
    curves = []
    for predictor in Predictor:
        points = tuple(
            (t, hits / k, hits / n_target)
            for t, k, (hits,) in _counts_above(scores[predictor], (in_target,), grid)
            if k
        )
        curves.append(PredictorCurve(predictor, points))
    return curves
