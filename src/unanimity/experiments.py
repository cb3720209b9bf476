"""Weighting-sensitivity sweeps and the cross-collection prediction protocol.

An alpha sweep traces each system's mean F as the precision weight moves
from 0 to 1.  A threshold sweep asks, for every UIR acceptance threshold,
how the accepted system pairs relate to significance categories and to
F-based verdicts.  The prediction protocol scores UIR, mean-F difference
and parametric UIR on one collection as predictors of F improvements that
hold on every other collection.
"""

from __future__ import annotations

from bisect import bisect_right
from enum import Enum
from itertools import accumulate, combinations
from operator import gt, le
from typing import Iterator, Mapping, NamedTuple, Sequence

from unanimity.data import ScoreTable
from unanimity.metrics import _mean_f, mean_f_measure, metric_pair_columns
from unanimity.stats import ImprovementCategory, _categories, parametric_uir
from unanimity.uir import _f_gains, _packed_matrix, pairwise_uir_matrix

ALPHA_GRID_POINTS = 101
_STEP = 10  # threshold_sweep computes every _STEP-th grid alpha's mean F first


def alpha_grid(points: int = ALPHA_GRID_POINTS) -> tuple[float, ...]:
    """Evenly spaced alpha values covering [0, 1] with both endpoints."""
    if points < 2:
        raise ValueError("alpha grid needs at least 2 points")
    return tuple(i / (points - 1) for i in range(points))


def _check_grid(grid: Sequence[float], lo: float, hi: float, what: str) -> tuple[float, ...]:
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
    """Yield t, the number k of values strictly above t, and how many of
    those k carry each flag column, for every t of the grid.

    One sort, flags summed from the top value down, then one bisection per
    threshold: O(P log P + G log P) for P values and G thresholds.
    """
    order = sorted(range(len(values)), key=values.__getitem__)
    ranked = [values[i] for i in order]
    order.reverse()
    tops = [list(accumulate((column[i] for i in order), initial=0)) for column in flags]
    for t in grid:
        k = len(ranked) - bisect_right(ranked, t)
        yield t, k, [top[k] for top in tops]


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
            below = [y0 + (y0 - points[q - 2]) * t] if q > 1 else []
            if q + 1 < len(points):
                below.append(y1 + (y1 - points[q + 1]) * s)
            lo.append(max(below) - margin)
        lo.append(y1)
        hi.append(y1)
    return lo, hi


class AlphaSweep(NamedTuple):
    """Mean-F curves over a shared alpha grid, one curve per system."""

    alphas: tuple[float, ...]
    curves: Mapping[str, tuple[float, ...]]


def alpha_sweep(
    table: ScoreTable,
    grid: Sequence[float] | None = None,
    systems: Sequence[str] | None = None,
) -> AlphaSweep:
    """Mean F of each system at every alpha of the grid."""
    grid = alpha_grid() if grid is None else _check_grid(grid, 0.0, 1.0, "alpha")
    if systems is None:
        systems = table.systems
    else:
        systems = tuple(systems)
        if not systems:
            raise ValueError("no systems selected")
    p_col, r_col = metric_pair_columns(table)
    curves: dict[str, tuple[float, ...]] = {}
    for system in systems:
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
    grid = _check_grid(grid, -1.0, 1.0, "threshold")
    systems = table.systems
    if len(systems) < 2:
        raise ValueError("threshold sweep needs at least 2 systems")
    p_col, r_col = metric_pair_columns(table)  # a wider table is refused before any pair work
    ranks, matrix = _packed_matrix(table)
    pairs = [(a, b) for a in systems for b in systems if a != b]
    categories = _categories(table, list(combinations(systems, 2)), significance_level, ranks)
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
    # The all-alpha flag: the bounds settle most pairs, by lo_a > hi_b
    # everywhere or hi_a <= lo_b somewhere; the rest compare exact curves.
    flags = (
        [categories[p] is ImprovementCategory.CONCORDANT_SIGNIFICANT for p in pairs],
        [categories[p] is ImprovementCategory.OPPOSITE_SIGNIFICANT for p in pairs],
        [
            all(map(gt, bounds[a][0], bounds[b][1]))
            or not any(map(le, bounds[a][1], bounds[b][0]))
            and all(map(gt, mean_f(a, alphas), mean_f(b, alphas)))
            for a, b in pairs
        ],
        [means[a] - means[b] > 0.0 for a, b in pairs],
    )
    values = [matrix[p].value for p in pairs]
    rows = []
    for t, k, counts in _counts_above(values, flags, grid):
        ratios = [count / k for count in counts] if k else [0.0] * len(counts)
        rows.append(ThresholdSweepRow(t, k / len(pairs), *ratios, k))
    return rows


def gold_consistent_pairs(
    tables: Sequence[ScoreTable],
    alpha: float = 0.5,
) -> set[tuple[str, str]]:
    """Ordered system pairs whose mean-F gap is positive in every collection:
    the intersection of ``robust_set_f(table, 0.0, alpha)`` over the tables."""
    return _gold_consistent(tables, alpha)[0]


def _gold_consistent(tables: Sequence[ScoreTable], alpha: float) -> tuple[set, list[dict]]:
    """``gold_consistent_pairs``, and each table's mean F per system."""
    if len(tables) < 2:
        raise ValueError("need at least 2 collections")
    base = set(tables[0].systems)
    for table in tables[1:]:
        if set(table.systems) != base:
            raise ValueError("system sets differ across collections")
    means = [{s: mean_f_measure(table, s, alpha) for s in table.systems} for table in tables]
    return set.intersection(*(_f_gains(m, 0.0) for m in means)), means


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
    grid = _check_grid(grid, -1.0, 1.0, "threshold")
    # ``in`` tests identity first, then equality.
    if reference not in collections:
        raise ValueError("reference collection must be among the collections")
    matrix = pairwise_uir_matrix(reference)
    target, collection_means = _gold_consistent(collections, alpha)
    if not target:
        raise ValueError("no gold-consistent pairs across the collections")
    means = collection_means[collections.index(reference)]
    systems = reference.systems
    pairs = [(a, b) for a in systems for b in systems if a != b]
    parametric: dict[tuple[str, str], float] = {}
    for i, a in enumerate(systems):
        for b in systems[i + 1 :]:
            value = parametric_uir(reference, a, b)
            parametric[(a, b)] = value
            parametric[(b, a)] = -value
    scores = {
        Predictor.UIR: [matrix[p].value for p in pairs],
        Predictor.F_DELTA: [means[a] - means[b] for a, b in pairs],
        Predictor.PARAMETRIC_UIR: [parametric[p] for p in pairs],
    }

    in_target = ([p in target for p in pairs],)
    curves = []
    for predictor in Predictor:
        points = tuple(
            (t, hits / k, hits / len(target))
            for t, k, (hits,) in _counts_above(scores[predictor], in_target, grid)
            if k
        )
        curves.append(PredictorCurve(predictor, points))
    return curves
