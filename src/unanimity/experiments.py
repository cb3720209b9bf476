"""Weighting-sensitivity sweeps and the cross-collection prediction protocol.

An alpha sweep traces each system's mean F as the precision weight moves
from 0 to 1.  A threshold sweep asks, for every UIR acceptance threshold,
how the accepted system pairs relate to significance categories and to
F-based verdicts.  The prediction protocol scores UIR, mean-F difference
and parametric UIR on one collection as predictors of F improvements that
hold on every other collection.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import gt
from typing import Mapping, Sequence

from unanimity.data import ScoreTable
from unanimity.metrics import MetricPair, _mean_f, mean_f_measure, metric_pair_columns
from unanimity.stats import ImprovementCategory, categorize_improvement, parametric_uir
from unanimity.uir import pairwise_uir_matrix

ALPHA_GRID_POINTS = 101


def alpha_grid(points: int = ALPHA_GRID_POINTS) -> tuple[float, ...]:
    """Evenly spaced alpha values covering [0, 1] with both endpoints."""
    if points < 2:
        raise ValueError("alpha grid needs at least 2 points")
    return tuple(i / (points - 1) for i in range(points))


def _check_grid(grid: Sequence[float], lo: float, hi: float, what: str) -> tuple[float, ...]:
    grid = tuple(float(t) for t in grid)
    if not grid:
        raise ValueError(f"empty {what} grid")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{what} grid must be sorted ascending")
    if grid[0] < lo or grid[-1] > hi:
        raise ValueError(f"{what} grid outside [{lo}, {hi}]")
    return grid


@dataclass(frozen=True)
class AlphaSweep:
    """Mean-F curves over a shared alpha grid, one curve per system."""

    alphas: tuple[float, ...]
    curves: Mapping[str, tuple[float, ...]]


def alpha_sweep(
    table: ScoreTable,
    grid: Sequence[float] | None = None,
    systems: Sequence[str] | None = None,
    pair: MetricPair | str | None = None,
) -> AlphaSweep:
    """Mean F of each system at every alpha of the grid."""
    grid = alpha_grid() if grid is None else _check_grid(grid, 0.0, 1.0, "alpha")
    if systems is None:
        systems = table.systems
    else:
        systems = tuple(systems)
        if not systems:
            raise ValueError("no systems selected")
    p_col, r_col = metric_pair_columns(table, pair)
    curves: dict[str, tuple[float, ...]] = {}
    for system in systems:
        precision = table.scores_for(system, p_col)
        recall = table.scores_for(system, r_col)
        curves[system] = tuple(_mean_f(precision, recall, alpha) for alpha in grid)
    return AlphaSweep(grid, curves)


@dataclass(frozen=True)
class ThresholdSweepRow:
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
    if len(table.systems) < 2:
        raise ValueError("threshold sweep needs at least 2 systems")
    pairs = [
        (a, b) for a in table.systems for b in table.systems if a != b
    ]
    matrix = pairwise_uir_matrix(table)
    categories: dict[tuple[str, str], ImprovementCategory] = {}
    for i, a in enumerate(table.systems):
        for b in table.systems[i + 1 :]:
            category = categorize_improvement(table, a, b, significance_level)
            categories[(a, b)] = category
            categories[(b, a)] = category
    curves = alpha_sweep(table, alpha_grid()).curves
    all_alpha_wins = {(a, b): all(map(gt, curves[a], curves[b])) for a, b in pairs}
    means = {s: mean_f_measure(table, s, alpha) for s in table.systems}

    rows = []
    for t in grid:
        accepted = [p for p in pairs if matrix[p].value > t]
        k = len(accepted)
        if k:
            concordant = sum(
                categories[p] is ImprovementCategory.CONCORDANT_SIGNIFICANT
                for p in accepted
            ) / k
            opposite = sum(
                categories[p] is ImprovementCategory.OPPOSITE_SIGNIFICANT
                for p in accepted
            ) / k
            all_alpha = sum(all_alpha_wins[p] for p in accepted) / k
            f05 = sum(means[a] - means[b] > 0.0 for a, b in accepted) / k
        else:
            concordant = opposite = all_alpha = f05 = 0.0
        rows.append(
            ThresholdSweepRow(t, k / len(pairs), concordant, opposite, all_alpha, f05, k)
        )
    return rows


def gold_consistent_pairs(
    tables: Sequence[ScoreTable],
    alpha: float = 0.5,
    pair: MetricPair | str | None = None,
) -> set[tuple[str, str]]:
    """Ordered system pairs whose mean-F gap is positive in every collection."""
    if len(tables) < 2:
        raise ValueError("need at least 2 collections")
    base = set(tables[0].systems)
    for table in tables[1:]:
        if set(table.systems) != base:
            raise ValueError("system sets differ across collections")
    means = [
        {s: mean_f_measure(table, s, alpha, pair) for s in table.systems}
        for table in tables
    ]
    systems = tables[0].systems
    out: set[tuple[str, str]] = set()
    for a in systems:
        for b in systems:
            if a != b and all(m[a] > m[b] for m in means):
                out.add((a, b))
    return out


class Predictor(str, Enum):
    """Single-collection signals scored as robustness predictors."""

    UIR = "uir"
    F_DELTA = "f_delta"
    PARAMETRIC_UIR = "parametric_uir"


@dataclass(frozen=True)
class PredictorCurve:
    """(threshold, precision, recall) points; thresholds whose predicted set
    is empty are omitted because precision is undefined there."""

    predictor: Predictor
    points: tuple[tuple[float, float, float], ...]


def predictor_curves(
    reference: ScoreTable,
    collections: Sequence[ScoreTable],
    grid: Sequence[float],
    alpha: float = 0.5,
    pair: MetricPair | str | None = None,
) -> list[PredictorCurve]:
    """Precision/recall of each predictor at every threshold of the grid.

    The target set is the gold-consistent pairs over all collections; the
    predicted set at threshold t holds the reference-collection pairs whose
    predictor value strictly exceeds t.
    """
    grid = _check_grid(grid, -1.0, 1.0, "threshold")
    if not any(
        table is reference or table.collection_id == reference.collection_id
        for table in collections
    ):
        raise ValueError("reference collection must be among the collections")
    target = gold_consistent_pairs(collections, alpha, pair)
    if not target:
        raise ValueError("no gold-consistent pairs across the collections")
    matrix = pairwise_uir_matrix(reference)
    means = {
        s: mean_f_measure(reference, s, alpha, pair) for s in reference.systems
    }
    systems = reference.systems
    pairs = [(a, b) for a in systems for b in systems if a != b]
    scores: dict[Predictor, dict[tuple[str, str], float]] = {
        Predictor.UIR: {p: matrix[p].value for p in pairs},
        Predictor.F_DELTA: {(a, b): means[a] - means[b] for a, b in pairs},
    }
    parametric: dict[tuple[str, str], float] = {}
    for i, a in enumerate(systems):
        for b in systems[i + 1 :]:
            value = parametric_uir(reference, a, b, pair)
            parametric[(a, b)] = value
            parametric[(b, a)] = -value
    scores[Predictor.PARAMETRIC_UIR] = parametric

    curves = []
    for predictor in Predictor:
        points = []
        for t in grid:
            predicted = {p for p, v in scores[predictor].items() if v > t}
            if not predicted:
                continue
            hits = len(predicted & target)
            points.append((t, hits / len(predicted), hits / len(target)))
        curves.append(PredictorCurve(predictor, tuple(points)))
    return curves
