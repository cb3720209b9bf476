"""Per-threshold sweep loops, kept as oracles for the sorted threshold walk,
and the ranking report read off the full ordered-pair matrix.

Each threshold rebuilds the accepted (or predicted) pair set from scratch,
O(G·P) for G thresholds and P ordered pairs.  The library's sweeps must
return equal rows and points, and its report, which computes each unordered
pair once, equal rows.
"""

from __future__ import annotations

from operator import gt

from unanimity.experiments import (
    Predictor,
    PredictorCurve,
    ThresholdSweepRow,
    alpha_grid,
    alpha_sweep,
    gold_consistent_pairs,
)
from unanimity.metrics import mean_f_measure
from unanimity.report import NEAR_BASELINE_UIR, RankingRow
from unanimity.stats import ImprovementCategory, categorize_improvement, parametric_uir
from unanimity.uir import best_rival, pairwise_uir_matrix


def ordered_pairs(table):
    return [(a, b) for a in table.systems for b in table.systems if a != b]


def threshold_sweep(table, grid, alpha=0.5, significance_level=0.05):
    pairs = ordered_pairs(table)
    matrix = pairwise_uir_matrix(table)
    categories = {}
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


def predictor_scores(reference, alpha=0.5):
    """Each predictor's value for every ordered pair of the reference."""
    matrix = pairwise_uir_matrix(reference)
    means = {s: mean_f_measure(reference, s, alpha) for s in reference.systems}
    pairs = ordered_pairs(reference)
    parametric = {}
    for i, a in enumerate(reference.systems):
        for b in reference.systems[i + 1 :]:
            value = parametric_uir(reference, a, b)
            parametric[(a, b)] = value
            parametric[(b, a)] = -value
    return {
        Predictor.UIR: {p: matrix[p].value for p in pairs},
        Predictor.F_DELTA: {(a, b): means[a] - means[b] for a, b in pairs},
        Predictor.PARAMETRIC_UIR: parametric,
    }


def predictor_curves(reference, collections, grid, alpha=0.5):
    target = gold_consistent_pairs(collections, alpha)
    scores = predictor_scores(reference, alpha)
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


def render_ranking_report(table, alpha=0.5, uir_threshold=0.25):
    if not -1.0 <= uir_threshold <= 1.0:
        raise ValueError(f"UIR threshold {uir_threshold} outside [-1, 1]")
    matrix = pairwise_uir_matrix(table)
    means = {s: mean_f_measure(table, s, alpha) for s in table.systems}
    rows = []
    for system in sorted(table.systems, key=lambda s: (-means[s], s)):
        improved = tuple(
            sorted(
                other
                for other in table.systems
                if other != system and matrix[(system, other)].value > uir_threshold
            )
        )
        reference = best_rival(
            {other: matrix[(other, system)].value for other in table.systems if other != system}
        )
        if reference is None:
            ref_id, ref_value = None, None
            near = False
        else:
            ref_id, ref_value = reference
            near = ref_value >= NEAR_BASELINE_UIR
        rows.append(RankingRow(system, means[system], improved, ref_id, ref_value, near))
    return rows
