"""Clustering evaluation with weighting-robust system comparison.

The package scores clusterings against gold standards (purity, inverse
purity, BCubed), combines precision- and recall-like metrics with a
weighted harmonic F, and compares systems with the Unanimous Improvement
Ratio: the net fraction of test cases where one system is at least as good
as the other on every metric at once, a verdict no metric weighting can
reverse.
"""

from unanimity.data import (
    Clustering,
    GoldStandard,
    MetricVector,
    ParseError,
    ScoreTable,
    ValidationError,
    ValidationReport,
    parse_clustering,
    parse_score_table,
    serialize_clustering,
    serialize_score_table,
    validate_pair,
)
from unanimity.metrics import (
    MetricPair,
    baseline_all_in_one,
    baseline_combined,
    baseline_one_in_one,
    bcubed_precision,
    bcubed_recall,
    cluster_precision,
    f_measure,
    inverse_purity,
    mean_f_measure,
    metric_pair_columns,
    purity,
    score_pair,
)
from unanimity.uir import (
    RelationOutcome,
    UirResult,
    best_rival,
    pairwise_uir_matrix,
    reference_system,
    robust_set_f,
    robust_set_uir,
    unanimous_compare,
    unanimous_improvement_ratio,
)
from unanimity.stats import (
    BivariateNormalModel,
    ImprovementCategory,
    WilcoxonResult,
    categorize_improvement,
    fit_bivariate_normal,
    orthant_probability,
    parametric_uir,
    wilcoxon_signed_rank,
)
from unanimity.experiments import (
    AlphaSweep,
    Predictor,
    PredictorCurve,
    ThresholdSweepRow,
    alpha_grid,
    alpha_sweep,
    gold_consistent_pairs,
    predictor_curves,
    threshold_sweep,
)
from unanimity.report import RankingRow, render_ranking_report

__version__ = "0.1.0"

__all__ = [
    "AlphaSweep",
    "BivariateNormalModel",
    "Clustering",
    "GoldStandard",
    "ImprovementCategory",
    "MetricPair",
    "MetricVector",
    "ParseError",
    "Predictor",
    "PredictorCurve",
    "RankingRow",
    "RelationOutcome",
    "ScoreTable",
    "ThresholdSweepRow",
    "UirResult",
    "ValidationError",
    "ValidationReport",
    "WilcoxonResult",
    "alpha_grid",
    "alpha_sweep",
    "baseline_all_in_one",
    "baseline_combined",
    "baseline_one_in_one",
    "bcubed_precision",
    "bcubed_recall",
    "best_rival",
    "categorize_improvement",
    "cluster_precision",
    "f_measure",
    "fit_bivariate_normal",
    "gold_consistent_pairs",
    "inverse_purity",
    "mean_f_measure",
    "metric_pair_columns",
    "orthant_probability",
    "pairwise_uir_matrix",
    "parametric_uir",
    "parse_clustering",
    "parse_score_table",
    "predictor_curves",
    "purity",
    "reference_system",
    "render_ranking_report",
    "robust_set_f",
    "robust_set_uir",
    "score_pair",
    "serialize_clustering",
    "serialize_score_table",
    "threshold_sweep",
    "unanimous_compare",
    "unanimous_improvement_ratio",
    "validate_pair",
    "wilcoxon_signed_rank",
]
