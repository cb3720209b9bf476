"""Clustering evaluation with weighting-robust system comparison.

The package scores clusterings against gold standards (purity, inverse
purity, BCubed), combines precision- and recall-like metrics with a
weighted harmonic F, and compares systems with the Unanimous Improvement
Ratio: the net fraction of test cases where one system is at least as good
as the other on every metric at once, a verdict no metric weighting can
reverse.

``import unanimity`` loads no submodule: each public name, and each
submodule read as an attribute, is imported on first use (PEP 562), so a
command pays only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SUBMODULE = {
    **dict.fromkeys(
        ("Clustering", "GoldStandard", "MetricVector", "ParseError", "ScoreTable",
         "ValidationError", "ValidationReport", "parse_clustering", "parse_score_table",
         "serialize_clustering", "serialize_score_table", "validate_pair"),
        "data",
    ),
    **dict.fromkeys(
        ("MetricPair", "baseline_all_in_one", "baseline_combined", "baseline_one_in_one",
         "bcubed_precision", "bcubed_recall", "cluster_precision", "f_measure",
         "inverse_purity", "mean_f_measure", "metric_pair_columns", "purity", "score_pair"),
        "metrics",
    ),
    **dict.fromkeys(
        ("RelationOutcome", "UirResult", "best_rival", "pairwise_uir_matrix",
         "reference_system", "robust_set_f", "robust_set_uir", "unanimous_compare",
         "unanimous_improvement_ratio"),
        "uir",
    ),
    **dict.fromkeys(
        ("BivariateNormalModel", "ImprovementCategory", "WilcoxonResult",
         "categorize_improvement", "fit_bivariate_normal", "orthant_probability",
         "parametric_uir", "wilcoxon_signed_rank"),
        "stats",
    ),
    **dict.fromkeys(
        ("AlphaSweep", "Predictor", "PredictorCurve", "ThresholdSweepRow", "alpha_grid",
         "alpha_sweep", "gold_consistent_pairs", "predictor_curves", "threshold_sweep"),
        "experiments",
    ),
    **dict.fromkeys(("RankingRow", "render_ranking_report"), "report"),
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name in _SUBMODULE.values():
        return import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULE.values()})
