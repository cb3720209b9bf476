"""The package's public names, which ``unanimity/__init__.py`` imports on
first use: the same list, the same objects, and star import, ``dir`` and
unknown names behaving as for a module that imported them all."""

import importlib
import sys
from unittest import mock

import pytest

import unanimity

# The list the package exported when __init__ imported every submodule.
PUBLIC = [
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

SUBMODULES = ["data", "metrics", "uir", "stats", "experiments", "report"]


def test_all_is_unchanged():
    assert unanimity.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_its_submodules_object(name):
    value = getattr(unanimity, name)
    # Read from the object, as GoldStandard is Clustering under a second name.
    home = importlib.import_module(value.__module__)
    assert home.__name__.removeprefix("unanimity.") in SUBMODULES
    assert value is getattr(home, name)
    assert getattr(unanimity, name) is value


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from unanimity import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC)
    assert all(namespace[name] is getattr(unanimity, name) for name in PUBLIC)


def test_dir_lists_every_public_name_and_submodule():
    assert set(PUBLIC + SUBMODULES) <= set(dir(unanimity))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_are_attributes(name):
    assert getattr(unanimity, name) is importlib.import_module(f"unanimity.{name}")


@pytest.mark.parametrize("name", ["nope", "cli_main", "_SUBMODULE_typo", "__wrapped__"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"module 'unanimity' has no attribute '{name}'"):
        getattr(unanimity, name)
    assert not hasattr(unanimity, name)


def test_a_submodule_read_before_its_import_is_imported():
    # A fresh copy of the package, in this process, whose submodules are not
    # yet attributes; the test's end puts the loaded modules back.
    with mock.patch.dict(sys.modules):
        for name in [m for m in sys.modules if m.split(".")[0] == "unanimity"]:
            del sys.modules[name]
        fresh = importlib.import_module("unanimity")
        assert "stats" not in vars(fresh)
        assert fresh.stats is sys.modules["unanimity.stats"]
    assert sys.modules["unanimity"] is unanimity
