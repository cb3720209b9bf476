"""Extrinsic clustering metrics and their weighted harmonic combination.

Purity weighs each cluster by its share of memberships and scores it by its
best single-category precision; inverse purity swaps the roles and rewards
covering each category with one cluster.  BCubed precision and recall average
per-item overlap fractions and are restricted here to single-assignment
clusterings.  All metrics land in [0, 1].
"""

from __future__ import annotations

from enum import Enum
from typing import AbstractSet, Iterable, Sequence

from unanimity.data import (
    Clustering,
    GoldStandard,
    MetricVector,
    ScoreTable,
    ValidationError,
)


def cluster_precision(cluster: AbstractSet[str], category: AbstractSet[str]) -> float:
    """Fraction of the cluster's items that fall in the category."""
    if not cluster:
        raise ValueError("empty cluster")
    return len(cluster & category) / len(cluster)


def _check_nonempty(system: Clustering, gold: GoldStandard) -> None:
    if not system.clusters:
        raise ValueError("empty clustering")
    if not gold.clusters:
        raise ValueError("empty gold standard")


def purity(system: Clustering, gold: GoldStandard) -> float:
    """Membership-weighted average of each cluster's best category precision.

    Weights are cluster sizes over the system's total membership count, so
    they form a distribution even when clusters overlap.
    """
    _check_nonempty(system, gold)
    n = system.n
    total = 0.0
    # Fixed label order keeps the float sum reproducible across runs.
    for label in system.labels:
        cluster = system.clusters[label]
        best = max(
            cluster_precision(cluster, gold.clusters[cat]) for cat in gold.labels
        )
        total += len(cluster) / n * best
    return total


def inverse_purity(system: Clustering, gold: GoldStandard) -> float:
    """Category-weighted average of each category's best cluster coverage.

    Exactly purity with the roles swapped: categories are weighted by their
    share of gold memberships and scored by the best covering cluster.
    """
    _check_nonempty(system, gold)
    return purity(gold, system)


def _single_assignment(clustering: Clustering, role: str) -> dict[str, frozenset[str]]:
    assign: dict[str, frozenset[str]] = {}
    for label in clustering.labels:
        for item in clustering.clusters[label]:
            if item in assign:
                raise ValueError("overlap unsupported for bcubed; use purity_ip")
            assign[item] = clustering.clusters[label]
    if not assign:
        raise ValueError(f"empty {role}")
    return assign


def _bcubed_assignments(
    system: Clustering, gold: GoldStandard
) -> tuple[dict[str, frozenset[str]], dict[str, frozenset[str]]]:
    """Item -> cluster maps of both sides; every system item must be in gold."""
    _check_nonempty(system, gold)
    sys_assign = _single_assignment(system, "clustering")
    gold_assign = _single_assignment(gold, "gold standard")
    extra = sorted(system.items - gold.items)
    if extra:
        raise ValidationError("system items absent from gold: " + " ".join(extra))
    return sys_assign, gold_assign


def bcubed_precision(system: Clustering, gold: GoldStandard) -> float:
    """Mean over clustered items of the in-cluster same-category fraction."""
    sys_assign, gold_assign = _bcubed_assignments(system, gold)
    total = 0.0
    for item in sorted(sys_assign):
        cluster = sys_assign[item]
        total += len(cluster & gold_assign[item]) / len(cluster)
    return total / len(sys_assign)


def bcubed_recall(system: Clustering, gold: GoldStandard) -> float:
    """Mean over gold items of the in-category same-cluster fraction.

    Gold items the system never clustered contribute zero.
    """
    sys_assign, gold_assign = _bcubed_assignments(system, gold)
    total = 0.0
    for item in sorted(gold_assign):
        category = gold_assign[item]
        cluster = sys_assign.get(item)
        if cluster is not None:
            total += len(cluster & category) / len(category)
    return total / len(gold_assign)


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1]")


def f_measure(precision: float, recall: float, alpha: float = 0.5) -> float:
    """Weighted harmonic combination ``1 / (alpha/p + (1 - alpha)/r)``.

    ``alpha`` is the relative weight of the precision-like component: 1 keeps
    only precision, 0 only recall, 0.5 gives the plain harmonic mean.  The
    formula is extended by continuity with value 0 whenever a component with
    positive weight is 0.
    """
    _check_alpha(alpha)
    for name, value in (("precision", precision), ("recall", recall)):
        if not 0.0 <= value <= 1.0:
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


def baseline_one_in_one(items: Iterable[str]) -> Clustering:
    """One singleton cluster per item; trivially reaches maximal purity."""
    items = sorted(set(items))
    if not items:
        raise ValueError("empty item set")
    return Clustering({f"b1_{item}": frozenset({item}) for item in items})


def baseline_all_in_one(items: Iterable[str]) -> Clustering:
    """A single cluster with every item; trivially reaches maximal inverse purity."""
    items = sorted(set(items))
    if not items:
        raise ValueError("empty item set")
    return Clustering({"b100_all": frozenset(items)})


def baseline_combined(items: Iterable[str]) -> Clustering:
    """Union of the two trivial baselines; overlapping by construction."""
    items = sorted(set(items))
    if not items:
        raise ValueError("empty item set")
    clusters = {f"b1_{item}": frozenset({item}) for item in items}
    clusters["b100_all"] = frozenset(items)
    return Clustering(clusters)


class MetricPair(str, Enum):
    """Which (precision-like, recall-like) clustering metric pair to compute."""

    PURITY_IP = "purity_ip"
    BCUBED = "bcubed"


PAIR_COLUMNS: dict[MetricPair, tuple[str, str]] = {
    MetricPair.PURITY_IP: ("purity", "inverse_purity"),
    MetricPair.BCUBED: ("bcubed_precision", "bcubed_recall"),
}


def score_pair(
    system: Clustering,
    gold: GoldStandard,
    pair: MetricPair = MetricPair.PURITY_IP,
) -> MetricVector:
    """Evaluate one system against one gold standard on the chosen metric pair."""
    pair = MetricPair(pair)
    if pair is MetricPair.PURITY_IP:
        return MetricVector(
            {"purity": purity(system, gold), "inverse_purity": inverse_purity(system, gold)}
        )
    return MetricVector(
        {
            "bcubed_precision": bcubed_precision(system, gold),
            "bcubed_recall": bcubed_recall(system, gold),
        }
    )


def metric_pair_columns(
    table: ScoreTable, pair: MetricPair | str | None = None
) -> tuple[str, str]:
    """Resolve a table's (precision-like, recall-like) column names.

    With an explicit pair the named columns must exist.  Without one the
    table must have exactly two metrics, read in column order.
    """
    if pair is not None:
        columns = PAIR_COLUMNS[MetricPair(pair)]
        missing = [name for name in columns if name not in table.metric_names]
        if missing:
            raise ValueError(f"table lacks metric(s) {', '.join(missing)}")
        return columns
    names = table.metric_names
    if len(names) != 2:
        raise ValueError(
            f"table has {len(names)} metrics; specify an explicit metric pair"
        )
    return names


def _mean_f(precision: Sequence[float], recall: Sequence[float], alpha: float) -> float:
    """Mean ``f_measure`` over paired score columns: the same per-case values,
    summed left to right, as callers compare the results with ``==``."""
    _check_alpha(alpha)
    total = 0.0
    if alpha == 0.0 or alpha == 1.0:
        for value in recall if alpha == 0.0 else precision:
            total += value
    else:
        beta = 1.0 - alpha
        for p, r in zip(precision, recall):
            if p and r:  # else F is 0, and adding 0.0 changes nothing
                total += 1.0 / (alpha / p + beta / r)
    return total / len(precision)


def mean_f_measure(
    table: ScoreTable,
    system: str,
    alpha: float = 0.5,
    pair: MetricPair | str | None = None,
) -> float:
    """Mean over test cases of the per-case F of one system."""
    p_col, r_col = metric_pair_columns(table, pair)
    return _mean_f(table.scores_for(system, p_col), table.scores_for(system, r_col), alpha)
