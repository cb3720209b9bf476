"""Extrinsic clustering metrics and their weighted harmonic combination.

Purity weighs each cluster by its share of memberships and scores it by its
best single-category precision; inverse purity swaps the roles and rewards
covering each category with one cluster.  BCubed precision and recall average
per-item overlap fractions and are restricted here to single-assignment
clusterings.  All metrics land in [0, 1].  Every score is computed from the
sparse overlap counts |cluster & category|, built in one pass over the
memberships (Amigo et al. 2009), never by intersecting every pair of sets.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import chain
from typing import AbstractSet, Iterable, Sequence

from unanimity.data import (
    _SCORE_MAX,
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


def _labels_by_item(clustering: Clustering) -> tuple[dict[str, str], dict[str, list[str]]]:
    """Item -> label of the last cluster holding it, and item -> labels of
    the other clusters holding it, which is empty unless clusters overlap."""
    label_of = {item: label for label, members in clustering.clusters.items() for item in members}
    extra: dict[str, list[str]] = {}
    # An item in two clusters is counted twice in n but kept once in label_of.
    if len(label_of) != clustering.n:
        for label, members in clustering.clusters.items():
            for item in members:
                if label_of[item] != label:
                    extra.setdefault(item, []).append(label)
    return label_of, extra


def _purity_pair(system: Clustering, gold: GoldStandard) -> tuple[float, float]:
    """Purity and inverse purity from one table of overlap counts |c & g|.

    Purity takes each cluster's row maximum, inverse purity each category's
    maximum over the rows.  A cluster with no gold item, or a category no
    cluster reaches, scores 0.
    """
    _check_nonempty(system, gold)
    category_of, extra = _labels_by_item(gold)
    n, n_gold = system.n, gold.n
    total = inverse = 0.0
    cover: dict[str, int] = {}
    # Fixed label order keeps the float sums reproducible across runs.
    for label in system.labels:
        cluster = system.clusters[label]
        row = Counter(map(category_of.get, cluster))
        if extra:
            row.update(chain.from_iterable(filter(None, map(extra.get, cluster))))
        # Items outside gold are counted under None.
        row.pop(None, None)
        # max(k) / |c| equals max(k / |c|): dividing by |c| > 0 keeps order.
        best = max(row.values()) / len(cluster) if row else 0.0
        total += len(cluster) / n * best
        for category, k in row.items():
            if k > cover.get(category, 0):
                cover[category] = k
    for label in gold.labels:
        category = gold.clusters[label]
        best = cover[label] / len(category) if label in cover else 0.0
        inverse += len(category) / n_gold * best
    return total, inverse


def purity(system: Clustering, gold: GoldStandard) -> float:
    """Membership-weighted average of each cluster's best category precision.

    Weights are cluster sizes over the system's total membership count, so
    they form a distribution even when clusters overlap.  The score costs
    O(memberships).
    """
    return _purity_pair(system, gold)[0]


def inverse_purity(system: Clustering, gold: GoldStandard) -> float:
    """Category-weighted average of each category's best cluster coverage.

    Exactly purity with the roles swapped: categories are weighted by their
    share of gold memberships and scored by the best covering cluster.
    """
    return _purity_pair(system, gold)[1]


def _bcubed_pair(system: Clustering, gold: GoldStandard) -> tuple[float, float]:
    """BCubed precision and recall from one count and one sorted walk.

    Neither side may overlap and every system item must be a gold item, so
    the walk over the gold items meets the system items in their own order.
    """
    _check_nonempty(system, gold)
    cluster_of, system_overlap = _labels_by_item(system)
    category_of, gold_overlap = _labels_by_item(gold)
    if system_overlap or gold_overlap:
        raise ValueError("overlap unsupported for bcubed; use purity_ip")
    absent = sorted(system.items - gold.items)
    if absent:
        raise ValidationError("system items absent from gold: " + " ".join(absent))
    counts = Counter((c, category_of[item]) for item, c in cluster_of.items())
    clusters = system.clusters
    categories = gold.clusters
    precision = recall = 0.0
    for item in sorted(category_of):
        c = cluster_of.get(item)
        if c is not None:
            g = category_of[item]
            k = counts[c, g]
            precision += k / len(clusters[c])
            recall += k / len(categories[g])
    return precision / len(cluster_of), recall / len(category_of)


def bcubed_precision(system: Clustering, gold: GoldStandard) -> float:
    """Mean over clustered items of the in-cluster same-category fraction."""
    return _bcubed_pair(system, gold)[0]


def bcubed_recall(system: Clustering, gold: GoldStandard) -> float:
    """Mean over gold items of the in-category same-cluster fraction.

    Gold items the system never clustered contribute zero.
    """
    return _bcubed_pair(system, gold)[1]


def _check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1]")


def f_measure(precision: float, recall: float, alpha: float = 0.5) -> float:
    """Weighted harmonic combination ``1 / (alpha/p + (1 - alpha)/r)``.

    ``alpha`` is the relative weight of the precision-like component: 1 keeps
    only precision, 0 only recall, 0.5 gives the plain harmonic mean.  The
    formula is extended by continuity with value 0 whenever a component with
    positive weight is 0.  A component may exceed 1 by 1e-9, as in a score table.
    """
    _check_alpha(alpha)
    for name, value in (("precision", precision), ("recall", recall)):
        if not 0.0 <= value <= _SCORE_MAX:
            raise ValueError(f"{name} {value} outside [0, 1]")
    return _mean_f((precision,), (recall,), (alpha,))[0]


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
    items = set(items)
    return Clustering(
        {**baseline_one_in_one(items).clusters, **baseline_all_in_one(items).clusters}
    )


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
    scores = (_purity_pair if pair is MetricPair.PURITY_IP else _bcubed_pair)(system, gold)
    return MetricVector(dict(zip(PAIR_COLUMNS[pair], scores)))


def metric_pair_columns(
    table: ScoreTable, pair: MetricPair | str | None = None
) -> tuple[str, str]:
    """Resolve a table's (precision-like, recall-like) column names.

    With an explicit pair the named columns must exist; ``select_metrics``
    of them narrows a wider table to that pair.  Without one the table must
    have exactly two metrics, read in column order.
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
            f"table has {len(names)} metrics; narrow it to one metric pair first"
        )
    return names


def _mean_f(
    precision: Sequence[float], recall: Sequence[float], alphas: Sequence[float]
) -> list[float]:
    """Mean ``f_measure`` over paired score columns at each alpha: the same
    per-case values, summed left to right, as callers compare the results
    with ``==``."""
    for alpha in alphas:
        _check_alpha(alpha)
    # F is 0 where p or r is, and adding 0.0 changes nothing.
    positive = [(p, r) for p, r in zip(precision, recall) if p and r]
    means = []
    for alpha in alphas:
        total = 0.0
        if alpha == 0.0 or alpha == 1.0:
            for value in recall if alpha == 0.0 else precision:
                total += value
        else:
            beta = 1.0 - alpha
            for p, r in positive:
                total += 1.0 / (alpha / p + beta / r)
        means.append(total / len(precision))
    return means


def mean_f_measure(table: ScoreTable, system: str, alpha: float = 0.5) -> float:
    """Mean over test cases of the per-case F of one system."""
    p_col, r_col = metric_pair_columns(table)
    precision, recall = table.scores_for(system, p_col), table.scores_for(system, r_col)
    return _mean_f(precision, recall, (alpha,))[0]
