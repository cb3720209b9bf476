"""Metric definitions against brute-force oracles and invariants."""

import math

import numpy as np
import pytest

from unanimity.data import _SCORE_MAX, Clustering, ValidationError
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

from conftest import make_table, random_overlapping, random_partition


# Brute-force oracles: spelled out term by term, no shared code with the
# implementation.

def oracle_purity(system: Clustering, gold: Clustering) -> float:
    terms = []
    n = 0
    for members in system.clusters.values():
        n += len(members)
    for members in system.clusters.values():
        precisions = []
        for category in gold.clusters.values():
            hit = 0
            for item in members:
                if item in category:
                    hit += 1
            precisions.append(hit / len(members))
        terms.append(len(members) / n * max(precisions))
    return sum(terms)


def oracle_inverse_purity(system: Clustering, gold: Clustering) -> float:
    terms = []
    n = 0
    for members in gold.clusters.values():
        n += len(members)
    for category in gold.clusters.values():
        coverages = []
        for members in system.clusters.values():
            hit = 0
            for item in category:
                if item in members:
                    hit += 1
            coverages.append(hit / len(category))
        terms.append(len(category) / n * max(coverages))
    return sum(terms)


def oracle_bcubed(system: Clustering, gold: Clustering) -> tuple[float, float]:
    cluster_of = {}
    for members in system.clusters.values():
        for item in members:
            cluster_of[item] = members
    category_of = {}
    for members in gold.clusters.values():
        for item in members:
            category_of[item] = members
    precisions = []
    for item, cluster in cluster_of.items():
        same = sum(1 for other in cluster if category_of[other] is category_of[item])
        precisions.append(same / len(cluster))
    recalls = []
    for item, category in category_of.items():
        if item not in cluster_of:
            recalls.append(0.0)
            continue
        same = sum(
            1
            for other in category
            if other in cluster_of and cluster_of[other] is cluster_of[item]
        )
        recalls.append(same / len(category))
    return sum(precisions) / len(precisions), sum(recalls) / len(recalls)


WORKED_SYSTEM = Clustering({"c1": {"a", "b"}, "c2": {"c"}})
WORKED_GOLD = Clustering({"g1": {"a", "c"}, "g2": {"b"}})


class TestWorkedExample:
    def test_all_metrics_two_thirds(self):
        assert purity(WORKED_SYSTEM, WORKED_GOLD) == pytest.approx(2 / 3)
        assert inverse_purity(WORKED_SYSTEM, WORKED_GOLD) == pytest.approx(2 / 3)
        assert bcubed_precision(WORKED_SYSTEM, WORKED_GOLD) == pytest.approx(2 / 3)

    def test_matches_oracles(self):
        assert purity(WORKED_SYSTEM, WORKED_GOLD) == pytest.approx(
            oracle_purity(WORKED_SYSTEM, WORKED_GOLD)
        )
        p, r = oracle_bcubed(WORKED_SYSTEM, WORKED_GOLD)
        assert bcubed_precision(WORKED_SYSTEM, WORKED_GOLD) == pytest.approx(p)
        assert bcubed_recall(WORKED_SYSTEM, WORKED_GOLD) == pytest.approx(r)


class TestPurityFamily:
    def test_matches_oracle_on_random_partitions(self):
        rng = np.random.default_rng(101)
        items = [f"i{j}" for j in range(15)]
        for _ in range(200):
            system = random_partition(rng, items, 5)
            gold = random_partition(rng, items, 5)
            assert purity(system, gold) == pytest.approx(oracle_purity(system, gold))
            assert inverse_purity(system, gold) == pytest.approx(
                oracle_inverse_purity(system, gold)
            )

    def test_matches_oracle_on_random_overlapping(self):
        rng = np.random.default_rng(102)
        items = [f"i{j}" for j in range(10)]
        for _ in range(200):
            system = random_overlapping(rng, items, 4)
            gold = random_overlapping(rng, items, 4)
            assert purity(system, gold) == pytest.approx(oracle_purity(system, gold))
            assert inverse_purity(system, gold) == pytest.approx(
                oracle_inverse_purity(system, gold)
            )

    def test_role_swap_symmetry(self):
        rng = np.random.default_rng(103)
        items = [f"i{j}" for j in range(12)]
        for _ in range(50):
            a = random_partition(rng, items, 4)
            b = random_partition(rng, items, 4)
            assert inverse_purity(a, b) == purity(b, a)

    def test_bounds(self):
        rng = np.random.default_rng(104)
        items = [f"i{j}" for j in range(9)]
        for _ in range(100):
            system = random_overlapping(rng, items, 3)
            gold = random_overlapping(rng, items, 3)
            assert 0.0 < purity(system, gold) <= 1.0
            assert 0.0 < inverse_purity(system, gold) <= 1.0

    def test_identity_partition_perfect(self):
        rng = np.random.default_rng(105)
        items = [f"i{j}" for j in range(8)]
        c = random_partition(rng, items, 4)
        assert purity(c, c) == pytest.approx(1.0)
        assert inverse_purity(c, c) == pytest.approx(1.0)

    def test_cluster_precision(self):
        assert cluster_precision({"a", "b"}, {"a", "c"}) == 0.5
        with pytest.raises(ValueError):
            cluster_precision(set(), {"a"})

    def test_empty_inputs_rejected(self):
        c = Clustering({"x": {"a"}})
        for fn in (purity, inverse_purity, bcubed_precision, bcubed_recall):
            with pytest.raises(ValueError):
                fn(c, Clustering({}))
            with pytest.raises(ValueError):
                fn(Clustering({}), c)


class TestBCubed:
    def test_matches_oracle_on_random_partitions(self):
        rng = np.random.default_rng(106)
        items = [f"i{j}" for j in range(14)]
        for _ in range(200):
            system = random_partition(rng, items, 5)
            gold = random_partition(rng, items, 5)
            p, r = oracle_bcubed(system, gold)
            assert bcubed_precision(system, gold) == pytest.approx(p)
            assert bcubed_recall(system, gold) == pytest.approx(r)

    def test_identity_partition_is_perfect(self):
        rng = np.random.default_rng(107)
        items = [f"i{j}" for j in range(10)]
        c = random_partition(rng, items, 4)
        assert bcubed_precision(c, c) == 1.0
        assert bcubed_recall(c, c) == 1.0

    def test_overlap_rejected_with_redirect(self):
        overlapping = Clustering({"x": {"a", "b"}, "y": {"a"}})
        flat = Clustering({"z": {"a", "b"}})
        with pytest.raises(ValueError, match="use purity_ip"):
            bcubed_precision(overlapping, flat)
        with pytest.raises(ValueError, match="use purity_ip"):
            bcubed_recall(flat, overlapping)

    def test_overlap_refused_before_items_outside_gold(self):
        overlapping_with_extra = Clustering({"x": {"a", "z"}, "y": {"a"}})
        flat = Clustering({"g": {"a", "b"}})
        overlapping_gold = Clustering({"g": {"a", "b"}, "h": {"a"}})
        for system, gold in ((overlapping_with_extra, flat), (flat, overlapping_gold)):
            for fn in (bcubed_precision, bcubed_recall):
                with pytest.raises(ValueError) as refused:
                    fn(system, gold)
                assert type(refused.value) is ValueError
                assert str(refused.value) == "overlap unsupported for bcubed; use purity_ip"

    def test_unclustered_gold_items_count_zero(self):
        system = Clustering({"x": {"a"}})
        gold = Clustering({"g": {"a", "b"}})
        # b is never clustered: recall averages 1/2 (for a) and 0 (for b).
        assert bcubed_recall(system, gold) == pytest.approx(0.25)

    def test_extra_system_items_rejected(self):
        system = Clustering({"x": {"a", "z"}})
        gold = Clustering({"g": {"a"}})
        with pytest.raises(ValidationError, match="z"):
            bcubed_precision(system, gold)


class TestFMeasure:
    def test_harmonic_mean_at_half(self):
        rng = np.random.default_rng(108)
        for _ in range(300):
            p, r = rng.uniform(0.01, 1.0, size=2)
            assert f_measure(p, r, 0.5) == pytest.approx(2 * p * r / (p + r))

    def test_endpoints(self):
        assert f_measure(0.3, 0.9, 0.0) == 0.9
        assert f_measure(0.3, 0.9, 1.0) == 0.3

    def test_zero_conventions(self):
        assert f_measure(0.0, 0.9, 0.5) == 0.0
        assert f_measure(0.9, 0.0, 0.5) == 0.0
        assert f_measure(0.0, 0.9, 0.0) == 0.9
        assert f_measure(0.9, 0.0, 1.0) == 0.9
        assert f_measure(0.0, 0.0, 0.5) == 0.0

    def test_between_min_and_max(self):
        rng = np.random.default_rng(109)
        for _ in range(300):
            p, r = rng.uniform(0.01, 1.0, size=2)
            alpha = float(rng.uniform())
            f = f_measure(p, r, alpha)
            assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12

    def test_monotone_in_each_argument(self):
        rng = np.random.default_rng(110)
        for _ in range(300):
            p, r = rng.uniform(0.0, 1.0, size=2)
            dp, dr = rng.uniform(0.0, 1.0 - p), rng.uniform(0.0, 1.0 - r)
            alpha = float(rng.uniform())
            assert f_measure(p + dp, r + dr, alpha) >= f_measure(p, r, alpha)

    def test_alpha_outside_range_rejected(self):
        with pytest.raises(ValueError):
            f_measure(0.5, 0.5, 1.5)
        with pytest.raises(ValueError):
            f_measure(0.5, 0.5, -0.1)

    def test_score_outside_range_rejected(self):
        with pytest.raises(ValueError):
            f_measure(1.5, 0.5)
        with pytest.raises(ValueError, match="precision"):
            f_measure(math.nextafter(_SCORE_MAX, 2.0), 0.5)
        assert f_measure(_SCORE_MAX, 0.5) > 0.5
        # A perfect clustering's own scores: shares 0.4, 0.2, 0.3 and 0.1
        # sum to 1 + 2.2e-16, which score tables accept and so must F.
        gold = Clustering(
            {"a": frozenset("abcd"), "b": frozenset("ef"), "c": frozenset("ghi"), "d": frozenset("j")}
        )
        precision, recall = score_pair(gold, gold).values()
        assert precision > 1.0 and recall > 1.0
        assert f_measure(precision, recall) == mean_f_measure(
            make_table({"g": [(precision, recall)]}), "g"
        )


class TestBaselines:
    ITEMS = ["a", "b", "c", "d", "e"]

    def test_one_in_one_maximal_purity(self):
        rng = np.random.default_rng(111)
        gold = random_partition(rng, self.ITEMS, 3)
        assert purity(baseline_one_in_one(self.ITEMS), gold) == pytest.approx(1.0)

    def test_all_in_one_maximal_inverse_purity(self):
        rng = np.random.default_rng(112)
        gold = random_partition(rng, self.ITEMS, 3)
        assert inverse_purity(baseline_all_in_one(self.ITEMS), gold) == pytest.approx(1.0)

    def test_combined_is_union_and_overlapping(self):
        combined = baseline_combined(self.ITEMS)
        assert combined.overlapping
        assert combined.n == 2 * len(self.ITEMS)
        assert combined.items == set(self.ITEMS)
        one = baseline_one_in_one(self.ITEMS)
        assert all(label in combined.clusters for label in one.labels)
        assert combined.clusters["b100_all"] == set(self.ITEMS)

    def test_empty_items_rejected(self):
        for fn in (baseline_one_in_one, baseline_all_in_one, baseline_combined):
            with pytest.raises(ValueError):
                fn([])


class TestPairHelpers:
    def test_score_pair_purity_ip(self):
        v = score_pair(WORKED_SYSTEM, WORKED_GOLD, MetricPair.PURITY_IP)
        assert v.names == ("purity", "inverse_purity")
        assert v["purity"] == pytest.approx(2 / 3)

    def test_score_pair_bcubed(self):
        v = score_pair(WORKED_SYSTEM, WORKED_GOLD, "bcubed")
        assert v.names == ("bcubed_precision", "bcubed_recall")

    def test_metric_pair_columns_default_two(self):
        t = make_table({"s": [(0.5, 0.5)]})
        assert metric_pair_columns(t) == ("precision", "recall")

    def test_metric_pair_columns_ambiguous(self):
        t = make_table({"s": [(0.5, 0.5, 0.5)]}, metrics=("a", "b", "c"))
        with pytest.raises(ValueError, match="metric pair"):
            metric_pair_columns(t)

    def test_metric_pair_columns_named(self):
        t = make_table(
            {"s": [(0.5, 0.5, 0.4, 0.4)]},
            metrics=("purity", "inverse_purity", "bcubed_precision", "bcubed_recall"),
        )
        assert metric_pair_columns(t, MetricPair.BCUBED) == (
            "bcubed_precision",
            "bcubed_recall",
        )
        t2 = make_table({"s": [(0.5, 0.5)]})
        with pytest.raises(ValueError, match="lacks"):
            metric_pair_columns(t2, MetricPair.BCUBED)

    def test_mean_f_measure(self):
        t = make_table({"s": [(0.5, 0.5), (0.2, 0.8)]})
        expected = (f_measure(0.5, 0.5), f_measure(0.2, 0.8))
        assert mean_f_measure(t, "s") == pytest.approx(sum(expected) / 2)
