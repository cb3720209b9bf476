"""The overlap-count clustering metrics against the pairwise scalar oracles.

The oracles are the set-intersection loops the count-based metrics replace:
purity takes, per system cluster in label order, the best
``cluster_precision`` over every gold category; BCubed intersects each
item's cluster with its category, items in sorted order.  Both keep the
summation order of the metrics, so every comparison is ``==``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from unanimity.data import Clustering, ValidationError
from unanimity.metrics import (
    baseline_all_in_one,
    baseline_combined,
    baseline_one_in_one,
    bcubed_precision,
    bcubed_recall,
    cluster_precision,
    inverse_purity,
    purity,
)


def pairwise_purity(system: Clustering, gold: Clustering) -> float:
    n = system.n
    total = 0.0
    for label in system.labels:
        cluster = system.clusters[label]
        best = max(cluster_precision(cluster, gold.clusters[cat]) for cat in gold.labels)
        total += len(cluster) / n * best
    return total


def _cluster_of(clustering: Clustering) -> dict[str, frozenset[str]]:
    assign = {}
    for label in clustering.labels:
        for item in clustering.clusters[label]:
            assert item not in assign, "oracle expects a single-assignment clustering"
            assign[item] = clustering.clusters[label]
    return assign


def per_item_bcubed_precision(system: Clustering, gold: Clustering) -> float:
    sys_assign, gold_assign = _cluster_of(system), _cluster_of(gold)
    total = 0.0
    for item in sorted(sys_assign):
        cluster = sys_assign[item]
        total += len(cluster & gold_assign[item]) / len(cluster)
    return total / len(sys_assign)


def per_item_bcubed_recall(system: Clustering, gold: Clustering) -> float:
    sys_assign, gold_assign = _cluster_of(system), _cluster_of(gold)
    total = 0.0
    for item in sorted(gold_assign):
        category = gold_assign[item]
        cluster = sys_assign.get(item)
        if cluster is not None:
            total += len(cluster & category) / len(category)
    return total / len(gold_assign)


POOL = [f"i{j:02d}" for j in range(16)]


@st.composite
def clusterings(draw, items, overlapping=st.booleans()):
    """Up to one cluster per item, so singletons are common; with overlap an
    item may sit in several clusters."""
    overlap = draw(overlapping)
    k = draw(st.integers(1, len(items)))
    homes = st.sets(st.integers(0, k - 1), min_size=1, max_size=k if overlap else 1)
    clusters: dict[str, set[str]] = {}
    for item in items:
        for home in draw(homes):
            clusters.setdefault(f"c{home}", set()).add(item)
    return Clustering(clusters)


item_sets = st.lists(st.sampled_from(POOL), min_size=1, unique=True)


@st.composite
def lenient_pairs(draw):
    """Any two clusterings: system items absent from gold and gold items the
    system never clustered are both allowed, and either side may overlap."""
    gold = draw(clusterings(draw(item_sets)))
    system = draw(clusterings(draw(item_sets)))
    return system, gold


@st.composite
def bcubed_pairs(draw):
    """Single-assignment clusterings whose system items are all in gold;
    some gold items may stay unclustered."""
    gold_items = draw(item_sets)
    system_items = draw(st.lists(st.sampled_from(gold_items), min_size=1, unique=True))
    flat = st.just(False)
    return draw(clusterings(system_items, flat)), draw(clusterings(gold_items, flat))


@settings(max_examples=300, deadline=None)
@given(lenient_pairs())
def test_purity_matches_pairwise_oracle(pair):
    system, gold = pair
    assert purity(system, gold) == pairwise_purity(system, gold)


@settings(max_examples=300, deadline=None)
@given(lenient_pairs())
def test_inverse_purity_is_purity_with_roles_swapped(pair):
    a, b = pair
    assert inverse_purity(a, b) == purity(b, a)
    assert inverse_purity(a, b) == pairwise_purity(b, a)


@settings(max_examples=300, deadline=None)
@given(bcubed_pairs())
def test_bcubed_matches_per_item_oracle(pair):
    system, gold = pair
    assert bcubed_precision(system, gold) == per_item_bcubed_precision(system, gold)
    assert bcubed_recall(system, gold) == per_item_bcubed_recall(system, gold)


@settings(max_examples=100, deadline=None)
@given(lenient_pairs())
def test_bcubed_refusals(pair):
    system, gold = pair
    if system.overlapping or gold.overlapping:
        expected, match = ValueError, "use purity_ip"
    elif system.items - gold.items:
        expected, match = ValidationError, "absent from gold"
    else:
        assert bcubed_precision(system, gold) == per_item_bcubed_precision(system, gold)
        return
    for metric in (bcubed_precision, bcubed_recall):
        with pytest.raises(expected, match=match):
            metric(system, gold)


def test_cluster_without_gold_items_scores_zero():
    system = Clustering({"a": {"x", "y"}, "b": {"i00"}})
    gold = Clustering({"g": {"i00", "i01"}})
    assert purity(system, gold) == pairwise_purity(system, gold) == 1 / 3
    assert purity(Clustering({"a": {"x"}}), gold) == 0.0


@pytest.mark.parametrize("baseline", [baseline_one_in_one, baseline_all_in_one, baseline_combined])
def test_baselines_match_oracles(baseline):
    gold = Clustering({"g0": {"i00", "i01", "i02"}, "g1": {"i03"}, "g2": {"i04", "i00"}})
    system = baseline(POOL[:6])
    assert purity(system, gold) == pairwise_purity(system, gold)
    assert inverse_purity(system, gold) == pairwise_purity(gold, system)
