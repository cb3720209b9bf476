"""Purity over overlapping gold standards against the list-per-item count.

``metrics._labels_by_item`` keeps one label per item and collects the
labels of an item's other clusters only when the clustering overlaps.  The
draws put every gold item in two to four categories, score the gold against
itself as well, and add system items outside gold and gold items no cluster
holds.  Purity, inverse purity and ``score_pair`` must equal
``count_oracle``'s list-per-item count by ``==``; BCubed must refuse.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from unanimity.data import Clustering
from unanimity.metrics import (
    MetricPair,
    bcubed_precision,
    bcubed_recall,
    inverse_purity,
    purity,
    score_pair,
)

import count_oracle as oracle

POOL = [f"i{j:02d}" for j in range(12)]
OUTSIDE = ["x0", "x1", "x2"]


@st.composite
def overlapping_gold_pairs(draw):
    """(system, gold): each gold item in 2-4 of k categories; the system
    clusters some gold items, never all, and 1-3 items outside gold."""
    k = draw(st.integers(4, 7))
    gold_items = draw(st.lists(st.sampled_from(POOL), min_size=2, max_size=len(POOL), unique=True))
    gold: dict[str, set[str]] = {}
    for item in gold_items:
        for home in draw(st.sets(st.integers(0, k - 1), min_size=2, max_size=4)):
            gold.setdefault(f"g{home}", set()).add(item)
    clustered = draw(
        st.lists(st.sampled_from(gold_items), max_size=len(gold_items) - 1, unique=True)
    )
    outside = draw(st.lists(st.sampled_from(OUTSIDE), min_size=1, unique=True))
    system: dict[str, set[str]] = {}
    for item in clustered + outside:
        for home in draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=3)):
            system.setdefault(f"c{home}", set()).add(item)
    return Clustering(system), Clustering(gold)


@settings(max_examples=300, deadline=None)
@given(overlapping_gold_pairs())
def test_purity_counts_every_category_of_an_item(pair):
    system, gold = pair
    assert gold.overlapping and system.items - gold.items and gold.items - system.items
    for s, g in (system, gold), (gold, gold), (gold, system):
        expected = oracle.purity(s, g), oracle.inverse_purity(s, g)
        assert (purity(s, g), inverse_purity(s, g)) == expected
        assert score_pair(s, g).values() == expected
        assert score_pair(s, g, MetricPair.PURITY_IP).values() == expected


@settings(max_examples=100, deadline=None)
@given(overlapping_gold_pairs())
def test_bcubed_refuses_overlap(pair):
    system, gold = pair
    for s, g in (system, gold), (gold, gold):
        for score in (
            bcubed_precision,
            bcubed_recall,
            lambda s, g: score_pair(s, g, MetricPair.BCUBED),
        ):
            with pytest.raises(ValueError) as refused:
                score(s, g)
            assert type(refused.value) is ValueError
            assert str(refused.value) == "overlap unsupported for bcubed; use purity_ip"
