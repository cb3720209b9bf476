"""The per-pair kernels against the plain-Python versions they replaced.

``kernel_oracle`` keeps the list dynamic programme for the exact null
distribution, the ``Counter`` rank sums, the boolean-list UIR counts and the
row-wise bivariate fit.  The packed, sorted, packed-rank and column-native
kernels in the package must return ``==`` results on every input, refusals
included.
"""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle as oracle
import unanimity.uir as uir_module
from unanimity.data import ScoreTable
from unanimity.stats import (
    EXACT_CUTOFF,
    _SLOT_BITS,
    BivariateNormalModel,
    _fit,
    _null_cumulative,
    _rank_sums,
    fit_bivariate_normal,
)
from unanimity.experiments import gold_consistent_pairs
from unanimity.uir import MAX_PAIRS, pairwise_uir_matrix, robust_set_f, unanimous_improvement_ratio

# The cached function's computation, so that every call here is a fresh one.
packed_null_cumulative = _null_cumulative.__wrapped__


def compositions(n):
    """Every tie pattern of n ranks: the group sizes, in rank order."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        sizes, size = [], 1
        for cut in cuts:
            if cut:
                sizes.append(size)
                size = 0
            size += 1
        yield tuple(sizes + [size])


@st.composite
def tie_patterns(draw):
    n = draw(st.integers(1, EXACT_CUTOFF))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))) if n > 1 else ())
    bounds = [0, *cuts, n]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


class TestNullDistribution:
    def test_slot_holds_every_count(self):
        # A coefficient is at most 2^n; at n = EXACT_CUTOFF it must still
        # fit one slot, or a carry would corrupt the next count.
        assert EXACT_CUTOFF < _SLOT_BITS
        assert struct.calcsize("<I") * 8 == _SLOT_BITS

    def test_every_tie_pattern_up_to_12(self):
        for n in range(1, 13):
            for sizes in compositions(n):
                assert packed_null_cumulative(sizes) == oracle.null_cumulative(sizes)

    @settings(max_examples=300, deadline=None)
    @given(tie_patterns())
    def test_tie_patterns_up_to_cutoff(self, sizes):
        assert sum(sizes) <= EXACT_CUTOFF
        assert packed_null_cumulative(sizes) == oracle.null_cumulative(sizes)

    @pytest.mark.parametrize(
        "sizes", [(1,) * EXACT_CUTOFF, (EXACT_CUTOFF,)], ids=["all-distinct", "all-tied"]
    )
    def test_extremes_at_cutoff(self, sizes):
        counts = packed_null_cumulative(sizes)
        assert counts == oracle.null_cumulative(sizes)
        n = EXACT_CUTOFF
        # The lower half plus the mirrored upper half covers all 2^n sign
        # assignments, the middle sum (if any) once.
        assert len(counts) == n * (n + 1) // 2 + 1
        assert counts[-1] <= 2**n

    def test_cached_entry_equals_fresh(self):
        sizes = (2, 1, 3, 1, 1)
        assert _null_cumulative(sizes) == packed_null_cumulative(sizes)


SPECIAL = (0.0, -0.0, 0.25, 0.5, 1.0, math.inf, -math.inf)
SAMPLE_VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(-1.0, 1.0))


def same_outcome(f, g, *args):
    """Both return equal values, or both raise ValueError with one message."""
    try:
        expected = g(*args)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            f(*args)
        assert str(info.value) == str(exc)
        return
    assert f(*args) == expected


class TestRankSums:
    @settings(max_examples=500, deadline=None)
    @given(st.integers(1, 2 * EXACT_CUTOFF + 5).flatmap(
        lambda n: st.tuples(
            st.lists(SAMPLE_VALUES, min_size=n, max_size=n),
            st.lists(SAMPLE_VALUES, min_size=n, max_size=n),
        )
    ))
    def test_equals_counter_version(self, pair):
        # inf - inf is NaN, so refusals are drawn as well.
        same_outcome(_rank_sums, oracle.rank_sums, *pair)

    @pytest.mark.parametrize(
        "x, y",
        [
            ([0.0, -0.0, 0.0], [-0.0, 0.0, 0.0]),
            ([0.3, -0.0, 0.1, 0.0], [0.0, 0.0, 0.0, -0.0]),
            ([math.inf, 0.2, -math.inf], [0.0, 0.0, 0.0]),
            ([0.3, math.nan, 0.1], [0.0, 0.0, 0.0]),
            ([math.inf, 0.2], [math.inf, 0.0]),
            ([0.5] * EXACT_CUTOFF, [0.25] * EXACT_CUTOFF),
            ([1.0], [0.0]),
            ([], []),
            ([0.1, 0.2], [0.1]),
        ],
    )
    def test_edge_cases(self, x, y):
        same_outcome(_rank_sums, oracle.rank_sums, x, y)

    def test_long_samples_with_ties(self):
        rng = np.random.default_rng(91)
        for grid in (4, 64, None):
            if grid is None:
                x, y = rng.uniform(size=1000), rng.uniform(size=1000)
            else:
                x, y = rng.integers(0, grid + 1, size=(2, 1000)) / grid
            assert _rank_sums(x, y) == oracle.rank_sums(x, y)


SCORES = st.one_of(st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0)), st.floats(0.0, 1.0))


@st.composite
def column_pairs(draw):
    n_metrics = draw(st.integers(1, 5))
    n_cases = draw(st.integers(1, 70))
    column = st.lists(SCORES, min_size=n_cases, max_size=n_cases)
    return (
        [draw(column) for _ in range(n_metrics)],
        [draw(column) for _ in range(n_metrics)],
    )


@st.composite
def wide_tables(draw):
    """One to four cases, one to five metrics, two to four systems."""
    n_cases = draw(st.integers(1, 4))
    n_systems = draw(st.integers(2, 4))
    n_metrics = draw(st.integers(1, 5))
    rows = [
        (f"case{i}", f"s{j}", f"m{k}", draw(SCORES))
        for i in range(n_cases)
        for j in range(n_systems)
        for k in range(n_metrics)
    ]
    return ScoreTable.from_rows("k", rows)


class TestUirCounts:
    @settings(max_examples=500, deadline=None)
    @given(column_pairs())
    def test_equals_boolean_lists(self, cols):
        cols_a, cols_b = cols
        rows = [
            (f"c{i}", system, f"m{k}", value)
            for system, columns in (("a", cols_a), ("b", cols_b))
            for k, column in enumerate(columns)
            for i, value in enumerate(column)
        ]
        table = ScoreTable.from_rows("k", rows)
        expected = oracle.uir(cols_a, cols_b)
        assert oracle.byte_mask_uir(cols_a, cols_b) == expected
        assert repr(unanimous_improvement_ratio(table, "a", "b")) == repr(expected)

    @settings(max_examples=200, deadline=None)
    @given(wide_tables())
    def test_matrix_equals_boolean_lists(self, table):
        matrix = pairwise_uir_matrix(table)
        for a in table.systems:
            cols_a = [table.scores_for(a, m) for m in table.metric_names]
            for b in table.systems:
                if a != b:
                    cols_b = [table.scores_for(b, m) for m in table.metric_names]
                    assert matrix[(a, b)] == oracle.uir(cols_a, cols_b)


def one_case_table(n_systems):
    rows = [("c0", f"s{j}", m, 0.5) for j in range(n_systems) for m in ("p", "r")]
    return ScoreTable.from_rows("one", rows)


class TestPairLimit:
    def test_limit_is_a_million_ordered_pairs(self):
        assert MAX_PAIRS == 1_000_000

    def test_bound_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(uir_module, "MAX_PAIRS", 6)
        assert len(pairwise_uir_matrix(one_case_table(3))) == 6
        with pytest.raises(ValueError, match="4 systems, 12 ordered pairs; at most 6"):
            pairwise_uir_matrix(one_case_table(4))
        # The mean-F pair sets share the bound.  Every score is equal, so
        # every gap is 0: above -1, and positive in no collection.
        assert robust_set_f(one_case_table(3), -1.0) == {
            (a, b) for a in ("s0", "s1", "s2") for b in ("s0", "s1", "s2") if a != b
        }
        assert gold_consistent_pairs([one_case_table(3)] * 2) == set()
        with pytest.raises(ValueError, match="4 systems, 12 ordered pairs; at most 6"):
            robust_set_f(one_case_table(4), 0.0)
        with pytest.raises(ValueError, match="4 systems, 12 ordered pairs; at most 6"):
            gold_consistent_pairs([one_case_table(4)] * 2)

    def test_1001_systems_refused(self):
        with pytest.raises(ValueError, match="1001 systems, 1001000 ordered pairs"):
            pairwise_uir_matrix(one_case_table(1001))


DELTAS = st.one_of(st.sampled_from((0.0, -0.0, 0.5, -1.0, 1.0)), st.floats(-1.0, 1.0))


class TestFit:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(DELTAS, DELTAS), min_size=3, max_size=40))
    def test_column_fit_equals_row_fit(self, rows):
        expected = oracle.fit_bivariate_normal(rows)
        delta_p = [p for p, _ in rows]
        delta_r = [r for _, r in rows]
        mean_p, mean_r, c00, c01, c11 = _fit(delta_p, delta_r)
        model = BivariateNormalModel((mean_p, mean_r), ((c00, c01), (c01, c11)))
        # repr tells -0.0 from 0.0, which == does not.
        assert repr(model) == repr(expected)
        assert repr(fit_bivariate_normal(rows)) == repr(expected)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_too_few_samples_refused(self, n):
        with pytest.raises(ValueError, match="need >= 3 pairs"):
            _fit([0.1] * n, [0.2] * n)
