"""The sorted threshold walk behind ``threshold_sweep`` and ``predictor_curves``.

Rows and points are compared by ``==`` (and by ``repr``, which tells 0.0
from -0.0) with the per-threshold loops of ``sweep_oracle``.  Tables draw
from a few repeated scores and copy whole systems, so pair values tie and
mirrored pairs give 0.0 beside -0.0; grids draw thresholds equal to pair
values, both zeros, repeated points and points above every value.
"""

import inspect
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sweep_oracle
from unanimity.cli import MAX_GRID_POINTS
from unanimity.experiments import (
    alpha_sweep,
    gold_consistent_pairs,
    predictor_curves,
    threshold_sweep,
)
from unanimity.metrics import mean_f_measure, metric_pair_columns
from unanimity.report import render_ranking_report
from unanimity.stats import parametric_uir
from unanimity.uir import pairwise_uir_matrix, robust_set_f

from conftest import make_table, random_table

SCORE_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)


@st.composite
def score_maps(draw, n_systems, n_cases):
    """{system: per-case (p, r)}; a system may copy an earlier one whole."""
    scores = {}
    for j in range(n_systems):
        if scores and draw(st.booleans()):
            scores[f"s{j}"] = list(scores[draw(st.sampled_from(sorted(scores)))])
        else:
            value = st.sampled_from(SCORE_VALUES)
            scores[f"s{j}"] = [(draw(value), draw(value)) for _ in range(n_cases)]
    return scores


def draw_grid(data, values):
    """A sorted grid whose points are mostly pair values, repeats allowed."""
    point = st.one_of(
        st.sampled_from(sorted(set(values)) + [0.0, -0.0, -1.0, 1.0]),
        st.floats(-1.0, 1.0),
    )
    # sorted() is stable, so 0.0 and -0.0 keep their drawn order.
    return sorted(data.draw(st.lists(point, min_size=1, max_size=12)))


def assert_same(got, expected):
    assert got == expected
    assert repr(got) == repr(expected)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_threshold_sweep_equals_per_threshold_loop(data):
    n_systems, n_cases = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 6))
    table = make_table(data.draw(score_maps(n_systems, n_cases)))
    grid = draw_grid(data, [r.value for r in pairwise_uir_matrix(table).values()])
    alpha = data.draw(st.sampled_from((0.0, 0.5, 1.0)))
    assert_same(
        threshold_sweep(table, grid, alpha),
        sweep_oracle.threshold_sweep(table, grid, alpha),
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_predictor_curves_equal_per_threshold_loop(data):
    n_systems, n_cases = data.draw(st.integers(2, 5)), data.draw(st.integers(3, 6))
    tables = [
        make_table(data.draw(score_maps(n_systems, n_cases)), collection_id=f"c{i}")
        for i in range(data.draw(st.integers(2, 3)))
    ]
    assume(gold_consistent_pairs(tables))
    scores = sweep_oracle.predictor_scores(tables[0])
    grid = draw_grid(data, [v for by_pair in scores.values() for v in by_pair.values()])
    assert_same(
        predictor_curves(tables[0], tables, grid),
        sweep_oracle.predictor_curves(tables[0], tables, grid),
    )


def intersected_f_gains(tables, alpha=0.5):
    """Gold-consistent pairs as the intersection of each table's set of
    ordered pairs with a positive mean-F gap."""
    gains = []
    for table in tables:
        means = {s: mean_f_measure(table, s, alpha) for s in table.systems}
        gains.append({(a, b) for a in means for b in means if a != b and means[a] - means[b] > 0.0})
    return set.intersection(*gains)


@st.composite
def shuffled_collections(draw):
    """Two or three collections over one system set, each listing the
    systems in its own order; copied systems tie in mean F."""
    n_systems, n_cases = draw(st.integers(2, 5)), draw(st.integers(3, 6))
    tables = []
    for i in range(draw(st.integers(2, 3))):
        scores = draw(score_maps(n_systems, n_cases))
        order = draw(st.permutations(sorted(scores)))
        tables.append(make_table({s: scores[s] for s in order}, collection_id=f"c{i}"))
    return tables


def check_gold_target(tables, reference, grid, alpha=0.5):
    target = gold_consistent_pairs(tables, alpha)
    assert target == intersected_f_gains(tables, alpha)
    if not target:
        with pytest.raises(ValueError, match="no gold-consistent pairs"):
            predictor_curves(reference, tables, grid, alpha)
        return
    assert_same(
        predictor_curves(reference, tables, grid, alpha),
        sweep_oracle.predictor_curves(reference, tables, grid, alpha),
    )


@settings(max_examples=150, deadline=None)
@given(shuffled_collections(), st.data())
def test_gold_target_follows_the_reference_order(tables, data):
    # The reference is never the first collection, whose pair order may differ.
    reference = tables[data.draw(st.integers(1, len(tables) - 1))]
    alpha = data.draw(st.sampled_from((0.0, 0.5, 1.0)))
    scores = sweep_oracle.predictor_scores(reference, alpha)
    grid = draw_grid(data, [v for by_pair in scores.values() for v in by_pair.values()])
    check_gold_target(tables, reference, grid, alpha)


def test_tied_means_give_neither_direction():
    # y and z tie in the first collection, which lists the systems in the
    # reverse of the reference's order.
    first = make_table({"x": [(0.9, 0.9)] * 3, "y": [(0.5, 0.5)] * 3, "z": [(0.5, 0.5)] * 3})
    reference = make_table({"z": [(0.2, 0.3)] * 3, "y": [(0.6, 0.5)] * 3, "x": [(0.8, 0.8)] * 3})
    assert gold_consistent_pairs([first, reference]) == {("x", "y"), ("x", "z")}
    check_gold_target([first, reference], reference, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_sweeps_at_grid_cap_stay_fast():
    rng = np.random.default_rng(57)
    tables = [random_table(rng, n_cases=10, n_systems=30) for _ in range(3)]
    grid = [-1.0 + 2.0 * i / (MAX_GRID_POINTS - 2) for i in range(MAX_GRID_POINTS - 1)]
    assert grid[-1] == 1.0

    start = time.perf_counter()
    rows = threshold_sweep(tables[0], grid)
    curves = predictor_curves(tables[0], tables, grid)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"sweeps took {elapsed:.2f} s"

    assert len(rows) == len(grid)
    every = 997
    assert rows[::every] == sweep_oracle.threshold_sweep(tables[0], grid[::every])
    thinned = sweep_oracle.predictor_curves(tables[0], tables, grid[::every])
    for curve, expected in zip(curves, thinned):
        kept = set(grid[::every])
        assert tuple(p for p in curve.points if p[0] in kept) == expected.points


def test_select_metrics_narrows_a_wider_table():
    metrics = ("purity", "inverse_purity", "bcubed_precision", "bcubed_recall")
    rng = np.random.default_rng(58)
    wide, narrow = [], []
    for c in range(3):
        scores = {
            f"s{j}": [tuple(map(float, rng.uniform(0.2 * j, 0.2 * j + 0.3, 4))) for _ in range(6)]
            for j in range(4)
        }
        wide.append(make_table(scores, metrics=metrics, collection_id=f"c{c}"))
        bcubed = {s: [row[2:] for row in rows] for s, rows in scores.items()}
        narrow.append(make_table(bcubed, metrics=metrics[2:], collection_id=f"c{c}"))
    grid = [round(-1 + 0.05 * i, 10) for i in range(41)]

    with pytest.raises(ValueError, match="metric pair"):
        predictor_curves(wide[0], wide, grid)
    selected = [t.select_metrics(metric_pair_columns(t, "bcubed")) for t in wide]
    curves = predictor_curves(selected[0], selected, grid)
    assert curves == predictor_curves(narrow[0], narrow, grid)
    assert all(curve.points for curve in curves)


@pytest.mark.parametrize(
    "function",
    [
        alpha_sweep,
        mean_f_measure,
        gold_consistent_pairs,
        predictor_curves,
        render_ranking_report,
        robust_set_f,
        parametric_uir,
    ],
)
def test_table_functions_read_the_tables_own_pair(function):
    assert "pair" not in inspect.signature(function).parameters
