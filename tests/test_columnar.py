"""The columnar score-table paths against scalar per-cell oracles.

The oracles walk the table cell by cell: one ``unanimous_compare`` per case
for UIR, a left-to-right sum of the scalar ``bounds_oracle.f_measure`` for
mean F, per-case deltas for the parametric UIR.  Random tables draw from a
few repeated values (ties, 0.0 and 1.0) and from the whole unit interval,
with one to three metrics; every comparison is ``==``, except that the
parametric UIR is also held within 1e-15 of the quadrant quadrature.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import bounds_oracle
from unanimity.data import ScoreTable, parse_score_table, serialize_score_table
from unanimity.experiments import alpha_sweep
from unanimity.metrics import mean_f_measure, metric_pair_columns
from unanimity.stats import fit_bivariate_normal, orthant_probability, parametric_uir
from unanimity.uir import (
    RelationOutcome,
    UirResult,
    pairwise_uir_matrix,
    reference_system,
    unanimous_compare,
    unanimous_improvement_ratio,
)

SCORES = st.one_of(
    st.sampled_from((0.0, 0.25, 0.5, 1.0)),
    st.floats(0.0, 1.0, allow_nan=False),
)
ALPHAS = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0, allow_nan=False))


@st.composite
def rows_and_tables(draw, metrics=st.integers(1, 3), systems=st.integers(1, 5), cases=st.integers(1, 8)):
    n_metrics, n_systems, n_cases = draw(metrics), draw(systems), draw(cases)
    rows = []
    for i in range(n_cases):
        for j in range(n_systems):
            for k in range(n_metrics):
                rows.append((f"case{i}", f"s{j}", f"m{k}", draw(SCORES)))
    # Shuffled rows still give first-appearance order.
    rows = draw(st.permutations(rows))
    return rows, ScoreTable.from_rows("h", rows)


def tables(**sizes):
    return rows_and_tables(**sizes).map(lambda drawn: drawn[1])


two_metric_tables = tables(metrics=st.just(2))


def oracle_uir(table, sys_a, sys_b):
    n_a = n_b = n_inc = 0
    for case in table.cases:
        outcome = unanimous_compare(table.cell(case, sys_a), table.cell(case, sys_b))
        if outcome is RelationOutcome.EQUAL:
            n_a += 1
            n_b += 1
        elif outcome is RelationOutcome.A_OVER_B:
            n_a += 1
        elif outcome is RelationOutcome.B_OVER_A:
            n_b += 1
        else:
            n_inc += 1
    n_total = len(table.cases)
    return UirResult(n_a, n_b, n_inc, n_total, (n_a - n_b) / n_total)


def oracle_mean_f(table, system, alpha):
    p_col, r_col = metric_pair_columns(table)
    total = 0.0
    for case in table.cases:
        vector = table.cell(case, system)
        total += bounds_oracle.f_measure(vector[p_col], vector[r_col], alpha)
    return total / len(table.cases)


def oracle_difference_model(table, sys_a, sys_b):
    p_col, r_col = metric_pair_columns(table)
    deltas = []
    for case in table.cases:
        va, vb = table.cell(case, sys_a), table.cell(case, sys_b)
        deltas.append((va[p_col] - vb[p_col], va[r_col] - vb[r_col]))
    return fit_bivariate_normal(deltas)


@settings(max_examples=200, deadline=None)
@given(tables())
def test_uir_matches_per_case_oracle(table):
    matrix = pairwise_uir_matrix(table)
    for a in table.systems:
        assert unanimous_improvement_ratio(table, a, a) == oracle_uir(table, a, a)
        for b in table.systems:
            if a != b:
                expected = oracle_uir(table, a, b)
                assert matrix[(a, b)] == expected
                assert unanimous_improvement_ratio(table, a, b) == expected


@settings(max_examples=100, deadline=None)
@given(tables(systems=st.integers(2, 5)))
def test_reference_system_matches_oracle(table):
    for system in table.systems:
        best = None
        for other in sorted(table.systems):
            value = oracle_uir(table, other, system).value
            if other != system and value > (0.0 if best is None else best[1]):
                best = (other, value)
        assert reference_system(table, system) == best


@settings(max_examples=200, deadline=None)
@given(two_metric_tables, st.lists(ALPHAS, min_size=1, max_size=6))
def test_mean_f_and_alpha_sweep_match_sequential_sum(table, alphas):
    grid = sorted(alphas)
    sweep = alpha_sweep(table, grid)
    for system in table.systems:
        expected = tuple(oracle_mean_f(table, system, alpha) for alpha in grid)
        assert sweep.curves[system] == expected
        assert tuple(mean_f_measure(table, system, alpha) for alpha in grid) == expected


@settings(max_examples=100, deadline=None)
@given(tables(metrics=st.just(2), systems=st.integers(2, 4), cases=st.integers(3, 8)))
def test_parametric_uir_matches_per_case_deltas(table):
    a, b = table.systems[:2]
    model = oracle_difference_model(table, a, b)
    value = parametric_uir(table, a, b)
    assert value == bounds_oracle.quadrant_difference(model)
    assert abs(value - (orthant_probability(model) - orthant_probability(model.mirrored()))) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(rows_and_tables())
def test_scores_for_cell_and_round_trip(drawn):
    rows, table = drawn
    scores = {(case, system, metric): value for case, system, metric, value in rows}
    for system in table.systems:
        for name in table.metric_names:
            expected = tuple(scores[case, system, name] for case in table.cases)
            assert table.scores_for(system, name) == expected
        for case in table.cases:
            cell = table.cell(case, system).scores
            assert cell == {name: scores[case, system, name] for name in table.metric_names}
    again = parse_score_table(serialize_score_table(table), collection_id="h")
    assert again == table


@settings(max_examples=100, deadline=None)
@given(tables(metrics=st.integers(2, 3)), st.data())
def test_select_metrics_keeps_column_order(table, data):
    names = data.draw(st.permutations(table.metric_names))
    names = names[: data.draw(st.integers(1, len(names)))]
    selected = table.select_metrics(names)
    assert selected.metric_names == tuple(names)
    assert (selected.cases, selected.systems) == (table.cases, table.systems)
    for system in table.systems:
        for name in names:
            assert selected.scores_for(system, name) is table.scores_for(system, name)
        for case in table.cases:
            assert selected.cell(case, system).names == tuple(names)
