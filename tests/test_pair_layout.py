"""The ranking report and the robust UIR set, which compute each unordered
system pair once and read its mirror by negation, against the full
ordered-pair matrix.

Every row must be ``repr``-equal to ``sweep_oracle.render_ranking_report``'s
and every set equal to the one read off ``pairwise_uir_matrix``, at the
thresholds where a strict comparison turns: the table's own UIR values,
their negations, 0 and both ends of [-1, 1].
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import sweep_oracle
from unanimity.data import ScoreTable
from unanimity.report import render_ranking_report
from unanimity.uir import pairwise_uir_matrix, robust_set_uir

# Few distinct scores: ties, equal cases and exact zero UIRs are common.
COARSE = st.sampled_from((0.0, -0.0, 0.25, 0.5, 0.75, 1.0))


@st.composite
def tied_tables(draw):
    """One to eight cases, two to six systems, two metrics."""
    n_cases = draw(st.integers(1, 8))
    n_systems = draw(st.integers(2, 6))
    rows = [
        (f"c{i}", f"s{j}", metric, draw(COARSE))
        for i in range(n_cases)
        for j in range(n_systems)
        for metric in ("p", "r")
    ]
    return ScoreTable.from_rows("t", rows)


@st.composite
def tables_and_thresholds(draw):
    table = draw(tied_tables())
    values = [result.value for result in pairwise_uir_matrix(table).values()]
    candidates = sorted({-1.0, 0.0, 1.0, *values, *(-v for v in values)})
    return table, draw(st.sampled_from(candidates)), draw(st.sampled_from((0.5, 0.0, 1.0, 0.3)))


@settings(max_examples=300, deadline=None)
@given(tables_and_thresholds())
def test_rows_and_sets_equal_the_matrix(case):
    table, threshold, alpha = case
    rows = render_ranking_report(table, alpha, threshold)
    expected = sweep_oracle.render_ranking_report(table, alpha, threshold)
    assert list(map(repr, rows)) == list(map(repr, expected))
    matrix = pairwise_uir_matrix(table)
    assert robust_set_uir(table, threshold) == {p for p, r in matrix.items() if r.value > threshold}
