"""The single-count clustering scores, the column-filed score table and the
multi-alpha mean-F kernel against the code they replaced.

``count_oracle`` holds the two-direction purity, the two-count BCubed and
the tuple-keyed table builder.  Every score must be ``==`` to the oracle's,
and every refusal must match it in exception type, message and line.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from unanimity.data import Clustering, ParseError, ScoreTable, parse_score_table
from unanimity.metrics import (
    MetricPair,
    _mean_f,
    bcubed_precision,
    bcubed_recall,
    f_measure,
    inverse_purity,
    purity,
    score_pair,
)
from unanimity.stats import _approx_two_sided_p, _ndtr

import count_oracle as oracle
from test_contingency import bcubed_pairs, clusterings, item_sets, lenient_pairs


def outcome(fn, *args, **kwargs):
    """The result, or the refusal as (type, message, line)."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@st.composite
def awkward_pairs(draw):
    """An overlapping system holding items outside gold, against a gold
    standard holding items the system never clustered."""
    shared = draw(item_sets)
    system = draw(clusterings(shared + ["s_only"], st.just(True)))
    clusters = dict(system.clusters)
    clusters["dup"] = {shared[0]}
    gold = draw(clusterings(shared + ["g_only"]))
    return Clustering(clusters), gold


@settings(max_examples=300, deadline=None)
@given(st.one_of(lenient_pairs(), awkward_pairs()))
def test_overlap_table_matches_two_direction_oracle(pair):
    system, gold = pair
    expected = oracle.purity(system, gold), oracle.inverse_purity(system, gold)
    assert (purity(system, gold), inverse_purity(system, gold)) == expected
    assert score_pair(system, gold).values() == expected


@settings(max_examples=50, deadline=None)
@given(awkward_pairs())
def test_awkward_pairs_have_every_mismatch(pair):
    system, gold = pair
    assert system.overlapping
    assert system.items - gold.items and gold.items - system.items


@settings(max_examples=300, deadline=None)
@given(st.one_of(bcubed_pairs(), lenient_pairs()))
def test_bcubed_matches_two_count_oracle(pair):
    system, gold = pair
    expected = outcome(oracle.bcubed_precision, system, gold)
    assert outcome(bcubed_precision, system, gold) == expected
    assert outcome(bcubed_recall, system, gold) == outcome(oracle.bcubed_recall, system, gold)
    if isinstance(expected, float):
        vector = score_pair(system, gold, MetricPair.BCUBED)
        assert vector.values() == (expected, oracle.bcubed_recall(system, gold))
    else:
        assert outcome(score_pair, system, gold, MetricPair.BCUBED) == expected


NAMES = {"case": ["c0", "c1", "c2"], "system": ["s0", "s1", "s2"], "metric": ["p", "r"]}
VALUES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 0.25, 0.5, 1.0, 5.0, 100.0, -0.5, 1.5, math.nan, math.inf, -math.inf]
    ),
    st.floats(-0.5, 150.0),
)


@st.composite
def score_rows(draw):
    """A dense (case, system, metric) grid, then rows dropped, repeated,
    emptied of a name and shuffled, with in-range and hostile scores."""
    picks = {
        key: draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
        for key, names in NAMES.items()
    }
    rows = [
        [case, system, metric, draw(VALUES)]
        for case in picks["case"]
        for system in picks["system"]
        for metric in picks["metric"]
    ]
    rows = draw(st.permutations(rows))
    if rows and draw(st.booleans()):
        del rows[draw(st.integers(0, len(rows) - 1))]
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    if rows and draw(st.integers(0, 4)) == 0:
        draw(st.sampled_from(rows))[draw(st.integers(0, 2))] = ""
    return [tuple(row) for row in rows]


@settings(max_examples=400, deadline=None)
@given(score_rows())
def test_from_rows_matches_tuple_keyed_builder(rows):
    expected = outcome(oracle.from_rows, "h", rows)
    got = outcome(ScoreTable.from_rows, "h", rows)
    assert got == expected
    if isinstance(expected, ScoreTable):
        assert list(got._columns.items()) == list(expected._columns.items())


@settings(max_examples=400, deadline=None)
@given(
    score_rows(),
    st.booleans(),
    st.sampled_from(["", " "]),
    st.sampled_from(["\n", "\r\n"]),
    st.data(),
)
def test_parser_matches_record_numbered_oracle(rows, percent, pad, end, data):
    """Blank lines, padded fields, CRLF ends, short rows and unreadable
    scores, all on lines of their own; line numbers must agree."""
    lines = ["test_case,system,metric,score"]
    for case, system, metric, value in rows:
        fields = [case, system, metric, repr(value)]
        if data.draw(st.integers(0, 9)) == 0:
            fields = data.draw(st.sampled_from([fields[:3], fields + ["x"], fields[:3] + ["0.x"]]))
        lines.append(",".join(pad + field for field in fields))
        if data.draw(st.integers(0, 9)) == 0:
            lines.append("")
    text = end.join(lines) + data.draw(st.sampled_from(["", end]))
    expected = outcome(oracle.parse_score_table, text, percent)
    got = outcome(parse_score_table, text, percent)
    assert got == expected
    if not isinstance(expected, ScoreTable):
        assert expected[0] is ParseError


ZERO_HEAVY = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))
ALPHAS = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(ZERO_HEAVY, ZERO_HEAVY), min_size=2, max_size=12),
    st.lists(ALPHAS, min_size=1, max_size=6),
)
def test_mean_f_over_alphas_matches_per_alpha_sum(cells, alphas):
    # One case with p = 0 and one with r = 0 in every draw.
    cells[0] = (0.0, cells[0][1])
    cells[-1] = (cells[-1][0], 0.0)
    precision, recall = (tuple(column) for column in zip(*cells))
    expected = []
    for alpha in alphas:
        total = 0.0
        for p, r in cells:
            total += f_measure(p, r, alpha)
        expected.append(total / len(cells))
    assert _mean_f(precision, recall, alphas) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 8), min_size=1, max_size=80), st.floats(0.0, 1.0))
def test_tie_term_summed_once_per_group_size(sizes, share):
    n = sum(sizes)
    w_min = math.floor(share * n * (n + 1) / 4.0)
    tie_term = float(sum(size**3 - size for size in sizes))
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
    z = (w_min - n * (n + 1) / 4.0 + 0.5) / math.sqrt(var)
    assert _approx_two_sided_p(tuple(sizes), w_min, n) == min(1.0, 2.0 * _ndtr(z))
