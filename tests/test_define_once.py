"""Code that now reuses one definition, held to the code it replaced.

``gold_consistent_pairs`` is the intersection of ``robust_set_f`` at
threshold 0, ``threshold_sweep`` takes its grid means and its one-alpha
means from a single ``_mean_f`` pass per system, and ``baseline_combined``
merges the two trivial baselines.  Each is compared by ``==`` (and by
``repr`` where 0.0 and -0.0 could differ) with ``define_once_oracle``,
errors included.  The bivariate normal tail at r = 0, which the quadrature
now computes, is held to ``stats_oracle``'s independent product by ``repr``.
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import define_once_oracle as oracle
import stats_oracle
from unanimity import experiments
from unanimity.data import ScoreTable
from unanimity.experiments import alpha_grid, gold_consistent_pairs, threshold_sweep
from unanimity.metrics import baseline_combined
from unanimity.stats import BivariateNormalModel, _bvn_upper_tail, orthant_probability

SCORES = st.one_of(
    st.sampled_from((0.0, 0.25, 0.5, 1.0)),
    st.floats(0.0, 1.0),
    st.floats(5e-324, 1e-300),
)
ALPHAS = st.one_of(
    st.sampled_from(alpha_grid()),
    st.sampled_from((0.0, 1.0, 0.3, 0.07)),
    st.floats(0.0, 1.0),
)


def outcome(fn, *args):
    """The result, or the error's type and message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def tables(draw, systems, n_metrics=2, collection_id="t"):
    """A random table in which a system may copy an earlier one's scores,
    so that mean F ties between systems."""
    n_cases = draw(st.integers(1, 6))
    scores = {}
    for system in systems:
        if scores and draw(st.booleans()):
            scores[system] = scores[draw(st.sampled_from(sorted(scores)))]
        else:
            scores[system] = [[draw(SCORES) for _ in range(n_metrics)] for _ in range(n_cases)]
    rows = [
        (f"c{i}", system, f"m{j}", value)
        for i in range(n_cases)
        for system in systems
        for j, value in enumerate(scores[system][i])
    ]
    return ScoreTable.from_rows(collection_id, rows)


@st.composite
def collections(draw):
    """Two to four tables over one system set, now and then a table with a
    third metric or a missing system, so the errors are compared too."""
    systems = [f"s{j}" for j in range(draw(st.integers(1, 5)))]
    out = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("plain",) * 6 + ("wide", "fewer")))
        if kind == "wide":
            out.append(draw(tables(systems, n_metrics=3, collection_id=f"col{i}")))
        elif kind == "fewer" and len(systems) > 1:
            out.append(draw(tables(systems[:-1], collection_id=f"col{i}")))
        else:
            out.append(draw(tables(systems, collection_id=f"col{i}")))
    return out


@settings(max_examples=300, deadline=None)
@given(collections(), st.one_of(ALPHAS, st.sampled_from((-0.5, 1.5, math.nan))))
def test_gold_pairs_equal_the_mean_loop(tables, alpha):
    assert outcome(gold_consistent_pairs, tables, alpha) == outcome(
        oracle.gold_consistent_pairs, tables, alpha
    )


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(2, 5), ALPHAS)
def test_threshold_means_equal_the_two_passes(data, n_systems, alpha):
    table = data.draw(tables([f"s{j}" for j in range(n_systems)]))
    passes = []
    mean_f = experiments._mean_f

    def recorded(precision, recall, alphas):
        passes.append(mean_f(precision, recall, alphas))
        return passes[-1]

    with mock.patch.object(experiments, "_mean_f", recorded):
        rows = threshold_sweep(table, [-1.0, 0.0, 0.5], alpha)
    curves, means = oracle.threshold_means(table, alpha)
    assert len(passes) == len(table.systems)
    for system, values in zip(table.systems, passes):
        assert list(map(repr, values)) == list(map(repr, (*curves[system], means[system])))
    assert len(rows) == 3


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.text("abc", min_size=1, max_size=3),
            st.sampled_from(("", "a b", "x\ty")),
        ),
        max_size=6,
    )
)
def test_baseline_combined_equals_the_old_build(items):
    got = outcome(baseline_combined, iter(items))
    expected = outcome(oracle.baseline_combined, iter(items))
    assert got == expected
    if not isinstance(got, tuple):
        assert list(got.clusters) == list(expected.clusters)


BOUNDS = st.one_of(
    st.floats(allow_nan=False),
    st.floats(-40.0, 40.0),
    st.sampled_from((0.0, -0.0, 5e-324, -1e-300, 38.5, -38.5, 1e200, -1e200)),
)


@settings(max_examples=500, deadline=None)
@given(BOUNDS, BOUNDS, st.sampled_from((0.0, -0.0)))
def test_uncorrelated_tail_equals_the_oracle(dh, dk, r):
    assert repr(_bvn_upper_tail(dh, dk, r)) == repr(stats_oracle.bvn_upper_tail(dh, dk, r))


@pytest.mark.parametrize("r", [0.0, -0.0])
def test_uncorrelated_tail_past_the_float_range(r):
    # h * k overflows here: the Genz quadrature would meet 0 * inf, so these
    # bounds, past stats._FAR, count as infinite.
    assert _bvn_upper_tail(-1e200, -1e200, r) == 1.0
    assert _bvn_upper_tail(1e200, -1e200, r) == 0.0
    model = BivariateNormalModel((1e200, 1e200), ((1.0, r), (r, 1.0)))
    assert orthant_probability(model) == 1.0
