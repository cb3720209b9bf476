"""Degenerate coordinates as infinite bounds, held to the code they replaced.

A zero-variance coordinate becomes a -inf or +inf bound, a bound past
``_FAR`` counts as infinite, and ``f_measure`` is one cell of ``_mean_f``.
Within ``_FAR`` every value is ``repr``-equal to ``bounds_oracle``; past it,
the value is the exact one for an infinite bound, where the quadrature used
to overflow.  ``parametric_uir`` is the closed form P(dP > 0) + P(dR > 0) - 1:
``repr``-equal to the oracle's, exactly antisymmetric, and within 1e-15 of
the oracle's mirrored-model quadrature.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bounds_oracle as oracle
from conftest import make_table
from unanimity.data import _SCORE_MAX
from unanimity.metrics import f_measure
from unanimity.stats import (
    _FAR,
    BivariateNormalModel,
    _bvn_upper_tail,
    _ndtr,
    fit_bivariate_normal,
    orthant_probability,
    parametric_uir,
)

NAN = math.nan
EYE = ((1.0, 0.0), (0.0, 1.0))

# Every quadrature branch: r = +-0, moderate, high of both signs, and +-1.
CORRELATIONS = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.925, -0.925, 0.3, -0.75)),
    st.floats(-1.0, 1.0),
    st.floats(0.925, 1.0),
    st.floats(-1.0, -0.925),
)
NEAR_BOUNDS = st.one_of(
    st.floats(-_FAR, _FAR),
    st.floats(-40.0, 40.0),
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 38.5, -38.5, 1e10, -1e10, _FAR, -_FAR)),
)
FAR_MAGNITUDES = st.one_of(
    st.floats(_FAR, 1e300, exclude_min=True),
    st.sampled_from((1.3e154, 1e200, 1e300, math.inf)),
)


def outcome(fn, *args):
    """The result's repr, or the error's type and message."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def test_a_nan_mean_is_refused():
    with pytest.raises(ValueError, match="mean"):
        BivariateNormalModel((NAN, 0.1), EYE)
    with pytest.raises(ValueError, match="mean"):
        BivariateNormalModel((0.1, NAN), EYE)
    with pytest.raises(ValueError, match="mean"):
        BivariateNormalModel((0.1, 0.2), EYE)._replace(mean=(NAN, NAN))
    # The covariance is checked first, so a NaN difference keeps its error.
    with pytest.raises(ValueError, match="covariance must be symmetric"):
        fit_bivariate_normal([(NAN, 0.0), (0.1, 0.2), (0.3, 0.1)])


def test_far_bounds_found_wrong_before():
    assert _bvn_upper_tail(-1e53, 0.3, -0.95) == _ndtr(-0.3)
    assert _bvn_upper_tail(-4.5e38, -3.2e39, 0.9999) == 1.0
    model = BivariateNormalModel((1e200, 0.1), ((1.0, 0.95), (0.95, 1.0)))
    assert orthant_probability(model) == _ndtr(0.1)


def test_a_bound_just_past_far_is_exactly_infinite():
    # The quadrature is right here but for the last bit (0.518384320424049).
    h = -0.04609897979418509
    assert _bvn_upper_tail(h, -1.988482613095043e22, -0.9506276952388303) == _ndtr(-h)


@pytest.mark.parametrize("r", [0.0, 0.3, -0.6, 0.925, 0.9999, -0.925, -0.9999, 1.0, -1.0])
@settings(max_examples=150, deadline=None)
@given(
    far=FAR_MAGNITUDES,
    far_sign=st.sampled_from((1.0, -1.0)),
    other=st.one_of(st.floats(-40.0, 40.0), FAR_MAGNITUDES, FAR_MAGNITUDES.map(lambda x: -x)),
    far_first=st.booleans(),
)
def test_a_far_bound_gives_the_infinite_bound_value(r, far, far_sign, other, far_first):
    bound = far_sign * far
    if bound > 0.0 or other > _FAR:
        expected = 0.0
    elif other < -_FAR:
        expected = 1.0
    else:
        expected = _ndtr(-other)
    args = (bound, other) if far_first else (other, bound)
    assert _bvn_upper_tail(*args, r) == expected


@settings(max_examples=3000, deadline=None)
@given(NEAR_BOUNDS, NEAR_BOUNDS, CORRELATIONS)
def test_tail_within_far_equals_the_oracle(dh, dk, r):
    assert repr(_bvn_upper_tail(dh, dk, r)) == repr(oracle.bvn_upper_tail(dh, dk, r))


MEANS = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0)),
    st.floats(-5.0, 5.0),
    st.floats(-1e6, 1e6),
)
VARIANCES = st.one_of(
    st.sampled_from((0.0, 1e-9, 1.0)),
    st.floats(1e-12, 1e4),
)


@st.composite
def models(draw):
    mean = (draw(MEANS), draw(MEANS))
    v0, v1 = draw(VARIANCES), draw(VARIANCES)
    r = draw(CORRELATIONS)
    c01 = r * math.sqrt(v0) * math.sqrt(v1)
    model = BivariateNormalModel(mean, ((v0, c01), (c01, v1)))
    # Only bounds within _FAR keep the old arithmetic.
    for m, v in zip(mean, (v0, v1)):
        assume(v == 0.0 or abs(m / math.sqrt(v)) <= _FAR)
    return model


@settings(max_examples=3000, deadline=None)
@given(models())
def test_orthant_probability_equals_the_oracle(model):
    assert repr(orthant_probability(model)) == repr(oracle.orthant_probability(model))
    mirrored = model.mirrored()
    assert repr(orthant_probability(mirrored)) == repr(oracle.orthant_probability(mirrored))


@st.composite
def pair_tables(draw):
    """Two systems whose recall differences follow their precision ones at a
    drawn slope, so fits reach |r| >= 0.925 as well as r near 0."""
    n = draw(st.integers(3, 25))
    slope = draw(st.sampled_from((1.0, -1.0, 0.5, -2.0, 0.0)))
    noise = draw(st.sampled_from((0.0, 1e-4, 0.05, 0.3)))
    scores = {"a": [], "b": []}
    for _ in range(n):
        p, r = draw(st.floats(0.2, 0.8)), draw(st.floats(0.2, 0.8))
        dp = draw(st.sampled_from((0.0, 0.05, -0.05)) | st.floats(-0.2, 0.2))
        dr = slope * dp + noise * draw(st.floats(-1.0, 1.0))
        scores["a"].append((p, r))
        scores["b"].append((min(1.0, max(0.0, p + dp)), min(1.0, max(0.0, r + dr))))
    return make_table(scores)


@settings(max_examples=600, deadline=None)
@given(pair_tables())
def test_parametric_uir_equals_the_mirrored_model(table):
    for a, b in (("a", "b"), ("b", "a"), ("a", "a")):
        value = parametric_uir(table, a, b)
        assert repr(value) == repr(oracle.parametric_uir_closed_form(table, a, b))
        assert value == -parametric_uir(table, b, a)
        assert abs(value - oracle.parametric_uir(table, a, b)) <= 1e-15


COMPONENTS = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, 5e-324, 0.5, _SCORE_MAX, math.nextafter(_SCORE_MAX, 2.0))),
    st.floats(0.0, 1.0),
    st.floats(-1.0, 2.0),
    st.just(NAN),
)
F_ALPHAS = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, 0.5)),
    st.floats(0.0, 1.0),
    st.floats(-0.5, 1.5),
)


@settings(max_examples=3000, deadline=None)
@given(COMPONENTS, COMPONENTS, F_ALPHAS)
def test_f_measure_equals_the_oracle(precision, recall, alpha):
    expected = outcome(oracle.f_measure, precision, recall, alpha)
    assert outcome(f_measure, precision, recall, alpha) == expected
