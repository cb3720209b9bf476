"""Signed-rank test, improvement categories, and the quadrant estimate."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import ndtr, roots_legendre
from scipy.stats import rankdata

import bounds_oracle
import stats_oracle as oracle
from unanimity.stats import (
    EXACT_CUTOFF,
    _GAUSS_LEGENDRE,
    _approx_two_sided_p,
    _bvn_upper_tail,
    _exact_two_sided_p,
    _ndtr,
    _rank_sums,
    BivariateNormalModel,
    ImprovementCategory,
    categorize_improvement,
    fit_bivariate_normal,
    orthant_probability,
    parametric_uir,
    wilcoxon_signed_rank,
)

from conftest import make_table, random_table


def oracle_wilcoxon_p(x, y):
    """Literal enumeration of all sign assignments; None when no nonzero diffs."""
    d = np.asarray(x, float) - np.asarray(y, float)
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return None
    ranks = rankdata(np.abs(d))
    total = ranks.sum()
    w_plus = ranks[d > 0].sum()
    observed_min = min(w_plus, total - w_plus)
    count = 0
    for signs in itertools.product((1.0, -1.0), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s > 0)
        if min(w, total - w) <= observed_min:
            count += 1
    return count / (2 ** n)


class TestScipyReplacements:
    """The stdlib/numpy stand-ins for scipy agree with scipy itself."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-25, 25), min_size=1, max_size=60))
    def test_average_ranks_equal_rankdata(self, ks):
        # The average ranks that _rank_sums' tie groups imply, mapped back
        # onto the non-zero differences, are rankdata's to the bit.
        d = np.asarray(ks) / 5.0
        sizes, w_plus2 = _rank_sums(d, np.zeros_like(d))
        nonzero = d[d != 0.0]
        magnitudes = sorted(set(np.abs(nonzero).tolist()))
        assert len(sizes) == len(magnitudes)
        rank_of = {}
        start = 0
        for value, size in zip(magnitudes, sizes):
            rank_of[value] = (2 * start + size + 1) / 2
            start += size
        ranks = np.array([rank_of[v] for v in np.abs(nonzero).tolist()], dtype=float)
        expected = rankdata(np.abs(nonzero))
        assert ranks.tobytes() == expected.tobytes()
        assert w_plus2 == 2 * expected[nonzero > 0].sum()

    @settings(max_examples=500, deadline=None)
    @given(st.floats(-12.0, 12.0))
    def test_ndtr_central(self, x):
        assert math.isclose(_ndtr(x), ndtr(x), rel_tol=1e-14, abs_tol=0.0)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(-37.0, 9.0))
    def test_ndtr_lower_tail(self, x):
        assert math.isclose(_ndtr(x), ndtr(x), rel_tol=1e-13, abs_tol=0.0)

    def test_ndtr_anchors(self):
        assert _ndtr(0.0) == 0.5
        assert _ndtr(-math.inf) == 0.0
        assert _ndtr(math.inf) == 1.0

    def test_legendre_rule_matches_scipy(self):
        x, w = _GAUSS_LEGENDRE
        x_ref, w_ref = roots_legendre(20)
        assert np.max(np.abs(np.asarray(x) - x_ref)) <= 2e-15
        assert np.max(np.abs(np.asarray(w) - w_ref)) <= 2e-15
        # Every caller shares the table, so it must be immutable.
        assert isinstance(x, tuple) and isinstance(w, tuple)


coarse_or_uniform = st.one_of(
    st.integers(0, 4).map(lambda k: k / 4),
    st.floats(0.0, 1.0),
)


@st.composite
def paired_samples(draw):
    # Up to twice the exact-mode cutoff, so both p-value paths run; the
    # coarse grid makes ties and zero differences common.
    n = draw(st.integers(1, 2 * EXACT_CUTOFF))
    x = draw(st.lists(coarse_or_uniform, min_size=n, max_size=n))
    y = draw(st.lists(coarse_or_uniform, min_size=n, max_size=n))
    return x, y


class TestNumpyOracle:
    """The plain-Python statistics against the numpy implementations in
    ``stats_oracle``: Wilcoxon equal, parametric UIR within 1e-15."""

    @settings(max_examples=500, deadline=None)
    @given(paired_samples())
    def test_wilcoxon_equals_oracle(self, pair):
        x, y = pair
        got = wilcoxon_signed_rank(x, y)
        expected = oracle.wilcoxon_signed_rank(x, y)
        assert (got.w_plus, got.w_minus) == (expected.w_plus, expected.w_minus)
        assert got.n_effective == expected.n_effective
        assert got.p_value == expected.p_value
        assert got.significant == expected.significant

    def test_wilcoxon_paths_both_covered(self):
        rng = np.random.default_rng(45)
        for n in (EXACT_CUTOFF, EXACT_CUTOFF + 1):
            x = rng.integers(0, 5, size=n) / 4 + 1.0
            y = rng.integers(0, 5, size=n) / 4
            assert wilcoxon_signed_rank(x, y) == oracle.wilcoxon_signed_rank(x, y)

    def test_infinite_difference_ranks_largest_as_oracle(self):
        inf = float("inf")
        for x, y in [([0.3, inf, 0.1], [0.0] * 3), ([0.3, -inf, 0.1, 0.2], [0.0] * 4)]:
            assert wilcoxon_signed_rank(x, y) == oracle.wilcoxon_signed_rank(x, y)

    @pytest.mark.parametrize(
        "x, y",
        [
            ([0.3, float("nan"), 0.1], [0.0, 0.0, 0.0]),
            ([0.3, 0.2, 0.1], [0.0, float("nan"), 0.0]),
            ([float("inf"), 0.2], [float("inf"), 0.0]),
        ],
    )
    def test_nan_difference_refused(self, x, y):
        # Sorting NaN among the magnitudes would rank the others wrongly.
        with pytest.raises(ValueError, match="must not be NaN"):
            wilcoxon_signed_rank(x, y)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 5), min_size=1, max_size=EXACT_CUTOFF).filter(
            lambda sizes: sum(sizes) <= EXACT_CUTOFF
        )
    )
    def test_exact_tail_equals_oracle_at_every_bound(self, sizes):
        # Every attainable and unattainable bound of one tie pattern.
        sizes = tuple(sizes)
        ranks = []
        start = 0
        for size in sizes:
            ranks += [(2 * start + size + 1) / 2] * size
            start += size
        n = len(ranks)
        for w2 in range(n * (n + 1) // 2 + 1):
            expected = oracle.exact_two_sided_p(np.asarray(ranks), w2 / 2)
            assert _exact_two_sided_p(sizes, w2) == expected

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
            min_size=3,
            max_size=25,
        )
    )
    def test_parametric_within_1e_15(self, deltas):
        model = fit_bivariate_normal(deltas)
        mean, cov = oracle.fit_bivariate_normal(deltas)
        assert np.max(np.abs(np.asarray(model.mean) - mean)) <= 1e-15
        assert np.max(np.abs(np.asarray(model.covariance) - cov)) <= 1e-15
        value = orthant_probability(model) - orthant_probability(model.mirrored())
        assert abs(value - oracle.parametric_uir_of_deltas(deltas)) <= 1e-15

    def test_node_tables_equal_leggauss(self):
        x, w = np.polynomial.legendre.leggauss(20)
        assert _GAUSS_LEGENDRE == (tuple(x.tolist()), tuple(w.tolist()))


class TestWilcoxon:
    def test_all_positive_n5(self):
        res = wilcoxon_signed_rank([0.1, 0.2, 0.3, 0.4, 0.5], [0.05, 0.1, 0.2, 0.3, 0.4])
        assert res.w_statistic == 0.0
        assert (res.w_plus, res.w_minus) == (15.0, 0.0)
        assert res.n_effective == 5
        assert res.p_value == 2 / 32
        assert not res.significant

    def test_a_sample_of_non_numbers_refused(self):
        with pytest.raises(ValueError) as info:
            wilcoxon_signed_rank([None], [1.0])
        assert str(info.value) == "paired samples must be equal-length 1-d sequences"

    def test_all_one_sided_n6_significant(self):
        x = [1, 2, 3, 4, 5, 6]
        y = [v + 0.1 for v in x]
        res = wilcoxon_signed_rank(x, y)
        assert res.p_value == 2 / 64
        assert res.significant

    def test_zeros_dropped(self):
        res = wilcoxon_signed_rank([0.5, 0.5, 0.7], [0.5, 0.5, 0.6])
        assert res.n_effective == 1
        assert res.p_value == 1.0

    def test_all_zero_diffs(self):
        res = wilcoxon_signed_rank([0.5, 0.6], [0.5, 0.6])
        assert res.n_effective == 0
        assert res.p_value == 1.0
        assert not res.significant

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 15))
            x = rng.integers(0, 6, size=n) / 5
            y = rng.integers(0, 6, size=n) / 5
            a = wilcoxon_signed_rank(x, y)
            b = wilcoxon_signed_rank(y, x)
            assert a.p_value == b.p_value
            assert a.w_statistic == b.w_statistic
            assert (a.w_plus, a.w_minus) == (b.w_minus, b.w_plus)
            assert a.w_statistic == min(a.w_plus, a.w_minus)

    def test_oracle_bit_for_bit(self):
        rng = np.random.default_rng(32)
        checked = 0
        while checked < 300:
            n = int(rng.integers(2, 11))
            # Coarse grid forces plenty of ties and zeros.
            x = rng.integers(0, 5, size=n) / 4
            y = rng.integers(0, 5, size=n) / 4
            expected = oracle_wilcoxon_p(x, y)
            if expected is None:
                continue
            got = wilcoxon_signed_rank(x, y)
            assert got.p_value == expected
            checked += 1

    def test_p_in_unit_interval_large_n(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(21, 60))
            x = rng.uniform(size=n)
            y = rng.uniform(size=n)
            res = wilcoxon_signed_rank(x, y)
            assert 0.0 <= res.p_value <= 1.0

    def test_normal_approx_close_to_exact_at_cutoff(self):
        # At n = 20 the exact mode runs; nudging the same data through the
        # approximation path must land nearby (sanity on the approximation).
        rng = np.random.default_rng(34)
        for _ in range(50):
            x = rng.uniform(size=20)
            y = rng.uniform(size=20)
            exact = wilcoxon_signed_rank(x, y).p_value
            sizes, w_plus2 = _rank_sums(x, y)
            n = sum(sizes)
            w_min = min(w_plus2, n * (n + 1) - w_plus2) / 2
            approx = _approx_two_sided_p(sizes, w_min, n)
            assert abs(exact - approx) < 0.02

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0, 2.0], [1.0])

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank([1.0], [0.5], significance_level=0.0)


class TestCategorize:
    def make(self, a_scores, b_scores):
        return make_table({"a": a_scores, "b": b_scores})

    def test_concordant_both_improve(self):
        a = [(0.5 + 0.02 * i, 0.6 + 0.02 * i) for i in range(8)]
        b = [(0.4 + 0.02 * i, 0.5 + 0.02 * i) for i in range(8)]
        assert (
            categorize_improvement(self.make(a, b), "a", "b")
            is ImprovementCategory.CONCORDANT_SIGNIFICANT
        )

    def test_concordant_one_significant_one_flat(self):
        a = [(0.5 + 0.02 * i, 0.6) for i in range(8)]
        b = [(0.4 + 0.02 * i, 0.6) for i in range(8)]
        assert (
            categorize_improvement(self.make(a, b), "a", "b")
            is ImprovementCategory.CONCORDANT_SIGNIFICANT
        )

    def test_opposite_trade_off(self):
        a = [(0.7, 0.3 + 0.01 * i) for i in range(8)]
        b = [(0.5, 0.5 + 0.01 * i) for i in range(8)]
        assert (
            categorize_improvement(self.make(a, b), "a", "b")
            is ImprovementCategory.OPPOSITE_SIGNIFICANT
        )

    def test_non_significant_noise(self):
        rng = np.random.default_rng(35)
        a = [(0.5 + v, 0.5 - v) for v in rng.uniform(-0.01, 0.01, 6)]
        b = [(0.5 - v, 0.5 + v) for v in rng.uniform(-0.01, 0.01, 6)]
        assert (
            categorize_improvement(self.make(list(a), list(b)), "a", "b")
            is ImprovementCategory.NON_SIGNIFICANT
        )

    def test_symmetric_in_pair(self):
        rng = np.random.default_rng(36)
        for _ in range(50):
            table = random_table(rng, n_cases=10, n_systems=2, grid=10)
            a, b = table.systems
            assert categorize_improvement(table, a, b) is categorize_improvement(
                table, b, a
            )

    def test_needs_two_metrics(self):
        table = random_table(np.random.default_rng(37), 4, 2, n_metrics=3)
        with pytest.raises(ValueError, match="table has 3 metrics; narrow it to one metric pair first"):
            categorize_improvement(table, *table.systems)


class TestFit:
    def test_mean_and_unbiased_covariance(self):
        deltas = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
        model = fit_bivariate_normal(deltas)
        np.testing.assert_allclose(model.mean, [0.0, 0.0])
        np.testing.assert_allclose(model.covariance, np.diag([2 / 3, 2 / 3]))

    def test_constant_samples_regularized(self):
        model = fit_bivariate_normal([(0.3, 0.2)] * 5)
        np.testing.assert_allclose(model.mean, [0.3, 0.2])
        np.testing.assert_allclose(model.covariance, np.diag([1e-9, 1e-9]))

    def test_well_spread_samples_not_regularized(self):
        rng = np.random.default_rng(38)
        samples = rng.normal(size=(50, 2)) * 0.2
        model = fit_bivariate_normal(samples)
        np.testing.assert_allclose(
            model.covariance, np.cov(samples, rowvar=False, ddof=1), atol=1e-12
        )

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="insufficient"):
            fit_bivariate_normal([(0.1, 0.2), (0.3, 0.4)])

    def test_a_non_iterable_is_too_few_samples(self):
        with pytest.raises(ValueError) as info:
            fit_bivariate_normal(5)
        assert str(info.value) == "insufficient samples for parametric UIR (need >= 3 pairs)"

    def test_constructor_does_not_regularize(self):
        # Degenerate models may be built directly; only fitting regularizes.
        model = BivariateNormalModel(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert model.covariance[0][1] == 1.0

    @pytest.mark.parametrize(
        "mean, cov, message",
        [
            (np.zeros(3), np.eye(2), "2-dimensional"),
            (np.zeros(2), np.eye(3), "2-dimensional"),
            (np.zeros((2, 2)), np.eye(2), "2-dimensional"),
            (1.0, np.eye(2), "2-dimensional"),
            ([0.0, 0.0], [[1.0, 0.1], [0.0, 1.0]], "symmetric"),
            ([0.0, 0.0], [[math.nan, 0.0], [0.0, 1.0]], "symmetric"),
            ([0.0, 0.0], [[-1.0, 0.0], [0.0, 1.0]], "negative variance"),
        ],
    )
    def test_constructor_rejects(self, mean, cov, message):
        with pytest.raises(ValueError, match=message):
            BivariateNormalModel(mean, cov)

    def test_constructor_stores_tuples_of_floats(self):
        model = BivariateNormalModel(np.array([1, 2]), [[1, 0], [1e-16, 1]])
        assert model.mean == (1.0, 2.0)
        assert model.covariance == ((1.0, 0.0), (1e-16, 1.0))
        values = (*model.mean, *model.covariance[0], *model.covariance[1])
        assert all(type(v) is float for v in values)


def mc_orthant(model, n_samples, rng, chunk=2_000_000):
    """Monte-Carlo estimate of P(X >= 0, Y >= 0) under the model."""
    chol = np.linalg.cholesky(model.covariance)
    hits = 0
    left = n_samples
    while left > 0:
        m = min(chunk, left)
        z = rng.standard_normal((m, 2)) @ chol.T + model.mean
        hits += int(np.count_nonzero((z[:, 0] >= 0.0) & (z[:, 1] >= 0.0)))
        left -= m
    return hits / n_samples


def random_model(rng):
    mean = rng.uniform(-0.4, 0.4, size=2)
    s1, s2 = rng.uniform(0.1, 0.6, size=2)
    rho = float(rng.uniform(-0.95, 0.95))
    cov = np.array(
        [[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]]
    )
    return BivariateNormalModel(mean, cov)


class TestOrthant:
    def test_independence_anchor(self):
        model = BivariateNormalModel(np.zeros(2), np.eye(2))
        assert orthant_probability(model) == pytest.approx(0.25, abs=1e-12)

    def test_perfect_correlation_anchor(self):
        model = BivariateNormalModel(np.zeros(2), np.ones((2, 2)))
        assert orthant_probability(model) == pytest.approx(0.5, abs=1e-12)

    def test_perfect_anticorrelation(self):
        model = BivariateNormalModel(
            np.zeros(2), np.array([[1.0, -1.0], [-1.0, 1.0]])
        )
        assert orthant_probability(model) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_zero_mean(self):
        # P(X>=0, Y>=0) = 1/4 + asin(rho) / (2 pi) for standardized zero mean.
        for rho in (-0.99, -0.6, -0.2, 0.1, 0.45, 0.8, 0.93, 0.999):
            model = BivariateNormalModel(
                np.zeros(2), np.array([[1.0, rho], [rho, 1.0]])
            )
            expected = 0.25 + math.asin(rho) / (2 * math.pi)
            assert orthant_probability(model) == pytest.approx(expected, abs=1e-12)

    def test_quadrants_sum_to_one(self):
        rng = np.random.default_rng(39)
        for _ in range(50):
            model = random_model(rng)
            mu, cov = model.mean, model.covariance
            flip = np.array([[1.0, -1.0], [-1.0, 1.0]])
            quadrants = [
                orthant_probability(BivariateNormalModel(mu * s, cov * f))
                for s, f in (
                    (np.array([1.0, 1.0]), np.ones((2, 2))),
                    (np.array([-1.0, 1.0]), flip),
                    (np.array([1.0, -1.0]), flip),
                    (np.array([-1.0, -1.0]), np.ones((2, 2))),
                )
            ]
            # Quadrant boundaries have zero mass, so the four closed
            # quadrants partition the plane.
            assert sum(quadrants) == pytest.approx(1.0, abs=1e-10)

    def test_monte_carlo_small(self):
        # The acceptance suite runs the full 1e7-sample version; this is a
        # faster guard for everyday runs.
        rng = np.random.default_rng(40)
        for _ in range(10):
            model = random_model(rng)
            estimate = mc_orthant(model, 1_000_000, rng)
            assert orthant_probability(model) == pytest.approx(estimate, abs=2e-3)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("magnitude", [0.1, 0.5, 0.8, 0.93, 0.99, 0.9999])
    def test_tail_equals_an_independent_integral(self, magnitude, sign):
        # P(X > h, Y > k) is the integral over x > h of phi(x) times
        # P(Y > k | X = x) = Phi((r x - k) / sqrt(1 - r^2)): scipy's adaptive
        # quadrature of it shares no code with the package.  The grid takes
        # both branches, |r| < 0.925 and above.
        r = sign * magnitude
        s = math.sqrt((1.0 - r) * (1.0 + r))
        for h, k in itertools.product((-2.5, -0.7, 0.0, 0.4, 1.9), (-1.3, 0.0, 0.6, 2.2)):
            def density(x):
                return math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi) * ndtr((r * x - k) / s)

            with warnings.catch_warnings():
                warnings.simplefilter("error", IntegrationWarning)
                expected, _ = quad(density, h, math.inf, epsabs=1e-15, epsrel=1e-13)
            assert abs(_bvn_upper_tail(h, k, r) - expected) <= 1e-13, (h, k)

    def test_degenerate_axes(self):
        model = BivariateNormalModel(np.array([0.2, -0.1]), np.diag([0.0, 0.04]))
        assert orthant_probability(model) == pytest.approx(
            float(1.0 - 0.6914624612740131), abs=1e-9
        )  # Phi(-0.5)
        model2 = BivariateNormalModel(np.array([-0.2, 0.1]), np.diag([0.0, 0.04]))
        assert orthant_probability(model2) == 0.0


class TestParametricUir:
    def test_exact_antisymmetry(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            table = random_table(rng, n_cases=int(rng.integers(3, 12)), n_systems=2)
            a, b = table.systems
            assert parametric_uir(table, a, b) == -parametric_uir(table, b, a)

    def test_bounded(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            table = random_table(rng, n_cases=6, n_systems=2)
            value = parametric_uir(table, *table.systems)
            assert -1.0 <= value <= 1.0

    def test_matches_quadrant_difference(self):
        rng = np.random.default_rng(43)
        table = random_table(rng, n_cases=8, n_systems=2)
        a, b = table.systems
        deltas = []
        for case in table.cases:
            va, vb = table.cell(case, a), table.cell(case, b)
            deltas.append(
                (va["m0"] - vb["m0"], va["m1"] - vb["m1"])
            )
        model = fit_bivariate_normal(deltas)
        value = parametric_uir(table, a, b)
        assert value == bounds_oracle.quadrant_difference(model)
        quadrature = orthant_probability(model) - orthant_probability(model.mirrored())
        assert abs(value - quadrature) <= 1e-15

    def test_needs_three_cases(self):
        table = random_table(np.random.default_rng(44), n_cases=2, n_systems=2)
        with pytest.raises(ValueError, match="insufficient"):
            parametric_uir(table, *table.systems)

    @settings(max_examples=400, deadline=None)
    @given(st.data(), st.booleans())
    def test_quadrant_difference_identity(self, data, collinear):
        # P(both > 0) - P(both < 0) = P(X > 0) + P(Y > 0) - 1 for any
        # correlation, since P(both < 0) = 1 - P(X > 0) - P(Y > 0)
        # + P(both > 0).  Evenly spread differences on a line, give or take
        # 1e-4, reach the |r| >= 0.925 quadrature branch; free ones mostly
        # the moderate branch.
        n = data.draw(st.integers(3, 10), label="n")
        unit = st.floats(0.25, 0.75)
        if collinear:
            offset = data.draw(st.floats(-0.2, 0.0), label="offset")
            step = data.draw(st.floats(0.005, 0.02), label="step")
            slope = data.draw(st.floats(0.5, 1.0), label="slope") * data.draw(
                st.sampled_from((-1.0, 1.0)), label="sign"
            )
            d_p = [offset + step * i for i in range(n)]
            d_r = [slope * d + data.draw(st.floats(-1e-4, 1e-4)) for d in d_p]
        else:
            d_p = data.draw(st.lists(st.floats(-0.25, 0.25), min_size=n, max_size=n))
            d_r = data.draw(st.lists(st.floats(-0.25, 0.25), min_size=n, max_size=n))
        b = [(data.draw(unit), data.draw(unit)) for _ in range(n)]
        a = [(bp + dp, br + dr) for (bp, br), dp, dr in zip(b, d_p, d_r)]
        table = make_table({"a": a, "b": b})
        model = fit_bivariate_normal([(x[0] - y[0], x[1] - y[1]) for x, y in zip(a, b)])
        (mu_p, mu_r), ((v_p, c), (_, v_r)) = model
        s_p, s_r = math.sqrt(v_p), math.sqrt(v_r)
        if collinear:
            assert abs(c / (s_p * s_r)) >= 0.925
        expected = _ndtr(mu_p / s_p) + _ndtr(mu_r / s_r) - 1.0
        assert abs(parametric_uir(table, "a", "b") - expected) <= 1e-15

    def test_strong_dominance_near_one(self):
        a = [(0.9 + 0.01 * i, 0.8 + 0.01 * i) for i in range(5)]
        b = [(0.1 + 0.01 * i, 0.2 + 0.01 * i) for i in range(5)]
        table = make_table({"a": a, "b": b})
        assert parametric_uir(table, "a", "b") > 0.999
