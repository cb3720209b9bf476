"""The packed-rank comparison and the one-signed Wilcoxon rule, against the
code they replaced, and the parametric UIR against its oracles.

``kernel_oracle`` keeps the boolean-list and byte-mask UIR counts and the
improvement categories from one signed-rank test per metric.  Every
``UirResult``, category and sweep row must be ``repr``-equal to them.  The
parametric UIR must be ``repr``-equal to ``bounds_oracle``'s closed form and
within 1e-15 of its quadrature, in both of the quadrature's branches.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bounds_oracle
import kernel_oracle as oracle
import sweep_oracle
import unanimity.experiments as experiments
from conftest import make_table, random_table
from unanimity.data import ScoreTable
from unanimity.experiments import predictor_curves, threshold_sweep
from unanimity.stats import (
    EXACT_CUTOFF,
    BivariateNormalModel,
    ImprovementCategory,
    _categories,
    _fit,
    categorize_improvement,
    fit_bivariate_normal,
    parametric_uir,
    wilcoxon_signed_rank,
)
from unanimity.uir import (
    _PackedRanks,
    best_rival,
    pairwise_uir_matrix,
    reference_system,
    unanimous_improvement_ratio,
)

SCORES = st.one_of(st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0)), st.floats(0.0, 1.0))
# Few distinct values: ties, zero differences and one-signed columns.
COARSE = st.sampled_from((0.0, -0.0, 0.25, 0.5, 0.75, 1.0))


@st.composite
def tables(draw, scores=SCORES, max_cases=6, n_metrics=None):
    """One to ``max_cases`` cases, two to five systems, one to three metrics."""
    n_cases = draw(st.integers(1, max_cases))
    n_systems = draw(st.integers(2, 5))
    n_metrics = n_metrics or draw(st.integers(1, 3))
    rows = [
        (f"c{i}", f"s{j}", f"m{k}", draw(scores))
        for i in range(n_cases)
        for j in range(n_systems)
        for k in range(n_metrics)
    ]
    return ScoreTable.from_rows("k", rows)


def columns(table, system):
    return [table.scores_for(system, m) for m in table.metric_names]


def oracle_uir(table, a, b):
    return oracle.uir(columns(table, a), columns(table, b))


class TestPackedRanks:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(tables(), tables(COARSE)))
    def test_every_pair_equals_the_oracle(self, table):
        matrix = pairwise_uir_matrix(table)
        for i, a in enumerate(table.systems):
            for j, b in enumerate(table.systems):
                expected = oracle_uir(table, a, b)
                assert repr(oracle.byte_mask_uir(columns(table, a), columns(table, b))) == repr(expected)
                assert repr(unanimous_improvement_ratio(table, a, b)) == repr(expected)
                if i < j:
                    # The lower triangle is built by reversal, so 0.0 turns -0.0 there.
                    assert repr(matrix[a, b]) == repr(expected)
                    assert repr(matrix[b, a]) == repr(expected.reversed())
            rivals = {o: oracle_uir(table, o, a).value for o in table.systems if o != a}
            assert reference_system(table, a) == best_rival(rivals)

    def test_zeros_of_both_signs_share_a_rank(self):
        table = make_table({"a": [(0.0, -0.0), (1.0, 0.0)], "b": [(-0.0, 0.0), (1.0, -0.0)]})
        assert unanimous_improvement_ratio(table, "a", "b") == (2, 2, 0, 2, 0.0)

    @pytest.mark.parametrize(
        "n_distinct, width",
        [(1, 1), (128, 1), (129, 2), (256, 2), (32768, 2), (32769, 3), (65536, 3)],
    )
    def test_slots_cross_byte_widths(self, n_distinct, width):
        # The distinct scores of metric p are dealt to a and b in a random
        # order, so neighbouring slots hold the smallest and the largest
        # ranks side by side, where a borrow would show.
        rng = np.random.default_rng(n_distinct)
        values = rng.permutation(np.arange(n_distinct) / max(1, n_distinct - 1)).tolist()
        n_cases = (n_distinct + 1) // 2
        deal = (values * 2)[: 2 * n_cases]
        recall = rng.integers(0, 3, size=2 * n_cases) / 2
        table = make_table(
            {
                "a": list(zip(deal[:n_cases], recall[:n_cases])),
                "b": list(zip(deal[n_cases:], recall[n_cases:])),
            }
        )
        ranks = _PackedRanks(table, table.systems)
        assert ranks.top.bit_length() == 8 * width * n_cases
        expected = oracle_uir(table, "a", "b")
        assert repr(pairwise_uir_matrix(table)["a", "b"]) == repr(expected)
        assert repr(pairwise_uir_matrix(table)["b", "a"]) == repr(expected.reversed())

    def test_unknown_system_refused_first(self):
        table = make_table({"a": [(0.1, 0.2)], "b": [(0.3, 0.4)]})
        for call in (
            lambda: reference_system(table, "zz"),
            lambda: unanimous_improvement_ratio(table, "a", "zz"),
            lambda: categorize_improvement(table, "zz", "a", 5.0),
        ):
            with pytest.raises(ValueError, match="unknown system 'zz'"):
                call()


def one_signed_table(n, sign, other):
    """Two systems over n + 2 cases: a beats b by ``sign`` on n of them in
    precision, with tied magnitudes, and ties on the other two; the recall
    differences follow ``other``."""
    rows = {"a": [], "b": []}
    for i in range(n + 2):
        gap = 0.0 if i >= n else 0.02 * (1 + i % 3)
        base = 0.4 + 0.005 * i
        rows["a"].append((base + sign * gap / 2, 0.5))
        rows["b"].append((base - sign * gap / 2, 0.5 - other[i % len(other)]))
    return make_table(rows)


def levels_around(p):
    near = (p, math.nextafter(p, 0.0), math.nextafter(p, 1.0), 0.05, 0.5, 0.999)
    return [level for level in near if 0.0 < level < 1.0]


class TestOneSignedVerdict:
    @pytest.mark.parametrize("n", range(EXACT_CUTOFF + 2))
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("other", [(0.0,), (0.1, -0.05), (0.1,), (-0.1, -0.2)])
    def test_equals_the_signed_rank_test(self, n, sign, other):
        table = one_signed_table(n, sign, other)
        x, y = table.scores_for("a", "precision"), table.scores_for("b", "precision")
        test = wilcoxon_signed_rank(x, y)
        assert test.n_effective == n
        if 0 < n <= EXACT_CUTOFF:
            # The rule's p: a one-signed column's first cumulative count is 1.
            assert test.p_value == 2 / 2**n
        for level in levels_around(2 / 2**n if n else 0.5):
            for a, b in (("a", "b"), ("b", "a")):
                expected = oracle.categorize_improvement(table, a, b, level)
                assert categorize_improvement(table, a, b, level) is expected

    @pytest.mark.parametrize("n", range(2, EXACT_CUTOFF + 1))
    def test_a_p_value_equal_to_the_level_is_not_significant(self, n):
        table = one_signed_table(n, 1, (0.0,))
        level = 2 / 2**n
        assert categorize_improvement(table, "a", "b", level) is ImprovementCategory.NON_SIGNIFICANT
        above = math.nextafter(level, 1.0)
        assert categorize_improvement(table, "a", "b", above) is ImprovementCategory.CONCORDANT_SIGNIFICANT

    @settings(max_examples=300, deadline=None)
    @given(
        tables(COARSE, max_cases=24, n_metrics=2),
        st.sampled_from((0.05, 0.25, 2 / 2**5, 2 / 2**10, 0.5)),
    )
    def test_categories_and_sweep_equal_the_oracle(self, table, level):
        pairs = [(a, b) for a in table.systems for b in table.systems]
        found = dict(zip(pairs, _categories(table, pairs, level)))
        for a, b in pairs:
            assert found[a, b] is oracle.categorize_improvement(table, a, b, level)
        grid = [-1.0, -0.5, 0.0, 0.25, 1.0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sweep_oracle, "categorize_improvement", oracle.categorize_improvement)
            expected = sweep_oracle.threshold_sweep(table, grid, significance_level=level)
        assert repr(threshold_sweep(table, grid, significance_level=level)) == repr(expected)

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.1, math.nan])
    def test_level_refused_on_one_signed_columns_too(self, level):
        table = one_signed_table(5, 1, (0.1,))
        with pytest.raises(ValueError, match="significance level"):
            categorize_improvement(table, "a", "b", level)
        with pytest.raises(ValueError, match="significance level"):
            threshold_sweep(table, [0.0], significance_level=level)


def check_parametric_uir(table, a, b):
    value = parametric_uir(table, a, b)
    assert repr(value) == repr(bounds_oracle.parametric_uir_closed_form(table, a, b))
    assert abs(value - bounds_oracle.parametric_uir(table, a, b)) <= 1e-15


class TestSharedQuadrature:
    @pytest.mark.parametrize(
        "slope, noise, branch",
        [(1.0, 0.001, "high"), (-1.0, 0.001, "high"), (0.5, 0.3, "moderate"), (0.0, 0.3, "moderate")],
    )
    def test_parametric_uir_in_each_branch(self, slope, noise, branch):
        rng = np.random.default_rng(7)
        scores = {"a": [], "b": []}
        for _ in range(15):
            p, r, dp = rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7), rng.uniform(-0.2, 0.2)
            scores["a"].append((p, r))
            scores["b"].append((p + dp, r + slope * dp + noise * rng.uniform(-1, 1)))
        table = make_table(scores)
        delta_p = [x - y for x, y in zip(table.scores_for("a", "precision"), table.scores_for("b", "precision"))]
        delta_r = [x - y for x, y in zip(table.scores_for("a", "recall"), table.scores_for("b", "recall"))]
        _, _, c00, c01, c11 = _fit(delta_p, delta_r)
        rho = min(1.0, max(-1.0, c01 / (math.sqrt(c00) * math.sqrt(c11))))
        assert (abs(rho) < 0.925) == (branch == "moderate")
        for a, b in (("a", "b"), ("b", "a")):
            check_parametric_uir(table, a, b)

    def test_wide_table_pairs_equal_the_oracle(self):
        table = random_table(np.random.default_rng(3), 20, 12)
        for i, a in enumerate(table.systems):
            for b in table.systems[i + 1 :]:
                check_parametric_uir(table, a, b)


INF = math.inf
EYE = ((1.0, 0.0), (0.0, 1.0))


class TestUndefinedModels:
    @pytest.mark.parametrize(
        "mean, covariance, message",
        [
            ((INF, 0.1), ((INF, 0.0), (0.0, 1.0)), "finite"),
            ((INF, 0.1), EYE, "finite"),
            ((0.1, -INF), EYE, "finite"),
            ((0.1, 0.2), ((INF, 0.0), (0.0, 1.0)), "finite"),
            ((0.1, 0.2), ((1.0, 0.0), (0.0, INF)), "finite"),
            ((0.1, 0.2), ((1.0, 5.0), (5.0, 1.0)), "positive semi-definite"),
            ((0.1, 0.2), ((1.0, -1.01), (-1.01, 1.0)), "positive semi-definite"),
            ((0.1, 0.2), ((0.0, 1e-3), (1e-3, 1.0)), "positive semi-definite"),
            ((0.1, 0.2), ((1.0, INF), (INF, 1.0)), "positive semi-definite"),
        ],
    )
    def test_refused(self, mean, covariance, message):
        with pytest.raises(ValueError, match=message):
            BivariateNormalModel(mean, covariance)

    @pytest.mark.parametrize(
        "covariance",
        [
            ((1.0, 1.0), (1.0, 1.0)),
            ((1.0, -1.0), (-1.0, 1.0)),
            ((2.0, 2.0 * (1 + 1e-12)), (2.0 * (1 + 1e-12), 2.0)),
            ((0.0, 0.0), (0.0, 0.0)),
            ((1e-300, 1e-300), (1e-300, 1e-300)),
        ],
    )
    def test_unit_correlations_and_rounding_kept(self, covariance):
        assert BivariateNormalModel((0.1, -0.2), covariance).covariance == covariance

    @settings(max_examples=1000, deadline=None)
    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=60),
        st.sampled_from((1.0, -1.0, 3.0, -0.1, math.pi, 1e-3, 0.0)),
        st.sampled_from((0.0, 1e-17, 1e-9, 0.1)),
        st.sampled_from((1e-100, 1e-8, 1.0, 1e8, 1e100)),
        st.randoms(use_true_random=False),
    )
    def test_every_fit_is_accepted(self, xs, slope, noise, scale, rnd):
        rows = [(x * scale, (slope * x + noise * rnd.uniform(-1, 1)) * scale) for x in xs]
        fit_bivariate_normal(rows)


class TestReferenceMeanOnce:
    def test_one_mean_f_per_collection_and_system(self):
        rng = np.random.default_rng(11)
        tables = [random_table(rng, 8, 6) for _ in range(3)]
        calls = Counter()
        real = experiments.mean_f_measure

        def counting(table, system, alpha=0.5):
            calls[id(table), system] += 1
            return real(table, system, alpha)

        grid = [-1.0, 0.0, 0.5]
        expected = sweep_oracle.predictor_curves(tables[1], tables, grid)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "mean_f_measure", counting)
            found = predictor_curves(tables[1], tables, grid)
        assert found == expected
        assert sum(calls.values()) == 3 * 6
        assert set(calls.values()) == {1}

    def test_errors_keep_their_order(self):
        rng = np.random.default_rng(12)
        a, b = random_table(rng, 6, 4), random_table(rng, 6, 4)
        other = random_table(rng, 6, 3)
        with pytest.raises(ValueError, match="system sets differ"):
            predictor_curves(a, [a, other], [0.0], alpha=2.0)
        with pytest.raises(ValueError, match="alpha 2.0 outside"):
            predictor_curves(a, [a, b], [0.0], alpha=2.0)
        with pytest.raises(ValueError, match="need at least 2 collections"):
            predictor_curves(a, [a], [0.0], alpha=2.0)
