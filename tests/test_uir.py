"""Unanimous comparison semantics and UIR algebra."""

import math

import numpy as np
import pytest

from unanimity.data import MetricVector, ScoreTable
from unanimity.uir import (
    RelationOutcome,
    UirResult,
    best_rival,
    pairwise_uir_matrix,
    reference_system,
    robust_set_f,
    robust_set_uir,
    unanimous_compare,
    unanimous_improvement_ratio,
)
from unanimity.metrics import f_measure, mean_f_measure

from conftest import make_table, random_table, two_system_table


def oracle_uir_counts(table, sys_a, sys_b):
    """Count relations with raw per-metric loops, no shared comparison code."""
    n_a = n_b = n_inc = 0
    for case in table.cases:
        va = table.cell(case, sys_a)
        vb = table.cell(case, sys_b)
        a_wins_somewhere = False
        b_wins_somewhere = False
        for name in va.names:
            if va[name] > vb[name]:
                a_wins_somewhere = True
            if vb[name] > va[name]:
                b_wins_somewhere = True
        if a_wins_somewhere and b_wins_somewhere:
            n_inc += 1
        else:
            if not b_wins_somewhere:
                n_a += 1
            if not a_wins_somewhere:
                n_b += 1
    return n_a, n_b, n_inc


class TestUnanimousCompare:
    def v(self, *values):
        return MetricVector({f"m{i}": x for i, x in enumerate(values)})

    def test_four_outcomes(self):
        assert unanimous_compare(self.v(0.5, 0.5), self.v(0.5, 0.5)) is RelationOutcome.EQUAL
        assert unanimous_compare(self.v(0.6, 0.5), self.v(0.5, 0.5)) is RelationOutcome.A_OVER_B
        assert unanimous_compare(self.v(0.4, 0.5), self.v(0.5, 0.5)) is RelationOutcome.B_OVER_A
        assert (
            unanimous_compare(self.v(0.6, 0.4), self.v(0.5, 0.5))
            is RelationOutcome.INCOMPARABLE
        )

    def test_weak_dominance_with_one_tie(self):
        assert unanimous_compare(self.v(0.6, 0.5), self.v(0.6, 0.4)) is RelationOutcome.A_OVER_B

    def test_exact_no_epsilon(self):
        eps = 1e-15
        assert (
            unanimous_compare(self.v(0.5 + eps, 0.5), self.v(0.5, 0.5 + eps))
            is RelationOutcome.INCOMPARABLE
        )

    def test_metric_set_mismatch_rejected(self):
        with pytest.raises(ValueError, match="metric sets differ"):
            unanimous_compare(self.v(0.5), MetricVector({"other": 0.5}))

    def test_symmetry_of_outcomes(self):
        rng = np.random.default_rng(21)
        swap = {
            RelationOutcome.A_OVER_B: RelationOutcome.B_OVER_A,
            RelationOutcome.B_OVER_A: RelationOutcome.A_OVER_B,
            RelationOutcome.EQUAL: RelationOutcome.EQUAL,
            RelationOutcome.INCOMPARABLE: RelationOutcome.INCOMPARABLE,
        }
        for _ in range(500):
            a = self.v(*(rng.integers(0, 5, size=3) / 4))
            b = self.v(*(rng.integers(0, 5, size=3) / 4))
            assert unanimous_compare(b, a) is swap[unanimous_compare(a, b)]


class TestUirKnownTable:
    def test_counts_and_value(self, table_ab):
        result = unanimous_improvement_ratio(table_ab, "A", "B")
        assert (result.n_a_geq, result.n_b_geq) == (6, 4)
        assert result.n_incomparable == 2
        assert result.n_equal == 2
        assert result.n_total == 10
        assert result.value == 0.2

    def test_reversed_pair(self, table_ab):
        assert unanimous_improvement_ratio(table_ab, "B", "A").value == -0.2

    def test_self_comparison_is_zero(self, table_ab):
        result = unanimous_improvement_ratio(table_ab, "A", "A")
        assert result.value == 0.0
        assert result.n_equal == result.n_total

    def test_unknown_system_rejected(self, table_ab):
        with pytest.raises(ValueError, match="unknown system"):
            unanimous_improvement_ratio(table_ab, "A", "nope")


class TestNonTransitivity:
    def test_three_system_witness(self):
        # One case; B trades metrics against A, C trades against B, yet C
        # is unanimously at or below A.
        table = make_table(
            {
                "A": [(0.6, 0.5)],
                "B": [(0.7, 0.3)],
                "C": [(0.5, 0.4)],
            }
        )
        va = table.cell("case00", "A")
        vb = table.cell("case00", "B")
        vc = table.cell("case00", "C")
        assert unanimous_compare(vb, va) is RelationOutcome.INCOMPARABLE
        assert unanimous_compare(vc, vb) is RelationOutcome.INCOMPARABLE
        assert unanimous_compare(va, vc) is RelationOutcome.A_OVER_B


class TestUirAlgebra:
    def test_oracle_counts_and_antisymmetry_fuzz(self):
        rng = np.random.default_rng(22)
        for _ in range(500):
            table = random_table(
                rng,
                n_cases=int(rng.integers(1, 8)),
                n_systems=2,
                n_metrics=int(rng.integers(1, 4)),
                grid=4,
            )
            a, b = table.systems
            result = unanimous_improvement_ratio(table, a, b)
            n_a, n_b, n_inc = oracle_uir_counts(table, a, b)
            assert (result.n_a_geq, result.n_b_geq, result.n_incomparable) == (
                n_a,
                n_b,
                n_inc,
            )
            assert -1.0 <= result.value <= 1.0
            back = unanimous_improvement_ratio(table, b, a)
            assert back.value == -result.value
            assert (back.n_a_geq, back.n_b_geq) == (result.n_b_geq, result.n_a_geq)

    def test_matrix_mirrors_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            table = random_table(rng, n_cases=5, n_systems=4, grid=8)
            matrix = pairwise_uir_matrix(table)
            assert len(matrix) == 4 * 3
            for (a, b), result in matrix.items():
                mirror = matrix[(b, a)]
                assert mirror.value == -result.value
                assert mirror.n_a_geq == result.n_b_geq
                assert result.n_total == len(table.cases)

    def test_extremes(self):
        up = make_table({"A": [(0.9, 0.9), (0.8, 0.8)], "B": [(0.1, 0.1), (0.2, 0.2)]})
        assert unanimous_improvement_ratio(up, "A", "B").value == 1.0
        assert unanimous_improvement_ratio(up, "B", "A").value == -1.0

    def test_monotone_transform_invariance(self):
        # Dyadic grid scores keep these transforms exactly order-preserving
        # in floats, so counts must not move at all.
        rng = np.random.default_rng(24)
        transforms = [
            lambda x: 0.5 * x + 0.25,
            lambda x: x * x,
            lambda x: float(np.sqrt(x)),
            lambda x: x / (1.0 + x),
        ]
        for _ in range(300):
            table = random_table(rng, n_cases=6, n_systems=2, grid=64)
            a, b = table.systems
            base = unanimous_improvement_ratio(table, a, b)
            per_metric = [transforms[int(k)] for k in rng.integers(0, len(transforms), 2)]
            rows = []
            for case in table.cases:
                for system in table.systems:
                    vector = table.cell(case, system)
                    for t, name in zip(per_metric, vector.names):
                        rows.append((case, system, name, t(vector[name])))
            mapped_table = ScoreTable.from_rows("mapped", rows)
            mapped = unanimous_improvement_ratio(mapped_table, a, b)
            assert mapped == base


class TestReferenceSystem:
    def test_picks_highest_uir_rival(self):
        table = make_table(
            {
                "low": [(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)],
                "mid": [(0.4, 0.4), (0.5, 0.5), (0.2, 0.2)],
                "high": [(0.9, 0.9), (0.8, 0.8), (0.7, 0.7)],
            }
        )
        ref = reference_system(table, "low")
        assert ref == ("high", 1.0)

    def test_none_when_no_positive_rival(self):
        table = make_table({"A": [(0.6, 0.2)], "B": [(0.2, 0.6)]})
        assert reference_system(table, "A") is None

    def test_threshold_filters(self):
        table = make_table(
            {"A": [(0.5, 0.5), (0.5, 0.5), (0.2, 0.8)], "B": [(0.6, 0.6), (0.6, 0.6), (0.8, 0.2)]}
        )
        assert reference_system(table, "A") == ("B", pytest.approx(2 / 3))
        assert reference_system(table, "A", threshold=0.9) is None

    def test_nan_threshold_admits_no_rival(self):
        # The rule every pair set uses: strictly above, which NaN never is.
        table = make_table({"A": [(0.5, 0.5)], "B": [(0.6, 0.6)]})
        assert reference_system(table, "A", threshold=math.nan) is None
        assert best_rival({"x": -0.5}, math.nan) is None
        assert best_rival({"x": -0.5}, -1.0) == ("x", -0.5)

    def test_tie_breaks_to_smaller_id(self):
        table = make_table(
            {
                "victim": [(0.1, 0.1)],
                "zeta": [(0.9, 0.9)],
                "alpha": [(0.9, 0.9)],
            }
        )
        ref = reference_system(table, "victim")
        assert ref == ("alpha", 1.0)


class TestRobustSets:
    def test_uir_set_matches_filter(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            table = random_table(rng, n_cases=6, n_systems=4, grid=8)
            for threshold in (-0.5, 0.0, 0.25, 0.6):
                got = robust_set_uir(table, threshold)
                expect = set()
                for a in table.systems:
                    for b in table.systems:
                        if a == b:
                            continue
                        n_a, n_b, _ = oracle_uir_counts(table, a, b)
                        if (n_a - n_b) / len(table.cases) > threshold:
                            expect.add((a, b))
                assert got == expect

    def test_f_set_matches_filter(self):
        rng = np.random.default_rng(26)
        table = random_table(rng, n_cases=6, n_systems=4)
        for threshold in (0.0, 0.05, 0.2):
            got = robust_set_f(table, threshold, alpha=0.5)
            p_col, r_col = table.metric_names
            means = {}
            for system in table.systems:
                fs = [
                    f_measure(table.cell(c, system)[p_col], table.cell(c, system)[r_col], 0.5)
                    for c in table.cases
                ]
                means[system] = sum(fs) / len(fs)
            expect = {
                (a, b)
                for a in table.systems
                for b in table.systems
                if a != b and means[a] - means[b] > threshold
            }
            assert got == expect

    def test_uir_set_shrinks_with_threshold(self):
        rng = np.random.default_rng(27)
        table = random_table(rng, n_cases=8, n_systems=5, grid=16)
        previous = None
        for threshold in (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0):
            current = robust_set_uir(table, threshold)
            if previous is not None:
                assert current <= previous
            previous = current
