"""Alpha sweeps, threshold sweeps, and the cross-collection protocol."""

import numpy as np
import pytest

from unanimity.experiments import (
    Predictor,
    alpha_grid,
    alpha_sweep,
    gold_consistent_pairs,
    predictor_curves,
    threshold_sweep,
)
from unanimity.metrics import f_measure, mean_f_measure
from unanimity.stats import ImprovementCategory, categorize_improvement, parametric_uir
from unanimity.uir import unanimous_improvement_ratio

from conftest import make_table, random_table


class TestAlphaGrid:
    def test_default_101_points(self):
        grid = alpha_grid()
        assert len(grid) == 101
        assert grid[0] == 0.0
        assert grid[-1] == 1.0
        steps = np.diff(grid)
        np.testing.assert_allclose(steps, 0.01, atol=1e-12)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            alpha_grid(1)


class TestAlphaSweep:
    def test_flat_system_constant_curve(self):
        table = make_table({"s": [(0.6, 0.6), (0.4, 0.4)]})
        sweep = alpha_sweep(table)
        np.testing.assert_allclose(sweep.curves["s"], 0.5)

    def test_endpoints_are_mean_recall_and_precision(self):
        table = make_table({"s": [(0.8, 0.2), (0.6, 0.4)]})
        sweep = alpha_sweep(table)
        assert sweep.curves["s"][0] == pytest.approx((0.2 + 0.4) / 2)
        assert sweep.curves["s"][-1] == pytest.approx((0.8 + 0.6) / 2)

    def test_crossing_curves(self):
        # F(0.8, 0.2, alpha) crosses the flat 0.5 line exactly at alpha=0.8.
        table = make_table({"A": [(0.8, 0.2)], "B": [(0.5, 0.5)]})
        sweep = alpha_sweep(table)
        a, b = sweep.curves["A"], sweep.curves["B"]
        for i, alpha in enumerate(sweep.alphas):
            if alpha < 0.8 - 1e-9:
                assert a[i] < b[i]
            elif alpha > 0.8 + 1e-9:
                assert a[i] > b[i]
            else:
                assert a[i] == pytest.approx(0.5, abs=1e-12)

    def test_dense_grid_oracle(self):
        rng = np.random.default_rng(51)
        table = random_table(rng, n_cases=5, n_systems=3)
        grid = alpha_grid(101)
        sweep = alpha_sweep(table, grid)
        p_col, r_col = table.metric_names
        for system in table.systems:
            for i, alpha in enumerate(grid):
                values = [
                    f_measure(
                        table.cell(case, system)[p_col],
                        table.cell(case, system)[r_col],
                        alpha,
                    )
                    for case in table.cases
                ]
                assert sweep.curves[system][i] == pytest.approx(
                    sum(values) / len(values)
                )

    def test_bad_grid_rejected(self):
        table = make_table({"a": [(0.5, 0.5)]})
        with pytest.raises(ValueError, match="sorted"):
            alpha_sweep(table, [0.5, 0.2])
        with pytest.raises(ValueError, match="outside"):
            alpha_sweep(table, [0.5, 1.2])
        # NaN passes every sortedness and endpoint comparison.
        for grid in ([0.0, float("nan"), 0.5], [float("nan")], [0.5, 0.2, float("nan")]):
            with pytest.raises(ValueError, match="outside"):
                alpha_sweep(table, grid)


def planted_table():
    """Three dominant systems in a strict chain, plus a trade-off pair.

    Every (g, g) and (g, t) pair is unanimous and concordant-significant;
    (t0, t1) is incomparable on every case and opposite-significant.
    """
    cases = 8
    scores = {
        "g0": [], "g1": [], "g2": [], "t0": [], "t1": [],
    }
    for j in range(cases):
        jit = 0.001 * j
        scores["g0"].append((0.90 + jit, 0.88 + jit))
        scores["g1"].append((0.80 + jit, 0.78 + jit))
        scores["g2"].append((0.70 + jit, 0.68 + jit))
        scores["t0"].append((0.52 + jit, 0.28 + jit))
        scores["t1"].append((0.48 + jit, 0.32 + jit))
    return make_table(scores)


class TestThresholdSweep:
    def test_matches_component_recombination(self):
        # Rebuild each row from the one-level-down primitives with raw loops.
        rng = np.random.default_rng(52)
        table = random_table(rng, n_cases=10, n_systems=4, grid=10)
        grid = [round(-1 + 0.1 * i, 10) for i in range(21)]
        rows = threshold_sweep(table, grid)
        systems = table.systems
        pairs = [(a, b) for a in systems for b in systems if a != b]
        fine = alpha_grid(101)
        for row in rows:
            accepted = [
                p
                for p in pairs
                if unanimous_improvement_ratio(table, *p).value > row.t
            ]
            assert row.n_accepted == len(accepted)
            assert row.accepted_ratio == len(accepted) / len(pairs)
            if not accepted:
                assert row.concordant_ratio == 0.0
                assert row.opposite_ratio == 0.0
                assert row.all_alpha_ratio == 0.0
                assert row.f05_ratio == 0.0
                assert row.accepted_empty
                continue
            concordant = [
                p
                for p in accepted
                if categorize_improvement(table, *p)
                is ImprovementCategory.CONCORDANT_SIGNIFICANT
            ]
            opposite = [
                p
                for p in accepted
                if categorize_improvement(table, *p)
                is ImprovementCategory.OPPOSITE_SIGNIFICANT
            ]
            assert row.concordant_ratio == len(concordant) / len(accepted)
            assert row.opposite_ratio == len(opposite) / len(accepted)
            all_alpha = [
                (a, b)
                for a, b in accepted
                if all(
                    mean_f_measure(table, a, alpha) > mean_f_measure(table, b, alpha)
                    for alpha in fine
                )
            ]
            assert row.all_alpha_ratio == len(all_alpha) / len(accepted)
            f05 = [
                (a, b)
                for a, b in accepted
                if mean_f_measure(table, a, 0.5) > mean_f_measure(table, b, 0.5)
            ]
            assert row.f05_ratio == len(f05) / len(accepted)

    def test_accepted_ratio_non_increasing(self):
        rng = np.random.default_rng(53)
        table = random_table(rng, n_cases=8, n_systems=4, grid=8)
        grid = [round(-1 + 0.05 * i, 10) for i in range(41)]
        rows = threshold_sweep(table, grid)
        ratios = [row.accepted_ratio for row in rows]
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))

    def test_planted_structure_monotone_categories(self):
        table = planted_table()
        grid = [round(-1 + 0.05 * i, 10) for i in range(41)]
        rows = [r for r in threshold_sweep(table, grid) if not r.accepted_empty]
        concordant = [r.concordant_ratio for r in rows]
        opposite = [r.opposite_ratio for r in rows]
        assert all(b >= a for a, b in zip(concordant, concordant[1:]))
        assert all(b <= a for a, b in zip(opposite, opposite[1:]))
        # Both category kinds actually occur in the planted data.
        assert opposite[0] > 0.0
        assert concordant[-1] == 1.0

    def test_top_threshold_is_empty(self):
        table = planted_table()
        rows = threshold_sweep(table, [1.0])
        assert rows[0].accepted_empty
        assert rows[0].accepted_ratio == 0.0

    def test_nan_threshold_refused(self):
        table = planted_table()
        tables = chain_collections()
        for grid in ([0.0, float("nan"), 0.5], [float("nan")], [0.5, 0.2, float("nan")]):
            with pytest.raises(ValueError, match=r"outside \[-1.0, 1.0\]"):
                threshold_sweep(table, grid)
            with pytest.raises(ValueError, match=r"outside \[-1.0, 1.0\]"):
                predictor_curves(tables[0], tables, grid)

    def test_needs_two_systems(self):
        table = make_table({"only": [(0.5, 0.5)]})
        with pytest.raises(ValueError, match="2 systems"):
            threshold_sweep(table, [0.0])


def chain_collections():
    """Three collections agreeing that x > y > z by mean F everywhere."""
    base = {
        "x": [(0.9, 0.8), (0.85, 0.8), (0.9, 0.85)],
        "y": [(0.6, 0.5), (0.65, 0.6), (0.6, 0.55)],
        "z": [(0.3, 0.2), (0.35, 0.3), (0.3, 0.25)],
    }
    tables = []
    for t in range(3):
        shifted = {
            system: [(min(1.0, p + 0.01 * t), min(1.0, r + 0.01 * t)) for p, r in rows]
            for system, rows in base.items()
        }
        tables.append(make_table(shifted, collection_id=f"col{t}"))
    return tables


class TestGoldConsistentPairs:
    def test_chain(self):
        tables = chain_collections()
        assert gold_consistent_pairs(tables) == {("x", "y"), ("x", "z"), ("y", "z")}

    def test_disagreement_removes_pair(self):
        tables = chain_collections()
        flipped = {
            "x": [(0.6, 0.5), (0.65, 0.6), (0.6, 0.55)],
            "y": [(0.9, 0.8), (0.85, 0.8), (0.9, 0.85)],
            "z": [(0.3, 0.2), (0.35, 0.3), (0.3, 0.25)],
        }
        tables[2] = make_table(flipped, collection_id="col2")
        assert gold_consistent_pairs(tables) == {("x", "z"), ("y", "z")}

    def test_needs_two_collections(self):
        with pytest.raises(ValueError, match="2 collections"):
            gold_consistent_pairs(chain_collections()[:1])

    def test_mismatched_systems_rejected(self):
        tables = chain_collections()
        tables[1] = make_table({"x": [(0.5, 0.5)], "other": [(0.4, 0.4)]})
        with pytest.raises(ValueError, match="differ"):
            gold_consistent_pairs(tables)

    def test_mismatched_metric_names_rejected(self):
        """Mean F over one metric pair is not compared with mean F over
        another, nor over the same pair in the other order."""
        tables = chain_collections()
        scores = {"x": [(0.9, 0.8)], "y": [(0.6, 0.5)], "z": [(0.3, 0.2)]}
        for metrics in (("bcubed_precision", "bcubed_recall"), ("recall", "precision")):
            tables[1] = make_table(scores, metrics=metrics, collection_id="col1")
            with pytest.raises(ValueError, match="^metric names differ across collections$"):
                gold_consistent_pairs(tables)
            with pytest.raises(ValueError, match="^metric names differ across collections$"):
                predictor_curves(tables[0], tables, [0.0])


class TestPredictorCurves:
    def test_hand_checked_chain(self):
        tables = chain_collections()
        reference = tables[0]
        curves = predictor_curves(reference, tables, [-0.9, 0.0, 0.5])
        by_name = {c.predictor: c for c in curves}
        uir_curve = by_name[Predictor.UIR]
        # x > y > z unanimously on every case: positive pairs have UIR 1,
        # reversed pairs -1, so every threshold accepts exactly the chain.
        for t, precision, recall in uir_curve.points:
            assert precision == 1.0
            assert recall == 1.0
        f_curve = by_name[Predictor.F_DELTA]
        assert f_curve.points[0][0] == -0.9
        # At -0.9 every ordered pair is predicted: 3 hits out of 6.
        assert f_curve.points[0][1] == pytest.approx(0.5)
        assert f_curve.points[0][2] == 1.0

    def test_empty_thresholds_omitted(self):
        tables = chain_collections()
        curves = predictor_curves(tables[0], tables, [0.0, 1.0])
        for curve in curves:
            assert all(point[0] != 1.0 for point in curve.points)
            assert curve.points  # 0.0 survives for every predictor

    def test_recall_non_increasing_in_threshold(self):
        rng = np.random.default_rng(54)
        systems = [f"s{i}" for i in range(4)]
        tables = []
        for t in range(3):
            quality = {s: 0.2 + 0.2 * i for i, s in enumerate(systems)}
            scores = {
                s: [
                    (
                        min(1.0, max(0.0, quality[s] + rng.uniform(-0.1, 0.1))),
                        min(1.0, max(0.0, quality[s] + rng.uniform(-0.1, 0.1))),
                    )
                    for _ in range(6)
                ]
                for s in systems
            }
            tables.append(make_table(scores, collection_id=f"c{t}"))
        grid = [round(-1 + 0.1 * i, 10) for i in range(21)]
        curves = predictor_curves(tables[0], tables, grid)
        for curve in curves:
            recalls = [point[2] for point in curve.points]
            assert all(b <= a for a, b in zip(recalls, recalls[1:]))

    def test_reference_must_be_included(self):
        tables = chain_collections()
        outsider = make_table(
            {"x": [(0.5, 0.5)], "y": [(0.4, 0.4)], "z": [(0.3, 0.3)]},
            collection_id="outsider",
        )
        with pytest.raises(ValueError, match="among the collections"):
            predictor_curves(outsider, tables, [0.0])

    def test_reference_sharing_only_the_collection_id_refused(self):
        tables = chain_collections()
        first = tables[0]
        # The chain reversed, z > y > x, under the first collection's id.
        flipped = {
            system: list(zip(first.scores_for(other, "precision"), first.scores_for(other, "recall")))
            for system, other in zip("xyz", "zyx")
        }
        impostor = make_table(flipped, collection_id=first.collection_id)
        with pytest.raises(ValueError, match="among the collections"):
            predictor_curves(impostor, tables, [0.0])
        # An equal table that is not one of the listed objects is accepted.
        copy = chain_collections()[0]
        assert copy is not first and copy == first
        assert predictor_curves(copy, tables, [0.0]) == predictor_curves(first, tables, [0.0])

    def test_no_consistent_pairs_rejected(self):
        flat = {
            "a": [(0.5, 0.5), (0.5, 0.5), (0.5, 0.5)],
            "b": [(0.5, 0.5), (0.5, 0.5), (0.5, 0.5)],
        }
        tables = [make_table(flat, collection_id=f"c{t}") for t in range(2)]
        with pytest.raises(ValueError, match="no gold-consistent"):
            predictor_curves(tables[0], tables, [0.0])

    def test_parametric_matches_direct_calls(self):
        tables = chain_collections()
        curves = predictor_curves(tables[0], tables, [0.0])
        by_name = {c.predictor: c for c in curves}
        # The parametric predictor at t=0 must accept exactly the pairs whose
        # direct parametric UIR is positive.
        reference = tables[0]
        target = gold_consistent_pairs(tables)
        predicted = set()
        for a in reference.systems:
            for b in reference.systems:
                if a != b and parametric_uir(reference, a, b) > 0.0:
                    predicted.add((a, b))
        t, precision, recall = by_name[Predictor.PARAMETRIC_UIR].points[0]
        hits = len(predicted & target)
        assert precision == hits / len(predicted)
        assert recall == hits / len(target)


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda table: threshold_sweep(table, []), "empty threshold grid"),
        (lambda table: predictor_curves(table, [table, table], ()), "empty threshold grid"),
    ],
)
def test_refusals(run, message):
    table = make_table({"a": [(0.6, 0.4), (0.5, 0.5)], "b": [(0.4, 0.3), (0.2, 0.6)]})
    with pytest.raises(ValueError) as refused:
        run(table)
    assert str(refused.value) == message
