"""Ranking report contents and annotations."""

import math

import numpy as np
import pytest

from unanimity.metrics import mean_f_measure
from unanimity.report import render_ranking_report
from unanimity.uir import pairwise_uir_matrix, reference_system

from conftest import make_table, random_table


def chain_table():
    return make_table(
        {
            "top": [(0.9, 0.85), (0.88, 0.9), (0.92, 0.9)],
            "mid": [(0.6, 0.55), (0.58, 0.6), (0.62, 0.6)],
            "low": [(0.3, 0.25), (0.28, 0.3), (0.32, 0.3)],
        }
    )


class TestRankingReport:
    def test_sorted_by_mean_f_desc(self):
        rows = render_ranking_report(chain_table())
        assert [row.system for row in rows] == ["top", "mid", "low"]
        values = [row.mean_f for row in rows]
        assert values == sorted(values, reverse=True)

    def test_mean_f_matches_metric(self):
        table = chain_table()
        rows = render_ranking_report(table)
        for row in rows:
            assert row.mean_f == mean_f_measure(table, row.system, 0.5)

    def test_improved_and_reference(self):
        rows = {row.system: row for row in render_ranking_report(chain_table())}
        assert rows["top"].improved_systems == ("low", "mid")
        assert rows["top"].reference_system is None
        assert rows["top"].reference_uir is None
        assert rows["low"].improved_systems == ()
        assert rows["low"].reference_system == "mid"
        assert rows["low"].reference_uir == 1.0
        assert rows["low"].near_baseline

    def test_reference_agrees_with_uir_module(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            table = random_table(rng, n_cases=6, n_systems=4, grid=8)
            rows = render_ranking_report(table)
            for row in rows:
                assert reference_system(table, row.system) == (
                    None
                    if row.reference_system is None
                    else (row.reference_system, row.reference_uir)
                )

    def test_threshold_controls_improved_set(self):
        table = chain_table()
        strict = {r.system: r for r in render_ranking_report(table, uir_threshold=1.0)}
        assert strict["top"].improved_systems == ()
        # strict >: a perfect chain gives UIR(low, rival) == -1.0 exactly,
        # so even threshold -1.0 leaves low's improved set empty.
        loose = {r.system: r for r in render_ranking_report(table, uir_threshold=-1.0)}
        assert loose["top"].improved_systems == ("low", "mid")
        assert loose["mid"].improved_systems == ("low",)
        assert loose["low"].improved_systems == ()

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, 1.5, -1.0000001])
    def test_threshold_outside_unit_range_refused(self, threshold):
        # No UIR exceeds NaN or inf, so such a threshold would silently
        # mark no system as improved.
        with pytest.raises(ValueError, match=r"UIR threshold .* outside \[-1, 1\]"):
            render_ranking_report(chain_table(), uir_threshold=threshold)

    def test_near_baseline_flag_threshold(self):
        # mid beats low on 9 of 10 cases with one reversal: UIR 0.8 < 0.9.
        low = [(0.3, 0.3)] * 9 + [(0.9, 0.9)]
        mid = [(0.5, 0.5)] * 9 + [(0.4, 0.4)]
        table = make_table({"low": low, "mid": mid})
        rows = {r.system: r for r in render_ranking_report(table)}
        assert rows["low"].reference_uir == pytest.approx(0.8)
        assert not rows["low"].near_baseline

    def test_tie_order_by_system_id(self):
        table = make_table({"b": [(0.5, 0.5)], "a": [(0.5, 0.5)]})
        rows = render_ranking_report(table)
        assert [row.system for row in rows] == ["a", "b"]
