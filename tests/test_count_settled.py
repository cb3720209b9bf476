"""Wilcoxon categories settled from counts, against one signed-rank test per
metric.

With n > ``EXACT_CUTOFF`` non-zero differences, k of them positive, the
positives' rank sum lies in [k(k+1)/2, k(2n-k+1)/2] whatever the ties.  A
column whose p-value, bounded from that range with the untied variance, is
below the level by a relative margin of 1e-9 is significant without its
test.  Every category and sweep row must equal ``kernel_oracle``'s, which
runs the full test on every column, and the rule must leave the test to
every column it cannot decide.
"""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle as oracle
import sweep_oracle
import unanimity.stats as stats
from conftest import make_table
from unanimity.data import (
    Clustering,
    MetricVector,
    ParseError,
    ScoreTable,
    ValidationError,
    parse_score_table,
)
from unanimity.experiments import predictor_curves, threshold_sweep
from unanimity.metrics import score_pair
from unanimity.report import render_ranking_report
from unanimity.stats import (
    EXACT_CUTOFF,
    _approx_two_sided_p,
    categorize_improvement,
    wilcoxon_signed_rank,
)
from unanimity.uir import MAX_PAIRS, UirResult, _PackedRanks, robust_set_uir

DATA = Path(__file__).resolve().parent / "data"


def bound_table(n, k, largest, zeros=0):
    """Systems a and b over n + ``zeros`` cases.  Precision differs by n
    distinct magnitudes, the k largest (or smallest) of them positive, and
    is equal on the last ``zeros`` cases; recall is higher for a on every
    case, by one tied amount."""
    positive = range(n - k, n) if largest else range(k)
    rows = {"a": [], "b": []}
    for i in range(n):
        high = 0.5 + (i + 1) * 1e-4
        a, b = (high, 0.5) if i in positive else (0.5, high)
        rows["a"].append((a, 0.75))
        rows["b"].append((b, 0.25))
    for _ in range(zeros):
        rows["a"].append((0.5, 0.75))
        rows["b"].append((0.5, 0.25))
    return make_table(rows)


def bound_columns(n, k):
    """Precision of ``bound_table`` with the placement that reaches the bound."""
    table = bound_table(n, k, 2 * k < n)
    return table.scores_for("a", "precision"), table.scores_for("b", "precision")


def rank_sum_bound(n, k):
    """The rule's upper bound on min(W+, W-) for n non-zero differences, k of
    them positive, whatever their ties."""
    return min(k * (2 * n - k + 1), n * (n + 1) - k * (k + 1)) // 2


def reaches(n, k):
    """Whether the bound is below the null mean n(n+1)/4: then the k largest
    ranks (k < n/2) or the k smallest (k > n/2) give min(W+, W-) equal to
    it.  A bound at or above the mean never decides a column."""
    return 4 * rank_sum_bound(n, k) < n * (n + 1)


def levels_around(p):
    near = (p, math.nextafter(p, 0.0), math.nextafter(p, 1.0), 0.05, 1e-300)
    return [level for level in near if 0.0 < level < 1.0]


def spread(n):
    """Every k for n <= 50; above that, the ends, the middle and between."""
    if n <= 50:
        return range(n + 1)
    return sorted({0, 1, 2, 3, n // 10, n // 4, n // 2 - 1, n // 2, n // 2 + 1, 3 * n // 4, n - 2, n - 1, n})


@pytest.fixture
def full_tests(monkeypatch):
    """The (x, y) columns given to the full signed-rank test."""
    calls = []

    def counted(x, y, significance_level=0.05):
        calls.append((x, y))
        return wilcoxon_signed_rank(x, y, significance_level)

    monkeypatch.setattr(stats, "wilcoxon_signed_rank", counted)
    return calls


class TestColumnsAtTheBound:
    @pytest.mark.parametrize("zeros", [0, 5])
    @pytest.mark.parametrize("largest", [True, False])
    @pytest.mark.parametrize("n", [10, 20, 21, 22, 50, 200, 1000])
    def test_equals_the_signed_rank_test(self, n, largest, zeros):
        for k in spread(n):
            table = bound_table(n, k, largest, zeros)
            x, y = table.scores_for("a", "precision"), table.scores_for("b", "precision")
            test = wilcoxon_signed_rank(x, y)
            assert test.n_effective == n
            if largest == (2 * k < n) and reaches(n, k):
                assert min(test.w_plus, test.w_minus) == rank_sum_bound(n, k)
            for level in levels_around(test.p_value):
                for a, b in (("a", "b"), ("b", "a")):
                    expected = oracle.categorize_improvement(table, a, b, level)
                    assert categorize_improvement(table, a, b, level) is expected, (k, level, a)

    def test_tie_free_bound_is_the_tests_p(self):
        # Where the columns reach the bound with no ties, the rule's p is the
        # test's own, bit for bit.
        for n in (21, 50, 200):
            for k in (0, 1, n // 5, n - n // 5, n - 1, n):
                assert reaches(n, k)
                test = wilcoxon_signed_rank(*bound_columns(n, k))
                assert _approx_two_sided_p((), rank_sum_bound(n, k), n) == test.p_value


class TestWhichColumnsSettle:
    """A column is decided by counts only when its bounded p is below the
    level by the margin; the rest run the full test."""

    def one_column(self, n, k):
        # Recall is equal on every case: no non-zero difference, no test.
        rows = bound_table(n, k, 2 * k < n)
        return make_table(
            {
                s: [(p, 0.5) for p in rows.scores_for(s, "precision")]
                for s in ("a", "b")
            }
        )

    @pytest.mark.parametrize("n, k", [(21, 0), (30, 3), (200, 150), (1000, 200)])
    def test_margin_keeps_the_full_test(self, n, k, full_tests):
        table = self.one_column(n, k)
        p = _approx_two_sided_p((), rank_sum_bound(n, k), n)
        # Just past p, and where level * (1 - 1e-9) is p itself.
        at_margin = p / (1 - 1e-9)
        while at_margin * (1 - 1e-9) < p:
            at_margin = math.nextafter(at_margin, 1.0)
        while at_margin * (1 - 1e-9) > p:
            at_margin = math.nextafter(at_margin, 0.0)
        assert at_margin * (1 - 1e-9) == p
        for level in (math.nextafter(p, 1.0), at_margin):
            full_tests.clear()
            assert categorize_improvement(table, "a", "b", level) is stats.ImprovementCategory.CONCORDANT_SIGNIFICANT
            assert len(full_tests) == 1
        full_tests.clear()
        past = math.nextafter(at_margin, 1.0)
        assert categorize_improvement(table, "a", "b", past) is stats.ImprovementCategory.CONCORDANT_SIGNIFICANT
        assert full_tests == []

    @pytest.mark.parametrize("k", [0, 1, 5, 19, 20])
    def test_no_count_rule_up_to_the_exact_cutoff(self, k, full_tests):
        # n = 20 takes the exact test; only a one-signed column skips it.
        table = self.one_column(EXACT_CUTOFF, k)
        categorize_improvement(table, "a", "b", 0.5)
        assert len(full_tests) == (0 if k in (0, EXACT_CUTOFF) else 1)

    def test_golden_table_has_both_kinds(self, full_tests):
        # tests/data/approx.csv: 8 of its 12 columns are settled by counts.
        table = parse_score_table((DATA / "approx.csv").read_text(encoding="utf-8"))
        threshold_sweep(table, [0.0])
        assert len(full_tests) == 4


COARSE = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)


@st.composite
def shifted_tables(draw):
    """21-300 cases, 2-4 systems, scores on a coarse grid with 0 and 1 and
    both signed zeros; each system is shifted by its own steps on each
    metric, so many columns are one-sided enough to settle."""
    n_cases = draw(st.integers(21, 300))
    n_systems = draw(st.integers(2, 4))
    shifts = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=n_systems, max_size=n_systems))
    rng = draw(st.randoms(use_true_random=False))
    scores = {f"s{j}": [] for j in range(n_systems)}
    for _ in range(n_cases):
        base = (rng.randrange(9), rng.randrange(9))
        for (system, cells), shift in zip(scores.items(), shifts):
            cell = []
            for b, s in zip(base, shift):
                step = min(8, max(0, b + s + rng.choice((-1, 0, 0, 1))))
                value = COARSE[step]
                cell.append(-value if value == 0.0 and rng.random() < 0.5 else value)
            cells.append(tuple(cell))
    return make_table(scores)


LEVELS = (0.05, 0.01, 1e-6, 0.5, 1e-300)


@settings(max_examples=60, deadline=None)
@given(shifted_tables(), st.sampled_from(LEVELS))
def test_categories_and_sweep_equal_the_oracle(table, level):
    pairs = [(a, b) for a in table.systems for b in table.systems if a != b]
    found = dict(zip(pairs, stats._categories(table, pairs, level)))
    for a, b in pairs:
        assert found[a, b] is oracle.categorize_improvement(table, a, b, level)
    grid = [-1.0, -0.5, 0.0, 0.25, 1.0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep_oracle, "categorize_improvement", oracle.categorize_improvement)
        expected = sweep_oracle.threshold_sweep(table, grid, significance_level=level)
    assert repr(threshold_sweep(table, grid, significance_level=level)) == repr(expected)


class TestOnePackingPerSweep:
    @pytest.fixture
    def packings(self, monkeypatch):
        calls = []
        init = _PackedRanks.__init__

        def counted(self, table, systems):
            calls.append(tuple(systems))
            init(self, table, systems)

        monkeypatch.setattr(_PackedRanks, "__init__", counted)
        return calls

    def test_threshold_sweep_packs_once(self, packings):
        table = parse_score_table((DATA / "approx.csv").read_text(encoding="utf-8"))
        threshold_sweep(table, [0.0])
        assert packings == [table.systems]

    def test_pair_limit_is_checked_before_packing(self, packings):
        systems = math.isqrt(MAX_PAIRS) + 1
        table = ScoreTable.from_rows("t", [("c", f"s{j}", m, 0.5) for j in range(systems) for m in ("p", "r")])
        with pytest.raises(ValueError, match="ordered pairs"):
            threshold_sweep(table, [0.0])
        with pytest.raises(ValueError, match="ordered pairs"):
            predictor_curves(table, [table, table], [0.0])
        # The budget refusal comes before the collections' system sets are compared.
        other = ScoreTable.from_rows("u", [("c", f"x{j}", m, 0.5) for j in range(2) for m in ("p", "r")])
        with pytest.raises(ValueError, match="ordered pairs"):
            predictor_curves(table, [table, other], [0.0])
        assert packings == []

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """How often the pair kernel runs and a mirror is built by reversal."""
        calls = {"uir": 0, "reversed": 0}
        uir, reversed_ = _PackedRanks.uir, UirResult.reversed

        def counted_uir(self, a, b):
            calls["uir"] += 1
            return uir(self, a, b)

        def counted_reversed(self):
            calls["reversed"] += 1
            return reversed_(self)

        monkeypatch.setattr(_PackedRanks, "uir", counted_uir)
        monkeypatch.setattr(UirResult, "reversed", counted_reversed)
        return calls

    @pytest.mark.parametrize(
        "run",
        [
            lambda table: render_ranking_report(table),
            lambda table: threshold_sweep(table, [-1.0, 0.0, 0.5]),
            lambda table: robust_set_uir(table, 0.0),
            lambda table: predictor_curves(table, [table, table], [-1.0, 0.0, 0.5]),
        ],
        ids=["render_ranking_report", "threshold_sweep", "robust_set_uir", "predictor_curves"],
    )
    def test_each_unordered_pair_runs_the_kernel_once(self, kernel_calls, run):
        table = parse_score_table((DATA / "approx.csv").read_text(encoding="utf-8"))
        n = len(table.systems)
        run(table)
        assert kernel_calls == {"uir": n * (n - 1) // 2, "reversed": 0}


class TestOneScoreRange:
    def perfect(self):
        # Cluster shares 0.4, 0.2, 0.3 and 0.1 sum to 1.0000000000000002.
        labels = ["c0"] * 4 + ["c1"] * 2 + ["c2"] * 3 + ["c3"]
        clusters = {}
        for item, label in enumerate(labels):
            clusters.setdefault(label, []).append(f"i{item}")
        return Clustering(clusters)

    def test_a_perfect_clustering_builds_a_table(self):
        gold = self.perfect()
        vector = score_pair(gold, gold)
        assert vector["purity"] == 1.0000000000000002
        table = ScoreTable("x", ["c"], ["s"], {("c", "s"): vector})
        assert table.cell("c", "s") == vector
        rows = [("c", "s", name, value) for name, value in vector.scores.items()]
        assert ScoreTable.from_rows("x", rows) == table

    @pytest.mark.parametrize("value", [1.0 + 1e-9, 1.0000000000000002])
    def test_the_allowance_is_accepted_everywhere(self, value):
        assert MetricVector({"p": value})["p"] == value
        assert ScoreTable.from_rows("x", [("c", "s", "p", value)]).scores_for("s", "p") == (value,)
        text = f"test_case,system,metric,score\nc,s,p,{value!r}\n"
        assert parse_score_table(text).scores_for("s", "p") == (value,)

    @pytest.mark.parametrize("value", [1.0000001, math.nextafter(1.0 + 1e-9, 2.0)])
    def test_past_it_is_refused_everywhere(self, value):
        with pytest.raises(ValueError, match="outside"):
            MetricVector({"p": value})
        with pytest.raises(ValidationError, match="outside"):
            ScoreTable.from_rows("x", [("c", "s", "p", value)])
        with pytest.raises(ParseError, match="outside"):
            parse_score_table(f"test_case,system,metric,score\nc,s,p,{value!r}\n")
