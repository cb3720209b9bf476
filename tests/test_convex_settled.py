"""All-alpha flags settled by convexity bounds, against the full mean-F curves.

``threshold_sweep`` runs ``_mean_f`` at every tenth alpha of the 101-point
grid.  Each system's mean F is convex in alpha, so between two evaluated
alphas it lies below their chord and above both neighbouring secants,
widened by a rounding margin that grows with the number of cases.  A pair
wins at every alpha if its lower bounds beat the other system's upper bounds
everywhere, loses if its upper bounds fall to the other's lower bounds
anywhere, and compares both exact curves otherwise.  Every flag and row must
equal ``sweep_oracle``'s, which computes every curve in full, and only the
pairs the bounds leave open may run a full curve.
"""

import math
import random
from operator import gt
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweep_oracle
import unanimity.uir as uir
from conftest import make_table
from unanimity import experiments
from unanimity.data import ScoreTable, parse_score_table
from unanimity.experiments import alpha_grid, alpha_sweep, threshold_sweep

DATA = Path(__file__).resolve().parent / "data"
GRID = (-1.0, -0.5, 0.0, 0.5)
SCORE_MAX = 1 + 1e-9
# p or r of 0 takes the endpoint-only branch, and alpha / 5e-324 overflows.
SPECIAL = (0.0, 1.0, SCORE_MAX, 5e-324, 1e-300, 0.5, 0.25)
ALPHAS = st.one_of(
    st.sampled_from(alpha_grid()),
    st.sampled_from((0.5, 0.0, 1.0, 0.07, 0.3)),
    st.floats(0.0, 1.0),
)


def sweep(table, alpha=0.5, grid=GRID):
    """The rows, the all-alpha flag of each ordered pair, and the
    (system, alphas) of every ``_mean_f`` call."""
    owner = {id(table.scores_for(s, table.metric_names[0])): s for s in table.systems}
    assert len(owner) == len(table.systems)
    calls, captured = [], {}
    mean_f, counts_above = experiments._mean_f, experiments._counts_above

    def recorded(precision, recall, alphas):
        calls.append((owner[id(precision)], tuple(alphas)))
        return mean_f(precision, recall, alphas)

    def capture(values, flags, grid):
        captured["all_alpha"] = flags[2]
        return counts_above(values, flags, grid)

    with mock.patch.object(experiments, "_mean_f", recorded), mock.patch.object(
        experiments, "_counts_above", capture
    ):
        rows = threshold_sweep(table, grid, alpha)
    return rows, captured["all_alpha"], calls


def oracle_flags(table):
    curves = alpha_sweep(table).curves
    return [all(map(gt, curves[a], curves[b])) for a, b in sweep_oracle.ordered_pairs(table)]


def assert_equals_oracle(table, alpha=0.5):
    rows, flags, calls = sweep(table, alpha)
    assert flags == oracle_flags(table)
    expected = sweep_oracle.threshold_sweep(table, GRID, alpha)
    assert list(map(repr, rows)) == list(map(repr, expected))
    return dict(zip(sweep_oracle.ordered_pairs(table), flags)), calls


def full_grids(calls):
    """The systems whose every grid alpha was computed, in call order."""
    return [s for s, alphas in calls if len(alphas) > len(alpha_grid()) // 2]


def nudge(value, rng):
    """One ulp up or down, kept inside [0, 1 + 1e-9]."""
    return min(max(math.nextafter(value, rng.choice((-1.0, 2.0))), 0.0), SCORE_MAX)


@st.composite
def settle_tables(draw):
    """2 to 6 systems over 1 to 300 cases.  After the first, each system is
    fresh, a clone, a one-ulp or few-cell edit of an earlier one, or flat
    (p = r on every case) at a level read off an earlier system's curve:
    touching it at one grid alpha, crossing the chord of one evaluated
    interval, or between that interval's lowest point and its ends, where a
    convex curve dips below a level twice."""
    n = draw(st.integers(1, 300))
    kinds = draw(
        st.lists(
            st.sampled_from(("fresh", "clone", "ulp", "edit", "touch", "chord", "dip")),
            min_size=1,
            max_size=5,
        )
    )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    special = draw(st.sampled_from((0.0, 0.1, 0.3)))

    def score():
        return rng.choice(SPECIAL) if rng.random() < special else rng.random()

    def fresh():
        return [(score(), score()) for _ in range(n)]

    systems = [fresh()]
    for kind in kinds:
        source = rng.choice(systems)
        new = list(source)
        if kind == "fresh":
            new = fresh()
        elif kind == "ulp":
            i = rng.randrange(n)
            p, r = new[i]
            up_p, up_r = nudge(p, rng), nudge(r, rng)
            new[i] = rng.choice(((up_p, r), (p, up_r), (up_p, up_r)))
        elif kind == "edit":
            for i in rng.sample(range(n), min(n, rng.randint(1, 3))):
                new[i] = (score(), score())
        elif kind != "clone":
            curve = alpha_sweep(make_table({"s": source})).curves["s"]
            start = 10 * rng.randrange(10)
            ends = min(curve[start], curve[start + 10])
            inner = curve[start + 1 : start + 10]
            if kind == "touch":
                level = rng.choice(inner)
            elif kind == "chord":
                level = (curve[start] + curve[start + 10]) / 2
            else:
                level = min(inner) + (ends - min(inner)) * rng.random()
            level = min(max(level, 0.0), SCORE_MAX)
            new = [(level, level)] * n
        systems.append(new)
    return make_table({f"s{j}": cells for j, cells in enumerate(systems)})


@settings(max_examples=150, deadline=None)
@given(settle_tables(), ALPHAS)
def test_flags_and_rows_equal_the_full_curves(table, alpha):
    assert_equals_oracle(table, alpha)


def test_crossing_curves_need_the_full_grid():
    # tests/data/crossing.csv: dip beats base at the 11 evaluated alphas but
    # not at 0.01 to 0.09; close beats base by one case's 0.01 at every alpha.
    table = parse_score_table((DATA / "crossing.csv").read_text())
    flags, calls = assert_equals_oracle(table)
    assert flags["ahead", "base"] is True and flags["base", "ahead"] is False
    assert flags["close", "base"] is True and flags["dip", "base"] is False
    assert sorted(full_grids(calls)) == ["base", "close", "dip"]


def test_separated_systems_run_no_full_grid():
    rng = random.Random(5)
    low = [0.1 + 0.2 * k for k in range(5)]
    columns = {
        f"s{k}": [(low[k] + 0.05 * rng.random(), low[k] + 0.05 * rng.random()) for _ in range(40)]
        for k in range(5)
    }
    flags, calls = assert_equals_oracle(make_table(columns))
    assert full_grids(calls) == []
    # One pass per system: the evaluated alphas, which hold the default 0.5.
    assert [s for s, _ in calls] == list(columns)
    assert sum(flags.values()) == 10


@pytest.mark.parametrize("n", [1, 20, 300])
def test_one_pair_within_the_margin_runs_its_two_full_grids(n):
    rng = random.Random(n)
    low = [(0.2 + 0.6 * rng.random(), 0.2 + 0.6 * rng.random()) for _ in range(n)]
    # Higher by about 9 ulps on every score: more than rounding can undo,
    # less than the margin.
    high = [(p + 1e-15, r + 1e-15) for p, r in low]
    far = [(0.1 * p, 0.1 * r) for p, r in low]
    flags, calls = assert_equals_oracle(make_table({"low": low, "high": high, "far": far}))
    assert flags["high", "low"] is True
    assert flags["low", "high"] is False
    assert sorted(full_grids(calls)) == ["high", "low"]
    # No (system, alpha) is computed twice.
    pairs = [(s, a) for s, alphas in calls for a in alphas]
    assert len(pairs) == len(set(pairs)) == 2 * 101 + 11


def test_clones_and_endpoint_ties_lose():
    rng = random.Random(11)
    base = [(0.2 + 0.6 * rng.random(), 0.2 + 0.6 * rng.random()) for _ in range(30)]
    columns = {
        "base": base,
        "clone": list(base),
        # Equal at alpha = 1 (or 0) only: that grid point alone decides.
        "recall_up": [(p, r + 0.1) for p, r in base],
        "precision_up": [(p + 0.1, r) for p, r in base],
    }
    flags, _ = assert_equals_oracle(make_table(columns))
    assert not flags["base", "clone"] and not flags["clone", "base"]
    assert not flags["recall_up", "base"] and not flags["precision_up", "base"]


@pytest.mark.parametrize("n", [300, 1000, 4000])
def test_the_margin_grows_with_the_cases(n):
    # Flat systems: exactly level at every alpha, so each pair's verdict is
    # the sign of rounding alone.  Over n cases the computed means stray
    # from the chords and secants by far more than a fixed margin covers.
    rng = random.Random(n)
    columns = {}
    for k in range(6):
        level = rng.uniform(0.3, 0.9)
        for j in range(4):
            shifted = level * (1 + j * 2e-14)
            columns[f"s{k}_{j}"] = [(shifted, shifted * (1 + 1e-7))] * n
    assert_equals_oracle(make_table(columns))


def test_subnormal_and_top_scores():
    columns = {
        "tiny_p": [(5e-324, 1.0), (SCORE_MAX, 0.5), (0.0, 0.25)],
        "tiny_r": [(1.0, 5e-324), (0.5, SCORE_MAX), (0.25, 0.0)],
        "top": [(SCORE_MAX, SCORE_MAX)] * 3,
        "zero": [(0.0, 0.0)] * 3,
    }
    flags, _ = assert_equals_oracle(make_table(columns))
    assert flags["top", "zero"] is True


# Each invalid input alone, in the order threshold_sweep checks them.
ERRORS = {
    "grid": "threshold grid must be sorted ascending",
    "systems": "threshold sweep needs at least 2 systems",
    "metrics": "table has 4 metrics; narrow it to one metric pair first",
    "pairs": "table has 3 systems, 6 ordered pairs; at most 5 are allowed",
    "level": "significance level 1.5 outside (0, 1)",
    "alpha": "alpha 1.5 outside [0, 1]",
    "nan": "alpha nan outside [0, 1]",
}


def broken_sweep(broken):
    """Run threshold_sweep with the named inputs made invalid."""
    systems = ["a"] if "systems" in broken else ["a", "b", "c"]
    metrics = ("m0", "m1", "m2", "m3") if "metrics" in broken else ("m0", "m1")
    rows = [
        (f"c{i}", s, m, (i + j + len(m) * k) % 7 / 7)
        for i in range(4)
        for j, s in enumerate(systems)
        for k, m in enumerate(metrics)
    ]
    table = ScoreTable.from_rows("t", rows)
    grid = [0.5, 0.0] if "grid" in broken else [0.0, 0.5]
    level = 1.5 if "level" in broken else 0.05
    alpha = 1.5 if "alpha" in broken else math.nan if "nan" in broken else 0.5
    with mock.patch.object(uir, "MAX_PAIRS", 5 if "pairs" in broken else uir.MAX_PAIRS):
        return threshold_sweep(table, grid, alpha, level)


@pytest.mark.parametrize(
    "broken",
    [(name,) for name in ERRORS]
    + [
        (a, b)
        for i, a in enumerate(ERRORS)
        for b in list(ERRORS)[i + 1 :]
        if {a, b} != {"alpha", "nan"}
    ],
)
def test_invalid_inputs_raise_the_earliest_error(broken):
    with pytest.raises(ValueError) as info:
        broken_sweep(broken)
    assert str(info.value) == ERRORS[broken[0]]
