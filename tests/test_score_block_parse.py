"""Block-wise score-table filing against the row walk it replaced.

``parse_score_table`` checks and files ``_BLOCK_LINES`` lines at a time,
and ``ScoreTable.from_rows`` and the constructor file through the same
function.  The row walk runs only on input that fails a check, to name its
first error.  Each must give what ``parse_oracle`` gives: an equal table,
with the same case, system and metric order and repr-equal scores, or the
same exception type, message and line.  The parser tests run at block sizes
of 1, 2 and 3 lines, so that quotes, duplicates, blank lines and errors
fall on both sides of a block edge, and at the size the package uses.
"""

import contextlib
import csv
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import parse_oracle
import unanimity.data as data
from unanimity.data import MetricVector, ScoreTable, parse_score_table, serialize_score_table

DATA = Path(__file__).resolve().parent / "data"
BLOCKS = [1, 2, 3, data._BLOCK_LINES]
HEADER = "test_case,system,metric,score"
JUST_PAST = math.nextafter(1 + 1e-9, 2.0)


def outcome(build, *args, **kwargs):
    """The table as comparable parts, scores by repr, or the exception's
    type, message and line."""
    try:
        table = build(*args, **kwargs)
    except (ValueError, TypeError, AttributeError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    columns = [(key, list(map(repr, column))) for key, column in table._columns.items()]
    return table.collection_id, table.cases, table.systems, table.metric_names, columns


def at_every_block_size(check, *args):
    for size in BLOCKS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "_BLOCK_LINES", size)
            check(*args)


def same_parse(text, percent=False):
    expected = outcome(parse_oracle.parse_score_table, text, percent=percent, collection_id="c")
    assert outcome(parse_score_table, text, percent=percent, collection_id="c") == expected
    return expected


IDS = st.sampled_from(["a", "b", "c"])
ODD_IDS = st.sampled_from(
    ["", " ", " a", "b ", '"a"', '"a,b"', '"a', 'a"', '"ab"c', '""', '"x\0"', "\0", "a\0b", "\x85", "\xa0c"]
)
SCORES = st.sampled_from(
    ["0.5", "0", "1", "0.25", "-0.0", "1e-3", " 0.75 ", "nan", "NaN", "inf", "-inf", "1.5", "-0.1", "50", "100",
     "x", "", '"0.5"', '"0.5', "0.5\0", "1_0", repr(1 + 1e-9), repr(JUST_PAST)]
)


@st.composite
def score_lines(draw):
    """A dense table's lines in a drawn order, from small pools so that ids
    repeat, with cells dropped or repeated, odd ids and scores, quotes,
    NULs, blank and whitespace-only lines, and lines of the wrong width."""
    cases = draw(st.lists(IDS, min_size=1, max_size=3, unique=True))
    systems = draw(st.lists(IDS, min_size=1, max_size=2, unique=True))
    metrics = draw(st.lists(st.sampled_from(["p", "r"]), min_size=1, max_size=2, unique=True))
    rows = [[c, s, m, draw(st.sampled_from(["0.5", "0.25", "1", "0", "0.75"]))]
            for c, s, m in itertools.product(cases, systems, metrics)]
    rows = draw(st.permutations(rows))
    if rows and draw(st.booleans()):
        del rows[draw(st.integers(0, len(rows) - 1))]
    if rows and draw(st.integers(0, 3)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    lines = []
    for row in rows:
        kind = draw(st.integers(0, 19))
        if kind == 0:
            row[draw(st.integers(0, 2))] = draw(ODD_IDS)
        elif kind == 1:
            row[3] = draw(SCORES)
        elif kind == 2:
            row = row + ["x"] if draw(st.booleans()) else row[:3]
        elif kind == 3:
            row = [f" {field} " for field in row]
        elif kind == 4:
            row = [f'"{field}"' for field in row]
        lines.append(",".join(row))
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", ",,,", '"', '",0.5', "a,b", "\0"])))
    return lines


HEADERS = st.sampled_from(
    [HEADER] * 8 + [" test_case , system,metric , score", '"test_case",system,metric,"score"',
                    '"test_case,system",metric,score', "test_case,system,metric", "", " ",
                    'test_case,system,metric,"score', "\ufeff" + HEADER]
)


@settings(max_examples=500, deadline=None)
@given(
    HEADERS,
    score_lines(),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([None, None, None, 4, 12]),
    st.booleans(),
)
def test_score_tables_equal_the_oracle(header, lines, end, final, bom, limit, percent):
    """A lowered ``csv.field_size_limit`` puts fields past the limit, and
    lines longer than it, in reach of small draws."""
    text = ("\ufeff" if bom else "") + end.join([header, *lines]) + (end if final else "")
    saved = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        at_every_block_size(same_parse, text, percent)
    finally:
        csv.field_size_limit(saved)


class TestEdges:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n",
            "\ufeff",
            HEADER,
            HEADER + "\n\n\n",
            "\n" + HEADER + "\nc,s,m,0.5\n",
            HEADER + "\nc,s,m,0.5\nc,s,m,0.5\n",  # a duplicate
            HEADER + "\nc,s,m,0.5\nd,s,n,0.5\n",  # missing cells
            HEADER + '\nc,"s\n,m,0.5\n',  # a quote left open
            HEADER + '\nc,s,m,0.5\nc,t,m,0.5\nd,s,m,0.5\nd,"t,m,0.5\n',
            HEADER + '\nc,s,m,"0.5\n',  # a quote open at the end of the file
            HEADER + '\nc,s,m,"0.5\n"\n',  # a record over two lines, valid but for that
            HEADER + '\nc,s,"m\n",0.5\nd,s,m,0.5\n',
            HEADER + '\n"ab"c,s,m,0.5\n',
            HEADER + "\nc,s,m\n0.5,d,s,m,0.5\n",  # 3 fields, then 5
            HEADER + "\nc,s,m,0.5\0\n",
            HEADER + "\nc,a\0b,m,0.5\n",  # valid where csv reads NUL, 3.11 on
            HEADER + "\r\nc,s,m,0.5\r\nd,s,m,0.25\r\n",
            HEADER + "\nc,s,m,0.5\rd,s,m,0.25\n",
            HEADER + "\nc,s,m,0.5\n \n",
            HEADER + "\n c , s , m , 0.5 \n",
            HEADER + "\nc,s,m,nan\n",
            HEADER + "\nc,s,m,0.5\nd,s,m,nan\n",  # NaN after the block's minimum and maximum
            HEADER + "\nc,s,m,-0.0\n",
            HEADER + "\nc,s,m,0.5\nd,s,m,-0.1\n",  # a negative score the block's sum outweighs
            HEADER + f"\nc,s,m,{1 + 1e-9!r}\n",
            HEADER + f"\nc,s,m,{JUST_PAST!r}\n",
            HEADER + "\nc,s,m,100\n",
            HEADER + "\nc,s,m," + "1" * 131073 + "\n",
            HEADER + "\nc,s,m,0.5,\n",
        ],
    )
    @pytest.mark.parametrize("percent", [False, True])
    def test_named_inputs(self, text, percent):
        at_every_block_size(same_parse, text, percent)

    def test_an_error_in_a_later_block(self):
        lines = [HEADER] + [f"c{i},s,m,0.5" for i in range(40)]
        for bad in ("c3,s,m,0.5", "c9,s,,0.5", "c9,s,m,2", 'c9,"s,m,0.5', "c9,s,m"):
            for at in (5, 17, len(lines)):
                text = "\n".join(lines[:at] + [bad] + lines[at:]) + "\n"
                kind, _, line = at_every_block_size_outcome(text)
                assert kind is data.ParseError and line is not None


def at_every_block_size_outcome(text):
    found = []
    at_every_block_size(lambda: found.append(same_parse(text)))
    assert all(result == found[0] for result in found)
    return found[0]


@contextlib.contextmanager
def no_walk():
    """Fail on any entry to the row walk."""

    def walk(*args):
        raise AssertionError("valid rows entered the row walk")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_build_columns", walk)
        yield


def parsed_in_blocks(text, **kwargs):
    """The table parsed at every block size without the walk, checked
    against the oracle."""
    expected = outcome(parse_oracle.parse_score_table, text, **kwargs)
    assert isinstance(expected[0], str), expected

    def check():
        with no_walk():
            assert outcome(parse_score_table, text, **kwargs) == expected

    at_every_block_size(check)


def budget_text(rng, systems=1000, cases=20):
    """A table shaped as ``tests/budget.py`` writes them."""
    lines = [HEADER]
    for case in range(cases):
        for system in range(systems):
            for metric in ("precision", "recall"):
                lines.append(f"c{case:02d},s{system:04d},{metric},{rng.randrange(1001) / 1000!r}")
    return lines


class TestValidFilesStayInBlocks:
    def test_committed_inputs(self):
        for path in sorted(DATA.glob("*.csv")):
            parsed_in_blocks(path.read_text(encoding="utf-8"))

    def test_budget_shaped_table(self):
        parsed_in_blocks("\n".join(budget_text(random.Random(0))) + "\n")

    def test_shuffled_rows(self):
        rng = random.Random(1)
        lines = budget_text(rng, systems=30, cases=12)
        body = lines[1:]
        rng.shuffle(body)
        parsed_in_blocks("\r\n".join([lines[0], *body]) + "\r\n")
        parsed_in_blocks("\n".join([lines[0], *(line.replace(",", " , ") for line in body)]))
        # Blank lines, which csv reads as no record, between and after rows.
        parsed_in_blocks("\n".join([lines[0], *body[:500], "", "", *body[500:], ""]) + "\n")

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from(["a", "b,c", 'q"x', "d e", "#f", "g;h"]), min_size=1, max_size=4, unique=True),
        st.lists(st.sampled_from(["s", "t,u", '"v"', "w x"]), min_size=1, max_size=3, unique=True),
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24),
        st.booleans(),
    )
    def test_serialized_round_trips(self, cases, systems, values, percent):
        # Ids that need quotes put the file on the csv path, from the block
        # that holds the first of them.
        rows = [
            (case, system, metric, values[i % len(values)])
            for i, (case, system, metric) in enumerate(itertools.product(cases, systems, ("p", "r")))
        ]
        table = ScoreTable.from_rows("t", rows)
        text = serialize_score_table(table)
        parsed_in_blocks(text, collection_id="t")
        assert parse_score_table(text, collection_id="t") == table
        if percent:
            parsed_in_blocks(text.replace(",0.", ",50.").replace(",1.0\n", ",100\n"), percent=True)


def row_outcome(build, collection_id, *args):
    """``build``'s outcome with the package's filer, and with the oracle's
    walk filing every table in its place."""
    got = outcome(build, collection_id, *args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_row_columns", lambda rows: parse_oracle._build_columns((None, *row) for row in rows))
        expected = outcome(build, collection_id, *args)
    return got, expected


ROW_IDS = st.sampled_from(["a", "b", "c", "", " a", "b ", "a\n", "a\rb", "\x85"])
ROW_VALUES = st.sampled_from(
    [0.5, 0.0, 1.0, -0.0, 1 + 1e-9, JUST_PAST, math.nan, math.inf, -math.inf, -0.5, 1, True, "0.25", " 0.75 ", "x", None]
)


@st.composite
def table_rows(draw):
    cases = draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=3, unique=True))
    systems = draw(st.lists(st.sampled_from(["s", "t"]), min_size=1, max_size=2, unique=True))
    metrics = draw(st.lists(st.sampled_from(["p", "r"]), min_size=1, max_size=2, unique=True))
    rows = draw(st.permutations([[c, s, m, 0.5] for c, s, m in itertools.product(cases, systems, metrics)]))
    if rows and draw(st.booleans()):
        del rows[draw(st.integers(0, len(rows) - 1))]
    if rows and draw(st.integers(0, 3)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    for row in rows:
        kind = draw(st.integers(0, 9))
        if kind == 0:
            row[draw(st.integers(0, 2))] = draw(ROW_IDS)
        elif kind == 1:
            row[3] = draw(ROW_VALUES)
        elif kind == 2:
            row[3:] = draw(st.sampled_from([[], [0.5, 0.5]]))
    return [tuple(row) for row in rows]


@settings(max_examples=400, deadline=None)
@given(table_rows())
@example([("a", "s", "p", 0.5), ("b", "s", "p", -0.5)])
def test_from_rows_equals_the_oracle_walk(rows):
    got, expected = row_outcome(ScoreTable.from_rows, "r", rows)
    assert got == expected
    # A generator of rows is read once.
    assert outcome(ScoreTable.from_rows, "r", iter(rows)) == expected


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(["a", "b", " c", "d\n", ""]), min_size=1, max_size=3, unique=True),
    st.lists(st.sampled_from(["s", "t ", "u\r"]), min_size=1, max_size=2, unique=True),
    st.lists(st.sampled_from(["p", "r", " q"]), min_size=1, max_size=2, unique=True),
    st.lists(st.sampled_from([0.5, 0.0, 1.0, 1 + 1e-9]), min_size=1, max_size=6),
)
def test_constructor_equals_the_oracle_walk(cases, systems, metrics, values):
    cells = {
        (case, system): MetricVector({m: values[(i + j) % len(values)] for j, m in enumerate(metrics)})
        for i, (case, system) in enumerate(itertools.product(cases, systems))
    }
    got, expected = row_outcome(ScoreTable, "k", cases, systems, cells)
    assert got == expected


def test_valid_rows_stay_in_one_block():
    rng = random.Random(2)
    rows = [(f"c{i}", f"s{j}", m, rng.random()) for i in range(30) for j in range(7) for m in "pr"]
    rng.shuffle(rows)
    with no_walk():
        table = ScoreTable.from_rows("v", rows)
        cells = {(c, s): table.cell(c, s) for c in table.cases for s in table.systems}
        assert ScoreTable("v", table.cases, table.systems, cells) == table
