"""Parsing, validation and round-trip behavior of the data module."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unanimity.data import (
    Clustering,
    MetricVector,
    ParseError,
    ScoreTable,
    ValidationError,
    parse_clustering,
    parse_score_table,
    serialize_clustering,
    serialize_score_table,
    validate_pair,
)

from conftest import random_overlapping


class TestClustering:
    def test_basic_properties(self):
        c = Clustering({"x": {"a", "b"}, "y": {"c"}})
        assert c.n == 3
        assert c.items == {"a", "b", "c"}
        assert c.labels == ("x", "y")
        assert not c.overlapping

    def test_size_and_items_computed_once(self):
        c = Clustering({"x": {"a", "b"}, "y": {"a"}})
        assert c.items is c.items
        assert (c.n, c.items) == (3, {"a", "b"})
        assert c == Clustering({"y": {"a"}, "x": {"b", "a"}})

    def test_labels_sorted_once(self):
        c = Clustering({"y": {"a"}, "x": {"b"}})
        assert c.labels == ("x", "y")
        assert c.labels is c.labels

    def test_overlap_counts_memberships(self):
        c = Clustering({"x": {"a", "b"}, "y": {"a"}})
        assert c.n == 3
        assert c.overlapping

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            Clustering({"x": set()})

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            Clustering({"": {"a"}})

    def test_whitespace_item_rejected(self):
        with pytest.raises(ValueError):
            Clustering({"x": {"a b"}})

    @pytest.mark.parametrize("label", ["#a", "#", "a\tb", "a\nb", "a\r", "\r\n"])
    def test_label_a_tsv_line_cannot_carry_is_rejected(self, label):
        # Read back, "#a" would be a comment line and the others malformed lines.
        with pytest.raises(ValueError, match=re.escape(f"cluster label {label!r} starts with")):
            Clustering({label: ["x"], "b": ["y"]})


class TestParseClustering:
    def test_round_trip(self):
        text = "c1\ta\nc1\tb\nc2\tc\n"
        c = parse_clustering(text)
        assert serialize_clustering(c) == text
        assert parse_clustering(serialize_clustering(c)) == c

    def test_comments_and_crlf(self):
        c = parse_clustering("# header\r\nc1\ta\r\nc2\tb\r\n")
        assert c.clusters == {"c1": frozenset({"a"}), "c2": frozenset({"b"})}

    def test_labels_verbatim(self):
        c = parse_clustering("Cluster One\tx1\n")
        assert c.labels == ("Cluster One",)

    def test_malformed_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_clustering("c1\ta\nno_tab_here\n")

    def test_three_fields_rejected(self):
        with pytest.raises(ParseError, match="2 tab-separated"):
            parse_clustering("c1\ta\tb\n")

    def test_duplicate_membership_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_clustering("c1\ta\nc1\ta\n")

    def test_same_item_two_clusters_ok(self):
        c = parse_clustering("c1\ta\nc2\ta\n")
        assert c.overlapping

    # Unicode whitespace that ASCII-only checks miss; U+001C, U+0085 and
    # U+2028 end a line for str.splitlines(), but not for the parser.
    ODD_ITEMS = ["a\x1cb", "a\x85b", "a\xa0b", "a\u2028b", "a\u3000b", "\xa0", ""]

    @pytest.mark.parametrize("item", ODD_ITEMS)
    def test_whitespace_or_empty_item_rejected_on_parse_and_construct(self, item):
        with pytest.raises(ParseError) as info:
            parse_clustering(f"c1\tok\nc1\t{item}\n")
        assert info.value.line is not None and info.value.line >= 2
        with pytest.raises(ValueError, match="whitespace|empty item id"):
            Clustering({"c1": {"ok", item}})

    @pytest.mark.parametrize("separator", ["\x0c", "\x1c", "\u2028"])
    def test_line_separators_stay_inside_the_line(self, separator):
        with pytest.raises(ParseError, match="whitespace") as info:
            parse_clustering(f"c1\ta{separator}b\nc1\tz\n")
        assert info.value.line == 1
        # Labels keep them verbatim, and the next line keeps its number.
        with pytest.raises(ParseError, match="line 2: expected 2"):
            parse_clustering(f"c{separator}1\ta\nbroken\n")

    def test_crlf_and_missing_final_newline(self):
        expected = parse_clustering("c1\ta\nc2\tb\n")
        assert parse_clustering("c1\ta\r\nc2\tb") == expected
        assert parse_clustering("c1\ta\r\nc2\tb\r\n") == expected
        with pytest.raises(ParseError, match="line 3: expected 2"):
            parse_clustering("c1\ta\r\n# note\x0cwith\u2028breaks\r\nbroken")

    def test_parsed_clusters_are_frozensets(self):
        c = parse_clustering("c2\tb\nc1\ta\nc1\tc\n")
        assert all(type(m) is frozenset for m in c.clusters.values())
        assert c == Clustering({"c1": {"c", "a"}, "c2": {"b"}})

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="no clusters"):
            parse_clustering("# only comments\n")

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.text("#\t\n\r a\ufeff", min_size=1, max_size=4),
            st.sets(st.sampled_from(["x", "y", "z"]), min_size=1),
            min_size=1,
        )
    )
    def test_labels_round_trip_or_are_refused(self, clusters):
        unwritable = any(label.startswith("#") or set(label) & set("\t\n\r") for label in clusters)
        try:
            clustering = Clustering(clusters)
        except ValueError:
            assert unwritable
        else:
            assert not unwritable
            assert parse_clustering(serialize_clustering(clustering)) == clustering

    def test_random_round_trips(self):
        rng = np.random.default_rng(11)
        items = [f"i{j}" for j in range(12)]
        for _ in range(50):
            c = random_overlapping(rng, items, 4)
            assert parse_clustering(serialize_clustering(c)) == c


class TestValidatePair:
    def test_clean(self):
        s = Clustering({"x": {"a", "b"}})
        g = Clustering({"y": {"a", "b"}})
        report = validate_pair(s, g)
        assert report.clean and report.notes == ()

    def test_lenient_reports_unclustered_gold(self):
        s = Clustering({"x": {"a"}})
        g = Clustering({"y": {"a", "b"}})
        report = validate_pair(s, g, strict=False)
        assert report.gold_only == ("b",)
        assert any("unclustered" in note for note in report.notes)

    def test_lenient_reports_system_extras(self):
        s = Clustering({"x": {"a", "z"}})
        g = Clustering({"y": {"a"}})
        report = validate_pair(s, g)
        assert report.system_only == ("z",)

    def test_strict_raises(self):
        s = Clustering({"x": {"a"}})
        g = Clustering({"y": {"a", "b"}})
        with pytest.raises(ValidationError, match="b"):
            validate_pair(s, g, strict=True)

    @pytest.mark.parametrize(
        "gold, message",
        [
            ({"a"}, "system items absent from gold: y z"),
            ({"a", "b"}, "system items absent from gold: y z; gold items absent from system: b"),
        ],
    )
    def test_strict_names_system_only_items(self, gold, message):
        s = Clustering({"x": {"a", "z", "y"}})
        with pytest.raises(ValidationError) as info:
            validate_pair(s, Clustering({"g": gold}), strict=True)
        assert str(info.value) == message


class TestMetricVector:
    def test_order_preserved(self):
        v = MetricVector({"p": 0.5, "r": 0.25})
        assert v.names == ("p", "r")
        assert v.values() == (0.5, 0.25)
        assert v["r"] == 0.25

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            MetricVector({"p": 1.5})
        with pytest.raises(ValueError):
            MetricVector({"p": -0.1})


SCORES_CSV = """test_case,system,metric,score
case1,sysA,precision,0.5
case1,sysA,recall,0.25
case1,sysB,precision,0.75
case1,sysB,recall,1.0
case2,sysA,precision,0
case2,sysA,recall,0.125
case2,sysB,precision,0.625
case2,sysB,recall,0.375
"""


class TestParseScoreTable:
    def test_basic(self):
        t = parse_score_table(SCORES_CSV, collection_id="c")
        assert t.cases == ("case1", "case2")
        assert t.systems == ("sysA", "sysB")
        assert t.metric_names == ("precision", "recall")
        assert t.cell("case2", "sysB")["recall"] == 0.375

    def test_percent_rescale(self):
        text = "test_case,system,metric,score\nc,s,p,72.76\nc,s,r,54.82\n"
        t = parse_score_table(text, percent=True)
        assert t.cell("c", "s")["p"] == pytest.approx(0.7276)

    def test_score_above_one_rejected(self):
        text = "test_case,system,metric,score\nc,s,p,1.2\n"
        with pytest.raises(ParseError, match="outside"):
            parse_score_table(text)

    def test_nan_rejected(self):
        text = "test_case,system,metric,score\nc,s,p,nan\n"
        with pytest.raises(ParseError):
            parse_score_table(text)

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_score_table("case,sys,metric,score\nc,s,p,0.5\n")

    def test_missing_cell_named(self):
        text = (
            "test_case,system,metric,score\n"
            "case1,sysA,precision,0.5\n"
            "case1,sysA,recall,0.5\n"
            "case1,sysB,precision,0.5\n"
        )
        with pytest.raises(ParseError, match=r"case1, sysB, recall"):
            parse_score_table(text)

    def test_duplicate_rejected(self):
        text = (
            "test_case,system,metric,score\n"
            "c,s,p,0.5\n"
            "c,s,p,0.5\n"
        )
        with pytest.raises(ParseError, match="duplicate"):
            parse_score_table(text)

    def test_round_trip(self):
        t = parse_score_table(SCORES_CSV, collection_id="c")
        again = parse_score_table(serialize_score_table(t), collection_id="c")
        assert again == t

    @pytest.mark.parametrize("separator", ["\x0c", "\x1c", "\u2028"])
    def test_line_separators_stay_inside_the_line(self, separator):
        text = (
            "test_case,system,metric,score\n"
            f"c1,s,p,0.5{separator}c1,s,r,0.5\n"
            "c1,s,r,0.5\n"
        )
        with pytest.raises(ParseError, match="line 2: expected 4 fields, got 7"):
            parse_score_table(text)
        named = parse_score_table(
            f"test_case,system,metric,score\nc1,s{separator}t,p,0.5\n"
        )
        assert named.systems == (f"s{separator}t",)

    def test_crlf_and_missing_final_newline(self):
        expected = parse_score_table(SCORES_CSV)
        crlf = SCORES_CSV.replace("\n", "\r\n")
        assert parse_score_table(crlf) == expected
        assert parse_score_table(crlf.rstrip("\r\n")) == expected
        with pytest.raises(ParseError, match="line 3: bad score"):
            parse_score_table("test_case,system,metric,score\r\nc,s,p,0.5\r\nc,s,r,x")

    def test_quoted_line_break_refused_at_its_first_line(self):
        # csv would join the two lines into the metric "purity" and number
        # every later line one too low.
        text = (
            "test_case,system,metric,score\n"
            "c1,s1,p,0.5\n"
            'c1,s1,"pur\nity",0.5\n'
            "c1,s1,r,bad\n"
        )
        with pytest.raises(ParseError, match="line 3: quoted field spans lines"):
            parse_score_table(text)
        with pytest.raises(ParseError, match="line 3: quoted field spans lines"):
            parse_score_table(text.replace("\n", "\r\n"))
        with pytest.raises(ParseError, match="line 1: quoted field spans lines"):
            parse_score_table('"test_\ncase",system,metric,score\nc1,s1,p,0.5\n')

    @pytest.mark.parametrize("line", [1, 2, 3])
    def test_field_past_the_csv_limit_is_a_parse_error(self, line):
        # csv raises its own csv.Error, not a ValueError, for such a field.
        lines = ["test_case,system,metric,score", "c1,s1,p,0.5", "c1,s1,r,0.5"]
        lines[line - 1] = lines[line - 1].replace("s", "s" * 140_000, 1)
        with pytest.raises(ParseError) as info:
            parse_score_table("\n".join(lines) + "\n")
        assert info.value.line == line
        assert str(info.value) == f"line {line}: field larger than field limit (131072)"

    @pytest.mark.parametrize(
        "text, line",
        [
            ("test_case,system,metric,score\nc1,s1,p\r,0.5\nc1,s1,r,0.5\n", 2),
            ("test_case,system,metric,score\nc1,s1,p,0.5\nc1,s1,r,0.5\rc2,s1,p,1\n", 3),
            ('test_case,system,metric,score\r\nc1,s1,"p\rq",0.5\r\n', 2),
            # A file whose lines end in CR alone.
            ("test_case,system,metric,score\rc1,s1,p,0.5\r", 1),
        ],
    )
    def test_carriage_return_inside_a_line_refused(self, text, line):
        with pytest.raises(ParseError, match="carriage return inside a line") as info:
            parse_score_table(text)
        assert info.value.line == line
        # Clusterings follow the same rule, in labels as in items.
        with pytest.raises(ParseError, match=f"line {line}: carriage return"):
            parse_clustering(text.replace(",", "\t", 1))

    def test_first_appearance_order(self):
        text = (
            "test_case,system,metric,score\n"
            "z_case,z_sys,z_metric,0.1\n"
            "z_case,z_sys,a_metric,0.2\n"
            "a_case,z_sys,z_metric,0.3\n"
            "a_case,z_sys,a_metric,0.4\n"
        )
        t = parse_score_table(text)
        assert t.cases == ("z_case", "a_case")
        assert t.metric_names == ("z_metric", "a_metric")


class TestScoreTable:
    def test_missing_cell_rejected(self):
        with pytest.raises(ValidationError, match="missing cell"):
            ScoreTable(
                "c",
                ("x", "y"),
                ("s",),
                {("x", "s"): MetricVector({"p": 0.5})},
            )

    def test_mismatched_metrics_rejected(self):
        with pytest.raises(ValidationError, match="metric names differ"):
            ScoreTable(
                "c",
                ("x",),
                ("s", "t"),
                {
                    ("x", "s"): MetricVector({"p": 0.5}),
                    ("x", "t"): MetricVector({"q": 0.5}),
                },
            )

    def test_from_rows_rejects_duplicate(self):
        rows = [("c", "s", "p", 0.2), ("c", "s", "p", 0.9)]
        with pytest.raises(ValidationError, match=r"duplicate score for \(c, s, p\)"):
            ScoreTable.from_rows("x", rows)

    def test_from_rows_rejects_missing_and_out_of_range(self):
        with pytest.raises(ValidationError, match=r"missing score for \(c2, s, r\)"):
            ScoreTable.from_rows("x", [("c1", "s", "p", 0.2), ("c1", "s", "r", 0.2), ("c2", "s", "p", 0.2)])
        with pytest.raises(ValidationError, match="outside"):
            ScoreTable.from_rows("x", [("c", "s", "p", 1.5)])

    def test_constructor_equals_from_rows(self):
        cells = {
            ("x", "s"): MetricVector({"p": 0.5, "r": 0.25}),
            ("x", "t"): MetricVector({"p": 1.0, "r": 0.0}),
        }
        built = ScoreTable("c", ("x",), ("s", "t"), cells)
        rows = [(c, s, m, v) for (c, s), vec in cells.items() for m, v in vec.scores.items()]
        assert built == ScoreTable.from_rows("c", rows)
        assert built.cell("x", "t") == cells[("x", "t")]

    def test_select_metrics_projects_and_orders(self):
        t = parse_score_table(SCORES_CSV)
        sel = t.select_metrics(("recall",))
        assert sel.metric_names == ("recall",)
        swapped = t.select_metrics(("recall", "precision"))
        assert swapped.metric_names == ("recall", "precision")

    def test_scores_for(self):
        t = parse_score_table(SCORES_CSV)
        assert t.scores_for("sysA", "precision") == (0.5, 0.0)
        with pytest.raises(ValueError, match="unknown system"):
            t.scores_for("nope", "precision")


# Ids with commas, quotes, inner spaces and non-ASCII characters, but no
# NUL, which csv refuses on Python 3.10, and none _check_ids refuses.
IDS = st.one_of(
    st.sampled_from(["a,b", '"q"', 'a "b" c', "in ner", "x'y", "é", "日本語", "#c"]),
    st.text(
        st.characters(exclude_characters="\x00\r\n", exclude_categories=("Cs",)),
        min_size=1,
        max_size=6,
    ),
).filter(lambda name: name == name.strip())


class TestIdsCarriedBack:
    """A table holds only ids its CSV form carries back: the parser strips
    each field and reads one record per line."""

    @pytest.mark.parametrize("bad", [" a", "a ", "a\nb", "a\rb", "\u2028a", "a\x1c"])
    @pytest.mark.parametrize("kind, at", [("test case id", 0), ("system id", 1), ("metric id", 2)])
    def test_from_rows_refuses(self, kind, at, bad):
        row = ["c", "s", "m", 0.5]
        row[at] = bad
        with pytest.raises(ValidationError) as refused:
            ScoreTable.from_rows("c", [tuple(row)])
        assert str(refused.value) == f"{kind} {bad!r} is empty, space-padded or holds a line break"

    def test_constructor_refuses(self):
        with pytest.raises(ValidationError) as refused:
            ScoreTable("c", ("x",), ("s ",), {("x", "s "): MetricVector({"p": 0.5})})
        assert str(refused.value) == "system id 's ' is empty, space-padded or holds a line break"

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(IDS, min_size=1, max_size=3, unique=True),
        st.lists(IDS, min_size=1, max_size=3, unique=True),
        st.lists(IDS, min_size=1, max_size=2, unique=True),
        st.data(),
    )
    def test_serialized_table_parses_back(self, cases, systems, metrics, data):
        rows = [
            (case, system, metric, data.draw(st.floats(0.0, 1.0)))
            for case in cases
            for system in systems
            for metric in metrics
        ]
        table = ScoreTable.from_rows("t", rows)
        assert parse_score_table(serialize_score_table(table), collection_id="t") == table


class TestByteOrderMark:
    """One leading U+FEFF, which ``open(path, encoding="utf-8")`` keeps from a
    spreadsheet export, is dropped by both parsers, as the CLI drops it."""

    def test_clustering(self, tmp_path):
        text = "c1\ta\nc1\tb\nc2\tc\n"
        path = tmp_path / "gold.tsv"
        path.write_text("\ufeff" + text, encoding="utf-8")
        with open(path, encoding="utf-8") as handle:
            marked = parse_clustering(handle)
        assert marked == parse_clustering(text)
        assert parse_clustering("\ufeff" + text) == parse_clustering(text)
        assert "c1" in marked.labels

    def test_score_table(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("\ufeff" + SCORES_CSV, encoding="utf-8")
        with open(path, encoding="utf-8") as handle:
            marked = parse_score_table(handle)
        assert marked == parse_score_table(SCORES_CSV)
        assert parse_score_table("\ufeff" + SCORES_CSV) == parse_score_table(SCORES_CSV)

    def test_only_one_mark_is_dropped(self):
        assert parse_clustering("\ufeff\ufeffc1\ta\n").labels == ("\ufeffc1",)


CELL = MetricVector({"p": 0.5})


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: parse_score_table(""), ParseError, "empty score file"),
        (lambda: parse_score_table(SCORES_CSV).select_metrics(()), ValueError, "no metrics selected"),
        (lambda: parse_score_table(SCORES_CSV).scores_for("sysA", "f"), ValueError, "unknown metric 'f'"),
        # An unknown system is named before an unknown metric.
        (lambda: parse_score_table(SCORES_CSV).scores_for("nope", "f"), ValueError, "unknown system 'nope'"),
        (lambda: parse_score_table(SCORES_CSV).cell("case3", "sysA"), ValueError, "unknown cell (case3, sysA)"),
        (lambda: parse_score_table(SCORES_CSV).cell("case1", "nope"), ValueError, "unknown cell (case1, nope)"),
        (lambda: MetricVector({}), ValueError, "metric vector has no scores"),
        (lambda: MetricVector({"": 0.5}), ValueError, "empty metric name"),
        (lambda: ScoreTable("c", ("x", "x"), ("s",), {("x", "s"): CELL}), ValidationError, "duplicate test case or system ids"),
        (lambda: ScoreTable("c", ("x",), ("s", "s"), {("x", "s"): CELL}), ValidationError, "duplicate test case or system ids"),
        (
            lambda: ScoreTable("c", ("x",), ("s",), {("x", "s"): CELL, ("y", "s"): CELL}),
            ValidationError,
            "score table has cells outside cases x systems",
        ),
    ],
)
def test_refusals(build, error, message):
    with pytest.raises(error) as refused:
        build()
    assert type(refused.value) is error and str(refused.value) == message
