"""Block-wise clustering parsing against the line-by-line parser it replaced.

``parse_clustering`` checks and files ``_BLOCK_LINES`` lines at a time, and
reads a file line by line only when a block fails a check.  It must return
what ``parse_oracle`` returns, with the same label order, or raise the same
exception with the same message and line.  Each test runs at block sizes of
1, 2 and 3 lines, so that duplicates, errors, comments and blank lines fall
on both sides of a block edge, and at the size the package uses.
"""

import contextlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import parse_oracle
import unanimity.data as data
from unanimity.data import ParseError, parse_clustering

DATA = Path(__file__).resolve().parent / "data"
BLOCKS = [1, 2, 3, data._BLOCK_LINES]

# Delimiters, quotes, the comment mark, NUL, characters that str.isspace()
# accepts beyond space and tab, digits and letters.
ALPHABET = "\t,\"# \0\x0b\x1c\x85\xa0\u2028" + "0123456789.e-" + "abcxyz"


@pytest.fixture(params=BLOCKS)
def block(request, monkeypatch):
    monkeypatch.setattr(data, "_BLOCK_LINES", request.param)
    return request.param


def outcome(parse, text, **kwargs):
    """The parsed value as comparable parts, or the exception's type, message
    and line."""
    try:
        result = parse(text, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return list(result.clusters.items())


def same_clustering(text):
    expected = outcome(parse_oracle.parse_clustering, text)
    assert outcome(parse_clustering, text) == expected
    return expected


def at_every_block_size(check, *args):
    for size in BLOCKS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data, "_BLOCK_LINES", size)
            check(*args)


NOISE = st.text(ALPHABET, max_size=12)
LABELS = st.sampled_from(["a", "b", "#c", "d e", "", "a\x85", "g "])
ITEMS = st.sampled_from(["x", "y", "z", "#x", "", "x y", "x\xa0", "y\x1c", "1\t2"])


@st.composite
def membership_lines(draw):
    """Mostly well-formed lines from small pools, so that labels repeat and
    memberships duplicate, among comments, blank lines and noise."""
    kind = draw(st.sampled_from(["good"] * 6 + ["bad label", "pooled", "comment", "blank", "noise"]))
    if kind == "good":
        return f"{draw(st.sampled_from('abcd'))}\t{draw(st.sampled_from('vwxyz'))}{draw(st.integers(0, 9))}"
    if kind == "bad label":
        return f"{draw(LABELS)}\t{draw(st.sampled_from('vwxyz'))}{draw(st.integers(0, 9))}"
    if kind == "pooled":
        return f"{draw(LABELS)}\t{draw(ITEMS)}"
    if kind == "comment":
        return "#" + draw(NOISE)
    if kind == "blank":
        return ""
    return draw(NOISE)


def join(lines, crlf, final):
    text = ("\r\n" if crlf else "\n").join(lines)
    return text + ("\r\n" if crlf else "\n") if final and lines else text


@settings(max_examples=300, deadline=None)
@given(st.lists(membership_lines(), max_size=12), st.booleans(), st.booleans())
def test_clusterings_equal_the_oracle(lines, crlf, final):
    at_every_block_size(same_clustering, join(lines, crlf, final))


CLUSTERING = "a\tx\nb\ty\nc\tz\na\tw\n"


class TestAcrossBlockEdges:
    @pytest.mark.parametrize(
        "text, line",
        [
            (CLUSTERING + "c\tz\n", 5),  # a duplicate in a later block
            ("a\tx\na\tx\nb\ty\nbad\n", 2),  # a duplicate before a malformed line
            ("a\tx\nb\ty\nc\tz\n\tq\na\tx\n", 4),  # an empty label before a duplicate
            ("a\tx\nb\ty x\nc\tz\na\tx\tq\n", 2),  # whitespace before three fields
            ("a\tx\nb\ty\nc\tz\nd\t\n", 4),  # an empty item in a later block
            ("a\tx\nb\ty\nc\tz\n\tw\n", 4),  # an empty label in a later block
        ],
    )
    def test_clustering_names_the_first_bad_line(self, block, text, line):
        kind, message, found = same_clustering(text)
        assert kind is ParseError and found == line

    def test_blocks_of_comments_only(self, block):
        text = "#one\n#two\n#three\na\tx\n#four\n#five\n#six\nb\ty\n#seven\n"
        assert same_clustering(text) == [("a", frozenset("x")), ("b", frozenset("y"))]
        assert same_clustering("#only\n#comments\n#here\n")[1] == "no clusters"

    def test_blank_lines_in_a_clustering_are_errors(self, block):
        assert same_clustering("a\tx\n\n\n\nb\ty\n")[1] == "line 2: expected 2 tab-separated fields, got 1"

    def test_nul(self, block):
        same_clustering("a\tx\nb\ty\0\nc\t\0z\n")


@contextlib.contextmanager
def no_walk():
    """Fail on any entry to the line walk."""

    def walk(*args):
        raise AssertionError("a valid file entered the line walk")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_membership_walk", walk)
        yield


class TestValidFilesStayInBlocks:
    def test_committed_inputs(self, block):
        with no_walk():
            for path in sorted(DATA.glob("*.tsv")):
                assert parse_clustering(path.read_text(encoding="utf-8")) == parse_oracle.parse_clustering(path.read_text(encoding="utf-8"))

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_serialized_values(self, rng):
        # Labels starting with "#" are written as comment lines, whole
        # blocks of them, in the canonical order of serialize_clustering.
        clusters = {f"#{j}" if j else "c": [f"i{rng.randrange(2000)}" for _ in range(40)] for j in range(30)}
        clustering = "".join(
            f"{label}\t{item}\n" for label in sorted(clusters) for item in sorted(set(clusters[label]))
        )

        def check():
            with no_walk():
                assert parse_clustering(clustering).clusters == {"c": frozenset(clusters["c"])}

        at_every_block_size(check)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from("abc"), st.sets(st.sampled_from(["x", "y", "z", "", "x y", "y\xa0", "\x85", "w "]), min_size=1), min_size=1))
def test_constructor_names_the_first_bad_item(clusters):
    # The previous constructor checked each frozen cluster's items one at a
    # time, in iteration order.
    def message(build):
        try:
            build()
        except ValueError as exc:
            return str(exc)

    def item_by_item():
        for members in clusters.values():
            for item in frozenset(members):
                parse_oracle._check_item(item)

    assert message(lambda: data.Clustering(clusters)) == message(item_by_item)
