"""Byte-mutated score CSVs and clusterings through all six subcommands.

Every run, in process through ``cli.main``, must exit 0, or exit 1 with a
single ``error: <parse|validation|io|invalid>: ...`` line as the last line
of stderr; any other stderr line is a ``warning:``.  An exception that
escapes ``main`` fails the test with its traceback.  The mutations delete,
overwrite and insert bytes, among them CSV and TSV delimiters, quotes, CR,
NUL, bytes that are not UTF-8 and fields longer than csv's 131,072-character
limit; they also copy and drop lines and rename systems, cases, metrics,
clusters and items.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from unanimity.cli import main
from unanimity.data import serialize_score_table

from conftest import make_table

SCORES = serialize_score_table(
    make_table(
        {
            "x": [(0.9, 0.8), (0.85, 0.8), (0.9, 0.85), (0.7, 0.9)],
            "y": [(0.6, 0.5), (0.65, 0.6), (0.6, 0.55), (0.5, 0.7)],
            "z": [(0.3, 0.2), (0.35, 0.3), (0.3, 0.25), (0.3, 0.5)],
        }
    )
).encode()
GOLD = b"g1\ta\ng1\tb\ng2\tc\ng2\td\n"
SYSTEM = b"c1\ta\nc1\tc\nc2\tb\nc2\td\n"

LONG_FIELD = b"f" * 140_000
# Names and values of the inputs: renaming one to another merges systems,
# cases or clusters, or drops them, so runs get past parsing too.
NAMES = [b"x", b"y", b"z", b"w", b"precision", b"recall", b"case00", b"case01",
         b"case09", b"0.5", b"g1", b"g2", b"g9", b"c1", b"a", b"b", b"k"]
INSERTS = st.one_of(
    st.sampled_from(
        [b",", b"\t", b"\n", b"\r", b"\r\n", b'"', b"\x00", b"\xff", b"\xef\xbb\xbf",
         b"-", b"0", b"1", b"e9", b"nan", b"inf", b"#", b" ", b"\x0c", LONG_FIELD, *NAMES]
    ),
    st.binary(min_size=1, max_size=8),
)
ERROR_LINE = re.compile(r"error: (parse|validation|io|invalid): ")


@st.composite
def mutated(draw, data):
    """``data`` after one to three edits: bytes deleted, overwritten or
    inserted at a drawn position, a line copied or dropped, or a name
    renamed everywhere."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        lines = data.splitlines(keepends=True) or [b""]
        line = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(("delete", "overwrite", "insert", "copy", "drop", "rename")))
        if kind == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 8)) :]
        elif kind == "overwrite":
            data = data[:at] + draw(INSERTS) + data[at + 1 :]
        elif kind == "insert":
            data = data[:at] + draw(INSERTS) + data[at:]
        elif kind == "copy":
            data = b"".join(lines[:line] + [lines[line]] + lines[line:])
        elif kind == "drop":
            data = b"".join(lines[:line] + lines[line + 1 :])
        else:
            new = draw(st.sampled_from([b"", LONG_FIELD, *NAMES]))
            data = data.replace(draw(st.sampled_from(NAMES)), new)
    return data


COMMANDS = {
    "eval": (
        {"gold.tsv": GOLD, "sys_a.tsv": SYSTEM, "sys_b.tsv": GOLD},
        ["eval", "--gold", "gold.tsv", "--system", "sys_a.tsv", "--system", "sys_b.tsv"],
    ),
    "compare": (
        {"scores.csv": SCORES},
        ["compare", "--scores", "scores.csv", "--a", "x", "--b", "y", "--parametric"],
    ),
    "rank": ({"scores.csv": SCORES}, ["rank", "--scores", "scores.csv"]),
    "alpha-sweep": (
        {"scores.csv": SCORES},
        ["alpha-sweep", "--scores", "scores.csv", "--grid", "0:1:0.25"],
    ),
    "threshold-sweep": ({"scores.csv": SCORES}, ["threshold-sweep", "--scores", "scores.csv"]),
    "predict": (
        {"a.csv": SCORES, "b.csv": SCORES, "c.csv": SCORES},
        ["predict", "--reference", "a.csv", "--collections", "a.csv", "b.csv", "c.csv"],
    ),
}


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)), st.data())
def test_mutated_inputs_fail_with_one_categorized_error(command, data):
    files, argv = COMMANDS[command]
    # At least one input is mutated; the others may stay intact.
    names = data.draw(st.lists(st.sampled_from(sorted(files)), min_size=1, unique=True))
    with tempfile.TemporaryDirectory() as directory:
        root = Path(directory)
        for name, content in files.items():
            if name in names:
                content = data.draw(mutated(content), label=name)
            (root / name).write_bytes(content)
        args = [str(root / arg) if arg in files else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    lines = err.getvalue().splitlines()
    assert code in (0, 1)
    if code == 1:
        category = ERROR_LINE.match(lines[-1])
        assert category, lines[-1][:200]
        event(f"{command}: {category.group(1)} error")
        lines.pop()
    else:
        event(f"{command}: exit 0")
    assert all(line.startswith("warning: ") for line in lines), lines
