"""The line-by-line parsers that block-wise ingest replaced.

``parse_clustering`` as it was before ``unanimity.data.parse_clustering``
checked and filed a block of lines at a time, and ``parse_score_table``
with ``_score_rows`` and ``_build_columns`` as they were before
``unanimity.data.parse_score_table`` did the same, each with the helpers it
called, copied unchanged.  The block-wise parsers must return an equal
result, with the same order of labels, or of cases, systems and metrics, or
raise the same exception with the same message and line.
"""

from __future__ import annotations

import csv
import itertools
from typing import Callable, Iterable, Iterator, TextIO

from unanimity.data import (
    _SCORE_MAX,
    _SPANS_LINES,
    SCORE_HEADER,
    Clustering,
    Column,
    ParseError,
    ScoreTable,
    ValidationError,
    _check_ids,
    _read_lines,
)


def _check_item(token: str) -> None:
    # One pass: split() breaks on exactly the characters isspace() accepts,
    # and gives [] for the empty string.
    if token.split() != [token]:
        raise ValueError(f"item id contains whitespace: {token!r}" if token else "empty item id")


def parse_clustering(source: str | TextIO) -> Clustering:
    """Read a TSV membership file, one ``<cluster_label>\\t<item_id>`` per line.

    Lines starting with ``#`` are comments.  Labels are kept verbatim.
    Malformed lines and duplicate memberships are rejected with their line
    number.
    """
    memberships: dict[str, set[str]] = {}
    for lineno, line in enumerate(_read_lines(source), start=1):
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(
                f"expected 2 tab-separated fields, got {len(fields)}", line=lineno
            )
        label, item = fields
        if not label:
            raise ParseError("empty cluster label", line=lineno)
        try:
            _check_item(item)
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        members = memberships.setdefault(label, set())
        if item in members:
            raise ParseError(f"duplicate membership ({label!r}, {item!r})", line=lineno)
        members.add(item)
    if not memberships:
        raise ParseError("no clusters")
    # Freeze in place, so each parse-time set is freed as soon as it is copied.
    for label, members in memberships.items():
        memberships[label] = frozenset(members)
    return Clustering._of(memberships)


def _build_columns(
    rows: Iterable[tuple[int | None, str, str, str, float]],
    error: Callable[[str, int | None], ValueError] = lambda msg, line: ValidationError(msg),
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...], dict[tuple[str, str], Column]]:
    """Index ``(line, case, system, metric, value)`` rows into dense columns.

    The one validated builder behind every way of making a ``ScoreTable``.
    Cases, systems and metrics keep first-appearance order.  An empty name,
    a score outside [0, 1], a duplicate, an id ``_check_ids`` refuses and a
    missing score are raised as ``error(message, line)``.  Returns (cases,
    systems, metrics, columns), with one tuple of scores in case order per
    (system, metric).
    """
    cases: dict[str, None] = {}
    metrics: dict[str, None] = {}
    filed: dict[tuple[str, str], dict[str, float]] = {}
    for line, case, system, metric, value in rows:
        if not case or not system or not metric:
            raise error("empty test_case, system or metric field", line)
        value = float(value)
        if not 0.0 <= value <= _SCORE_MAX:
            raise error(f"score {value} outside [0, 1] for ({case}, {system}, {metric})", line)
        column = filed.get((system, metric))
        if column is None:
            column = filed[system, metric] = {}
            metrics[metric] = None
        elif case in column:
            raise error(f"duplicate score for ({case}, {system}, {metric})", line)
        column[case] = value
        cases[case] = None
    if not filed:
        raise error("no scores", None)
    systems = dict.fromkeys(system for system, _ in filed)
    for kind, ids in ("test case id", cases), ("system id", systems), ("metric id", metrics):
        _check_ids(kind, ids, lambda message: error(message, None))
    # Duplicates are rejected above, so a short count means a missing score.
    if sum(map(len, filed.values())) != len(cases) * len(systems) * len(metrics):
        missing = next(
            (c, s, m)
            for c, s, m in itertools.product(cases, systems, metrics)
            if c not in filed.get((s, m), ())
        )
        raise error("missing score for ({}, {}, {})".format(*missing), None)
    columns = {
        (s, m): tuple(map(filed[s, m].__getitem__, cases)) for s in systems for m in metrics
    }
    return tuple(cases), tuple(systems), tuple(metrics), columns


def parse_score_table(
    source: str | TextIO,
    percent: bool = False,
    collection_id: str = "",
) -> ScoreTable:
    """Read a long-format score CSV with header ``test_case,system,metric,score``.

    Every (case, system) cell must carry the same metric set (dense table).
    With ``percent=True`` scores are divided by 100 on ingest.  Scores outside
    [0, 1] after rescaling are rejected.
    """
    rows = csv.reader(_read_lines(source))
    try:
        columns = _build_columns(_score_rows(rows, percent), ParseError)
    except csv.Error as exc:
        # Such as a field longer than csv.field_size_limit().
        raise ParseError(str(exc), line=rows.line_num) from None
    return ScoreTable._of(collection_id, *columns)


def _score_rows(rows, percent: bool) -> Iterator[tuple[int, str, str, str, float]]:
    """The ``(line, case, system, metric, score)`` records after a checked header."""
    header = next(rows, None)
    if header is None:
        raise ParseError("empty score file")
    if rows.line_num != 1:
        raise ParseError(_SPANS_LINES, line=1)
    header = tuple(map(str.strip, header))
    if header != SCORE_HEADER:
        raise ParseError(
            f"expected header {','.join(SCORE_HEADER)}, got {','.join(header)}",
            line=1,
        )
    for lineno, row in enumerate(rows, start=2):
        # A record that read past its own line has a quoted line break.
        if rows.line_num != lineno:
            raise ParseError(_SPANS_LINES, line=lineno)
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}", line=lineno)
        case, system, metric, text = map(str.strip, row)
        try:
            value = float(text)
        except ValueError:
            raise ParseError(f"bad score {text!r}", line=lineno) from None
        yield lineno, case, system, metric, value / 100.0 if percent else value
