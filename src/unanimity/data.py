"""Domain types and file formats for clustering evaluation.

Clusterings and gold standards are labeled families of item sets read from
TSV membership files.  Score tables hold one column of per-test-case scores
for each (system, metric) and are the input to every comparison operation
in this package.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections import defaultdict
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Sequence, TextIO


class ParseError(ValueError):
    """An input file violates its format contract."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(ValueError):
    """A clustering pair or score table fails a consistency check."""


def _check_items(items: list[str]) -> None:
    """Refuse an empty item id, or one with whitespace, naming the first.  The
    joined items split back into the same list only when every one passes:
    split() breaks on exactly what isspace() accepts and drops empty ids."""
    if " ".join(items).split() != items:
        bad = next(item for item in items if item.split() != [item])
        raise ValueError(f"item id contains whitespace: {bad!r}" if bad else "empty item id")


def _check_ids(
    kind: str, ids: Iterable[str], error: Callable[[str], ValueError] = ValueError
) -> None:
    """Refuse, naming the first, an id a score CSV cannot carry back: the
    parser strips each field and reads one record per line, so an id may
    not be empty, have whitespace ``str.strip`` removes at either end, or
    hold a CR or LF."""
    for name in ids:
        if not name or name != name.strip() or "\r" in name or "\n" in name:
            raise error(f"{kind} {name!r} is empty, space-padded or holds a line break")


class _Value:
    """Base of the validated types: an immutable value object.

    Attributes are written once, into ``__dict__``, while the object is
    built; assigning or deleting one later raises ``AttributeError``.  Two
    objects of the same class are equal when the attributes named in
    ``_compared`` are.  The fields hold dicts, so the objects are unhashable.
    The ``repr`` shows those whose names do not start with ``_``.
    """

    _compared: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self._compared)

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._compared if n[0] != "_")
        return f"{type(self).__qualname__}({shown})"

    @classmethod
    def _of(cls, *fields):
        """Wrap fields, in ``_compared`` order, that the caller has already checked."""
        value = cls.__new__(cls)
        value.__dict__.update(zip(cls._compared, fields, strict=True))
        return value


class Clustering(_Value):
    """A labeled family of non-empty item sets.

    Items may appear in several clusters (overlapping clustering) or in none.
    The same type serves for system output and for gold standards, whose
    clusters are read as categories.
    """

    _compared = ("clusters",)
    clusters: Mapping[str, frozenset[str]]

    def __init__(self, clusters: Mapping[str, Iterable[str]]):
        frozen: dict[str, frozenset[str]] = {}
        for label, members in clusters.items():
            if not label:
                raise ValueError("empty cluster label")
            if label.startswith("#") or any(c in label for c in "\t\n\r"):
                raise ValueError(f"cluster label {label!r} starts with '#' or holds a tab, CR or LF")
            members = frozenset(members)
            if not members:
                raise ValueError(f"cluster {label!r} is empty")
            _check_items(list(members))
            frozen[label] = members
        self.__dict__["clusters"] = frozen

    @cached_property
    def n(self) -> int:
        """Total membership count (sum of cluster sizes).

        This is the normalizer for purity-style weights, so that cluster
        weights form a distribution even when clusters overlap.
        """
        return sum(len(members) for members in self.clusters.values())

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(self.clusters))

    @cached_property
    def items(self) -> frozenset[str]:
        return frozenset().union(*self.clusters.values())

    @property
    def overlapping(self) -> bool:
        return self.n > len(self.items)


GoldStandard = Clustering


def _read_lines(source: str | TextIO) -> list[str]:
    """Lines ended by LF or CRLF, without their ends or one leading U+FEFF.

    ``str.splitlines()`` would also end a line at form feeds, separators
    such as U+001C and U+2028, and NEL; those stay inside the line, so that
    line numbers match the file's.  Any other CR is refused: csv would end
    a record there.
    """
    text = source if isinstance(source, str) else source.read()
    text = text.removeprefix("\ufeff").replace("\r\n", "\n")
    cr = text.find("\r")
    if cr >= 0:
        raise ParseError("carriage return inside a line", line=text.count("\n", 0, cr) + 1)
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def parse_clustering(source: str | TextIO) -> Clustering:
    """Read a TSV membership file, one ``<cluster_label>\\t<item_id>`` per line.

    Lines starting with ``#`` are comments.  Labels are kept verbatim; none
    starts with ``#`` or holds a tab, CR or LF.  Malformed lines and duplicate
    memberships are rejected with their line number.
    """
    lines = _read_lines(source)
    memberships = _filed_memberships(lines) or _membership_walk(lines)
    # Freeze in place, so each parse-time set is freed as soon as it is copied.
    for label, members in memberships.items():
        memberships[label] = frozenset(members)
    return Clustering._of(memberships)


# Both parsers check and file this many lines at once.  A file that fails
# a check is read again line by line, which names its first bad line.
_BLOCK_LINES = 512


def _filed_memberships(lines: list[str]) -> dict[str, set[str]] | None:
    """The memberships, a block of lines at a time; None on any error, and
    when there are none."""
    memberships, n = defaultdict(set), 0
    for start in range(0, len(lines), _BLOCK_LINES):
        block = lines[start : start + _BLOCK_LINES]
        # Lines hold no "\n", so one "\n" follows each joint and starts a line.
        text = "\t\n".join(block)
        if text.startswith("#") or "\n#" in text:
            block = [line for line in block if not line.startswith("#")]
            if not block:
                continue
            text = "\t\n".join(block)
        fields = text.split("\t")
        items, labels = fields[1::2], "".join(fields[0::2]).split("\n")
        try:
            _check_items(items)
        except ValueError:
            return None
        # No item holds a "\n", so each line starts an even field, and 2
        # fields per line means one tab in each line.
        if len(fields) != 2 * len(block) or "" in labels:
            return None
        for label, item in zip(labels, items):
            memberships[label].add(item)
        n += len(items)
    # A duplicate membership adds nothing to its set.  A plain dict, so that
    # looking up a missing label cannot add it.
    return dict(memberships) if memberships and sum(map(len, memberships.values())) == n else None


def _membership_walk(lines: list[str]) -> NoReturn:
    """Raise the first error of a file ``_filed_memberships`` refused, line
    by line; one with no line at fault has no memberships."""
    seen: set[tuple[str, str]] = set()
    for lineno, line in enumerate(lines, start=1):
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
            _check_items([item])
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
        if (label, item) in seen:
            raise ParseError(f"duplicate membership ({label!r}, {item!r})", line=lineno)
        seen.add((label, item))
    raise ParseError("no clusters")


def serialize_clustering(clustering: Clustering) -> str:
    """Canonical TSV form: sorted labels, items sorted within each cluster,
    LF; a leading U+FEFF, which the parser drops, is doubled."""
    out = []
    for label in clustering.labels:
        for item in sorted(clustering.clusters[label]):
            out.append(f"{label}\t{item}\n")
    text = "".join(out)
    return "\ufeff" + text if text.startswith("\ufeff") else text


class ValidationReport(NamedTuple):
    """Item-coverage comparison between a system clustering and a gold standard."""

    system_only: tuple[str, ...]
    gold_only: tuple[str, ...]
    notes: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.system_only and not self.gold_only


def validate_pair(
    system: Clustering, gold: GoldStandard, strict: bool = False
) -> ValidationReport:
    """Check that system and gold cover the same items.

    Strict mode raises on any mismatch.  Lenient mode reports: system items
    absent from the gold standard match no category and contribute zero to
    best-match terms; gold items never clustered count as misses.
    """
    system_only = tuple(sorted(system.items - gold.items))
    gold_only = tuple(sorted(gold.items - system.items))
    if strict and (system_only or gold_only):
        parts = []
        if system_only:
            parts.append("system items absent from gold: " + " ".join(system_only))
        if gold_only:
            parts.append("gold items absent from system: " + " ".join(gold_only))
        raise ValidationError("; ".join(parts))
    notes = []
    if system_only:
        notes.append(
            f"{len(system_only)} system item(s) absent from gold "
            "(zero best-match contribution)"
        )
    if gold_only:
        notes.append(f"{len(gold_only)} gold item(s) unclustered")
    return ValidationReport(system_only, gold_only, tuple(notes))


# The largest score accepted as "at most 1".  Purity adds one rounded term per
# cluster: cluster shares 0.4, 0.2, 0.3 and 0.1 of a perfect clustering sum
# to 1 + 2.2e-16.
_SCORE_MAX = 1.0 + 1e-9


class MetricVector(_Value):
    """Named scores in [0, 1], up to rounding, for one (test case, system) cell.

    Name order is meaningful: it is shared by every cell of a table and, for
    two-metric tables, reads as (precision-like, recall-like).
    """

    _compared = ("scores",)
    scores: Mapping[str, float]

    def __init__(self, scores: Mapping[str, float]):
        frozen: dict[str, float] = {}
        for name, value in scores.items():
            if not name:
                raise ValueError("empty metric name")
            value = float(value)
            if not 0.0 <= value <= _SCORE_MAX:
                raise ValueError(f"score {name}={value} outside [0, 1]")
            frozen[name] = value
        if not frozen:
            raise ValueError("metric vector has no scores")
        self.__dict__["scores"] = frozen

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.scores)

    def __getitem__(self, name: str) -> float:
        return self.scores[name]

    def values(self) -> tuple[float, ...]:
        return tuple(self.scores.values())


Column = tuple[float, ...]
_Columns = tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...], dict[tuple[str, str], Column]]


def _filed_columns(blocks: Iterable[Iterable[Sequence]], percent: bool = False) -> _Columns | None:
    """The one filer behind every ``ScoreTable``: dense columns from blocks of
    ``(cases, systems, metrics, scores)``, each checked whole, or None on any
    error, one from ``blocks`` too.  A duplicate or missing score shows in the counts."""
    cases, filed, n = {}, defaultdict(dict), 0
    try:
        for block_cases, systems, metrics, scores in blocks:
            scores = [float(s) / 100.0 for s in scores] if percent else list(map(float, scores))
            # The sum is NaN where any score is.
            if not (0.0 <= min(scores) and max(scores) <= _SCORE_MAX and 0.0 <= sum(scores)):
                return None
            for case, key, score in zip(block_cases, zip(systems, metrics), scores):
                filed[key][case] = score
            cases.update(dict.fromkeys(block_cases))
            n += len(scores)
        systems, metrics = map(dict.fromkeys, zip(*filed))
        for kind, ids in ("test case id", cases), ("system id", systems), ("metric id", metrics):
            _check_ids(kind, ids)
    except (ValueError, TypeError, AttributeError, csv.Error):
        return None
    # n rows fill every cell only when none repeats one.
    if not n == sum(map(len, filed.values())) == len(cases) * len(systems) * len(metrics) > 0:
        return None
    columns = {(s, m): tuple(map(filed[s, m].__getitem__, cases)) for s in systems for m in metrics}
    return tuple(cases), tuple(systems), tuple(metrics), columns


def _build_columns(
    rows: Iterable[tuple[int | None, str, str, str, float]],
    error: Callable[[str, int | None], ValueError] = lambda msg, line: ValidationError(msg),
) -> NoReturn:
    """Raise, as ``error(message, line)``, the first error in ``(line, case,
    system, metric, value)`` rows that ``_filed_columns`` refused."""
    cases, systems, metrics, seen = {}, {}, {}, set()
    for line, case, system, metric, value in rows:
        if not case or not system or not metric:
            raise error("empty test_case, system or metric field", line)
        value = float(value)
        if not 0.0 <= value <= _SCORE_MAX:
            raise error(f"score {value} outside [0, 1] for ({case}, {system}, {metric})", line)
        if (case, system, metric) in seen:
            raise error(f"duplicate score for ({case}, {system}, {metric})", line)
        seen.add((case, system, metric))
        cases[case] = systems[system] = metrics[metric] = None
    if not seen:
        raise error("no scores", None)
    for kind, ids in ("test case id", cases), ("system id", systems), ("metric id", metrics):
        _check_ids(kind, ids, lambda message: error(message, None))
    # Rows that pass every check above were refused for a short count.
    missing = next(key for key in itertools.product(cases, systems, metrics) if key not in seen)
    raise error("missing score for ({}, {}, {})".format(*missing), None)


def _row_columns(rows: list[tuple[str, str, str, float]]) -> _Columns:
    """The rows filed as one block, transposed inside the filer's checks."""
    return _filed_columns([zip(*rows, strict=True)]) or _build_columns((None, *row) for row in rows)


class ScoreTable(_Value):
    """Dense (test case x system x metric) score table for one collection.

    Scores are stored once, one tuple per (system, metric) column in case
    order; a cell's ``MetricVector`` is built only when ``cell()`` asks for
    it.  The constructor takes one metric vector per (case, system) cell.
    Equality compares the fields below, and the ``repr`` shows all but the
    columns; the case index derives from the cases on first use.
    """

    _compared = ("collection_id", "cases", "systems", "metric_names", "_columns")
    collection_id: str
    cases: tuple[str, ...]
    systems: tuple[str, ...]
    metric_names: tuple[str, ...]
    _columns: Mapping[tuple[str, str], Column]

    def __init__(
        self,
        collection_id: str,
        cases: Sequence[str],
        systems: Sequence[str],
        cells: Mapping[tuple[str, str], MetricVector],
    ):
        cases, systems = tuple(cases), tuple(systems)
        if len(set(cases)) != len(cases) or len(set(systems)) != len(systems):
            raise ValidationError("duplicate test case or system ids")
        names: tuple[str, ...] | None = None
        rows = []
        for case in cases:
            for system in systems:
                vector = cells.get((case, system))
                if vector is None:
                    raise ValidationError(f"missing cell for ({case}, {system})")
                if names is None:
                    names = vector.names
                elif vector.names != names:
                    raise ValidationError(
                        f"metric names differ in cell ({case}, {system}): "
                        f"{vector.names} vs {names}"
                    )
                rows += [(case, system, *score) for score in vector.scores.items()]
        if len(cells) != len(cases) * len(systems):
            raise ValidationError("score table has cells outside cases x systems")
        self.__dict__.update(vars(ScoreTable.from_rows(collection_id, rows)))

    @classmethod
    def from_rows(
        cls,
        collection_id: str,
        rows: Iterable[tuple[str, str, str, float]],
    ) -> "ScoreTable":
        """Build a table from (case, system, metric, value) tuples, in
        first-appearance order.  A duplicate, missing or out-of-range score
        raises ``ValidationError``."""
        return cls._of(collection_id, *_row_columns(list(rows)))

    @cached_property
    def _case_index(self) -> dict[str, int]:
        return {case: i for i, case in enumerate(self.cases)}

    def cell(self, case: str, system: str) -> MetricVector:
        i = self._case_index.get(case)
        if i is None or (system, self.metric_names[0]) not in self._columns:
            raise ValueError(f"unknown cell ({case}, {system})")
        return MetricVector._of({m: self._columns[system, m][i] for m in self.metric_names})

    def check_system(self, system: str) -> None:
        if (system, self.metric_names[0]) not in self._columns:
            raise ValueError(f"unknown system {system!r}")

    def scores_for(self, system: str, metric: str) -> Column:
        """Per-case scores of one system on one metric, in case order."""
        column = self._columns.get((system, metric))
        if column is None:
            self.check_system(system)  # an unknown system is named first
            raise ValueError(f"unknown metric {metric!r}")
        return column

    def select_metrics(self, names: Sequence[str]) -> "ScoreTable":
        """The same table restricted to the given metric names, in the given
        order; the score columns are shared, not copied."""
        names = tuple(dict.fromkeys(names))
        if not names:
            raise ValueError("no metrics selected")
        columns = {(s, m): self.scores_for(s, m) for s in self.systems for m in names}
        return ScoreTable._of(self.collection_id, self.cases, self.systems, names, columns)


SCORE_HEADER = ("test_case", "system", "metric", "score")
_SPANS_LINES = "quoted field spans lines"


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
    lines = _read_lines(source)
    columns = _filed_columns(_score_blocks(lines), percent) or _build_columns(
        _score_rows(lines, percent), ParseError
    )
    return ScoreTable._of(collection_id, *columns)


def _score_blocks(lines: list[str]) -> Iterator[list[list[str]]]:
    """The rows' ``(cases, systems, metrics, scores)`` fields, a block of
    lines at a time; ValueError or csv.Error where ``_score_rows`` raises.
    A block is split at its commas, or read by ``csv`` on its own when it
    holds a quote, a NUL, a blank line or a line longer than a csv field may be."""
    limit = csv.field_size_limit()
    for start in range(0, len(lines), _BLOCK_LINES):
        block = lines[start : start + _BLOCK_LINES]
        text = ",\n".join(block)
        if '"' in text or "\0" in text or "" in block or max(map(len, block)) > limit:
            # A record that reads past its own line, into the line after the
            # block too, has a quoted line break.
            records = csv.reader(lines[start : start + len(block) + 1])
            rows = list(itertools.islice(records, len(block)))
            if records.line_num != len(rows) or not set(map(len, rows)) <= {0, 4}:
                raise ValueError
            fields = list(itertools.chain.from_iterable(rows))
        else:
            fields = text.split(",")
            # Each "\n" starts a field: 4 to a line when just every fourth does.
            if len(fields) != 4 * len(block) or "".join(fields[::4]).count("\n") != len(block) - 1:
                raise ValueError
        fields = list(map(str.strip, fields))
        if start == 0:
            if not lines[0] or fields[:4] != list(SCORE_HEADER):
                raise ValueError
            del fields[:4]
        if fields:
            yield [fields[::4], fields[1::4], fields[2::4], fields[3::4]]


def _score_rows(lines: list[str], percent: bool) -> Iterator[tuple[int, str, str, str, float]]:
    """The ``(line, case, system, metric, score)`` records of the lines, read
    by ``csv`` after a checked header."""
    if not lines:
        raise ParseError("empty score file")
    rows = csv.reader(lines)
    try:
        for lineno, row in enumerate(rows, start=1):
            # A record that read past its own line has a quoted line break.
            if rows.line_num != lineno:
                raise ParseError(_SPANS_LINES, line=lineno)
            row = tuple(map(str.strip, row))
            if lineno == 1 and row != SCORE_HEADER:
                header = ",".join(SCORE_HEADER)
                raise ParseError(f"expected header {header}, got {','.join(row)}", line=1)
            if lineno == 1 or not row:
                continue
            if len(row) != 4:
                raise ParseError(f"expected 4 fields, got {len(row)}", line=lineno)
            case, system, metric, text = row
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"bad score {text!r}", line=lineno) from None
            yield lineno, case, system, metric, value / 100.0 if percent else value
    except csv.Error as exc:
        # Such as a field longer than csv.field_size_limit().
        raise ParseError(str(exc), line=rows.line_num) from None


def _csv_text(header: Sequence[object], rows: Iterable[Sequence[object]]) -> str:
    """The header and rows as CSV text with LF line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def serialize_score_table(table: ScoreTable) -> str:
    """Long-format CSV that parses back to an equal table (repr-exact scores)."""
    rows = (
        (case, system, name, repr(table.scores_for(system, name)[i]))
        for i, case in enumerate(table.cases)
        for system in table.systems
        for name in table.metric_names
    )
    return _csv_text(SCORE_HEADER, rows)
