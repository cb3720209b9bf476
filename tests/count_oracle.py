"""Plain-Python reference versions of the clustering scores and the score
table builder.

Purity and inverse purity each count the overlaps |c & g| in their own
direction.  The two BCubed scores each walk the sorted items and intersect
each item's cluster with its category, so they share no counting code with
``unanimity.metrics``.  The score table is indexed by one ``(case, system,
metric)`` key per row, with CSV rows numbered by record.  The arithmetic is
the same, so the tests hold the package to them with ``==``.
"""

from __future__ import annotations

import csv
import itertools
from collections import Counter
from itertools import chain

from unanimity.data import SCORE_HEADER, Clustering, ParseError, ScoreTable, ValidationError
from unanimity.metrics import _check_nonempty


def _labels_by_item(clustering: Clustering) -> dict[str, list[str]]:
    labels: dict[str, list[str]] = {}
    for label, members in clustering.clusters.items():
        for item in members:
            labels.setdefault(item, []).append(label)
    return labels


def purity(system: Clustering, gold: Clustering) -> float:
    _check_nonempty(system, gold)
    categories_of = _labels_by_item(gold)
    n = system.n
    total = 0.0
    for label in system.labels:
        cluster = system.clusters[label]
        row = Counter(chain.from_iterable(filter(None, map(categories_of.get, cluster))))
        best = max(row.values()) / len(cluster) if row else 0.0
        total += len(cluster) / n * best
    return total


def inverse_purity(system: Clustering, gold: Clustering) -> float:
    _check_nonempty(system, gold)
    return purity(gold, system)


def _bcubed_parts(system: Clustering, gold: Clustering):
    """Item -> cluster and item -> category maps, and |c & g| by set
    intersection; the checks and their order are the package's."""
    _check_nonempty(system, gold)
    labels = [_labels_by_item(system), _labels_by_item(gold)]
    if any(len(found) > 1 for side in labels for found in side.values()):
        raise ValueError("overlap unsupported for bcubed; use purity_ip")
    absent = sorted(system.items - gold.items)
    if absent:
        raise ValidationError("system items absent from gold: " + " ".join(absent))
    cluster_of, category_of = ({item: found[0] for item, found in side.items()} for side in labels)

    def overlap(c: str, g: str) -> int:
        return len(system.clusters[c] & gold.clusters[g])

    return cluster_of, category_of, overlap


def bcubed_precision(system: Clustering, gold: Clustering) -> float:
    cluster_of, category_of, overlap = _bcubed_parts(system, gold)
    clusters = system.clusters
    total = 0.0
    for item in sorted(cluster_of):
        c = cluster_of[item]
        total += overlap(c, category_of[item]) / len(clusters[c])
    return total / len(cluster_of)


def bcubed_recall(system: Clustering, gold: Clustering) -> float:
    cluster_of, category_of, overlap = _bcubed_parts(system, gold)
    categories = gold.clusters
    total = 0.0
    for item in sorted(category_of):
        g = category_of[item]
        c = cluster_of.get(item)
        if c is not None:
            total += overlap(c, g) / len(categories[g])
    return total / len(category_of)


def build_columns(rows, error=lambda msg, line: ValidationError(msg)):
    """``data._build_columns`` with one ``(case, system, metric)`` key per row."""
    cases: dict[str, None] = {}
    systems: dict[str, None] = {}
    metrics: dict[str, None] = {}
    scores: dict[tuple[str, str, str], float] = {}
    for line, case, system, metric, value in rows:
        if not case or not system or not metric:
            raise error("empty test_case, system or metric field", line)
        value = float(value)
        if not 0.0 <= value <= 1.0 + 1e-9:  # rounding slack, as in MetricVector
            raise error(f"score {value} outside [0, 1] for ({case}, {system}, {metric})", line)
        key = (case, system, metric)
        if key in scores:
            raise error(f"duplicate score for ({case}, {system}, {metric})", line)
        scores[key] = value
        cases[case] = systems[system] = metrics[metric] = None
    if not scores:
        raise error("no scores", None)
    if len(scores) != len(cases) * len(systems) * len(metrics):
        missing = next(k for k in itertools.product(cases, systems, metrics) if k not in scores)
        raise error("missing score for ({}, {}, {})".format(*missing), None)
    columns = {(s, m): tuple([scores[c, s, m] for c in cases]) for s in systems for m in metrics}
    return tuple(cases), tuple(systems), tuple(metrics), columns


def from_rows(collection_id: str, rows) -> ScoreTable:
    return ScoreTable._of(collection_id, *build_columns((None, *row) for row in rows))


def parse_score_table(text: str, percent: bool = False, collection_id: str = "") -> ScoreTable:
    """The record-numbered parser, for text whose records each fit on one
    line and hold no carriage return; there it numbers lines as the file
    does."""
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    rows = csv.reader(lines)
    header = next(rows, None)
    if header is None:
        raise ParseError("empty score file")
    header = tuple(part.strip() for part in header)
    if header != SCORE_HEADER:
        raise ParseError(
            f"expected header {','.join(SCORE_HEADER)}, got {','.join(header)}",
            line=1,
        )

    def scores():
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(f"expected 4 fields, got {len(row)}", line=lineno)
            case, system, metric, text = (part.strip() for part in row)
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"bad score {text!r}", line=lineno) from None
            yield lineno, case, system, metric, value / 100.0 if percent else value

    return ScoreTable._of(collection_id, *build_columns(scores(), ParseError))
