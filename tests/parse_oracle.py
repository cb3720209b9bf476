"""The line-by-line clustering parser that block-wise ingest replaced.

``parse_clustering`` as it was before ``unanimity.data.parse_clustering``
checked and filed a block of lines at a time, with the helper it called,
copied unchanged.  The block-wise parser must return an equal result, with
the same label order, or raise the same exception with the same message and
line.
"""

from __future__ import annotations

from typing import TextIO

from unanimity.data import Clustering, ParseError, _read_lines


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
