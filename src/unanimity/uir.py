"""Unanimous-improvement comparison and the Unanimous Improvement Ratio.

One system improves another unanimously on a test case when it is at least
as good on every individual metric; such an improvement is preserved under
any relative weighting of the metrics.  The ratio (UIR) aggregates per-case
outcomes over a collection into a signed score in [-1, 1] measuring how
robustly one system beats another regardless of metric weighting.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations, compress
from typing import Iterator, Mapping, NamedTuple, Sequence

from unanimity.data import MetricVector, ScoreTable
from unanimity.metrics import mean_f_measure

# Ordered system pairs a pairwise computation may take on: 1000 systems.
MAX_PAIRS = 1_000_000


class RelationOutcome(Enum):
    """Four-way outcome of comparing two metric vectors on every metric."""

    A_OVER_B = "a_over_b"
    B_OVER_A = "b_over_a"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def unanimous_compare(qa: MetricVector, qb: MetricVector) -> RelationOutcome:
    """Compare two metric vectors metric by metric.

    ``A_OVER_B`` means qa >= qb on every metric with at least one strict
    gain; ``INCOMPARABLE`` means each side wins somewhere.  Comparisons are
    exact; callers wanting tolerance must round scores on ingest.
    """
    if set(qa.names) != set(qb.names):
        raise ValueError(f"metric sets differ: {qa.names} vs {qb.names}")
    a_geq = all(qa[name] >= qb[name] for name in qa.names)
    b_geq = all(qb[name] >= qa[name] for name in qa.names)
    if a_geq and b_geq:
        return RelationOutcome.EQUAL
    if a_geq:
        return RelationOutcome.A_OVER_B
    if b_geq:
        return RelationOutcome.B_OVER_A
    return RelationOutcome.INCOMPARABLE


class UirResult(NamedTuple):
    """Per-case relation counts and the ratio ``(n_a_geq - n_b_geq) / n_total``.

    Ties satisfy both directions and are counted in both ``n_a_geq`` and
    ``n_b_geq``; they cancel in the numerator.
    """

    n_a_geq: int
    n_b_geq: int
    n_incomparable: int
    n_total: int
    value: float

    @property
    def n_equal(self) -> int:
        return self.n_a_geq + self.n_b_geq + self.n_incomparable - self.n_total

    def reversed(self) -> "UirResult":
        """The same comparison from the other system's point of view."""
        return UirResult(
            self.n_b_geq, self.n_a_geq, self.n_incomparable, self.n_total, -self.value
        )


class _PackedRanks:
    """Score columns as packed ranks, for comparing systems case by case.

    Each score becomes its dense rank among the metric's distinct scores
    over ``systems`` (0.0 and -0.0 share one).  A column is one integer P
    with case c's rank in byte-aligned slot c, below the slot's top bit;
    ``top`` (G) sets every top bit.  ``((P_a | G) - P_b) & G`` then keeps
    slot c's top bit exactly when a >= b on case c: no slot borrows.
    """

    def __init__(self, table: ScoreTable, systems: Sequence[str]):
        systems = tuple(dict.fromkeys(systems))
        columns = [[table.scores_for(s, name) for s in systems] for name in table.metric_names]
        distinct = [sorted(set().union(*cols)) for cols in columns]
        width = (max(map(len, distinct)) - 1).bit_length() // 8 + 1
        self.n_total = len(table.cases)
        self.top = top = int.from_bytes((bytes(width - 1) + b"\x80") * self.n_total, "little")
        # Per system, one (P | G, P) per metric.
        self.columns: dict[str, list[tuple[int, int]]] = {s: [] for s in systems}
        for cols, values in zip(columns, distinct):
            code = {value: rank.to_bytes(width, "little") for rank, value in enumerate(values)}
            for system, col in zip(systems, cols):
                ranks = int.from_bytes(b"".join(map(code.__getitem__, col)), "little")
                self.columns[system].append((ranks | top, ranks))

    def masks(self, a: str, b: str) -> list[tuple[int, int]]:
        """Per metric, the slots of the cases where a >= b and where b >= a."""
        top = self.top
        pairs = zip(self.columns[a], self.columns[b])
        return [((qa - pb) & top, (qb - pa) & top) for (qa, pa), (qb, pb) in pairs]

    def uir(self, a: str, b: str) -> UirResult:
        """A case counts for a when a >= b on every metric, for b when b >= a
        on every metric, for both on a tie."""
        a_geq = b_geq = self.top
        for ge, le in self.masks(a, b):
            a_geq &= ge
            b_geq &= le
        n_a = a_geq.bit_count()
        n_b = b_geq.bit_count()
        n_inc = self.n_total - n_a - n_b + (a_geq & b_geq).bit_count()
        return UirResult(n_a, n_b, n_inc, self.n_total, (n_a - n_b) / self.n_total)


def unanimous_improvement_ratio(
    table: ScoreTable, sys_a: str, sys_b: str
) -> UirResult:
    """Aggregate per-case unanimous comparisons of two systems over a collection."""
    return _PackedRanks(table, (sys_a, sys_b)).uir(sys_a, sys_b)


def pairwise_uir_matrix(table: ScoreTable) -> dict[tuple[str, str], UirResult]:
    """All ordered system pairs.  Mirrored entries are built by reversal, so
    antisymmetry of the ratio holds exactly by construction.  A table with
    more than ``MAX_PAIRS`` ordered pairs raises ``ValueError`` before any
    pair is computed."""
    _, pairs, results = _pair_layout(table)
    matrix: dict[tuple[str, str], UirResult] = {}
    for (sys_a, sys_b), result in zip(pairs, results):
        matrix[sys_a, sys_b], matrix[sys_b, sys_a] = result, result.reversed()
    return matrix


def _check_pairs(n_systems: int) -> None:
    """Refuse more than ``MAX_PAIRS`` ordered pairs, before any is built."""
    n_pairs = n_systems * (n_systems - 1)
    if n_pairs > MAX_PAIRS:
        raise ValueError(
            f"table has {n_systems} systems, {n_pairs} ordered pairs; "
            f"at most {MAX_PAIRS} are allowed"
        )


def _pair_layout(table: ScoreTable) -> tuple[_PackedRanks, list, Iterator[UirResult]]:
    """Every system packed, once ``MAX_PAIRS`` is checked; each unordered
    pair (a, b) in ``combinations`` order; and its UIR, computed as the
    iterator is read.  Mirrors (b, a), where needed, follow the pairs in the
    same order, with swapped counts and negated values: UIR is antisymmetric."""
    systems = table.systems
    _check_pairs(len(systems))
    ranks = _PackedRanks(table, systems)
    pairs = list(combinations(systems, 2))
    return ranks, pairs, (ranks.uir(a, b) for a, b in pairs)


def best_rival(
    uir_over: Mapping[str, float], threshold: float = 0.0
) -> tuple[str, float] | None:
    """The rival with the highest UIR over a system, given ``{rival:
    UIR(rival, system)}``, as ``(rival_id, uir_value)``; None unless that
    value is strictly above the threshold, so a NaN threshold admits no
    rival.  Ties pick the smallest id."""
    # max keeps the first of equal values, so sorting first breaks ties.
    best = max(sorted(uir_over), key=uir_over.__getitem__, default=None)
    if best is None or not uir_over[best] > threshold:
        return None
    return best, uir_over[best]


def reference_system(
    table: ScoreTable, system: str, threshold: float = 0.0
) -> tuple[str, float] | None:
    """The rival that most unanimously improves over ``system``.

    Returns ``(rival_id, uir_value)`` maximizing UIR(rival, system), or None
    when no rival is strictly above the threshold.  Ties pick the smallest id.
    """
    ranks = _PackedRanks(table, (system, *table.systems))  # an unknown system raises first
    others = (other for other in table.systems if other != system)
    return best_rival({o: ranks.uir(o, system).value for o in others}, threshold)


def robust_set_uir(table: ScoreTable, threshold: float) -> set[tuple[str, str]]:
    """Ordered system pairs whose UIR strictly exceeds the threshold."""
    _, pairs, results = _pair_layout(table)
    values = [result.value for result in results]
    return {p for p, v in zip(pairs, values) if v > threshold} | {
        (b, a) for (a, b), v in zip(pairs, values) if -v > threshold
    }


def robust_set_f(table: ScoreTable, threshold: float, alpha: float = 0.5) -> set[tuple[str, str]]:
    """Ordered system pairs whose mean-F difference strictly exceeds the threshold."""
    return _f_gain_set([{s: mean_f_measure(table, s, alpha) for s in table.systems}], threshold)


def _f_gains(means: Sequence[Mapping[str, float]], pairs: list, threshold: float = 0.0) -> list:
    """Whether each pair (a, b), then each mirror (b, a), has a mean-F gap
    above ``threshold`` in every mapping of ``means``; b - a == -(a - b) exactly."""
    return [all(s * (m[a] - m[b]) > threshold for m in means) for s in (1, -1) for a, b in pairs]


def _f_gain_set(means: Sequence[Mapping[str, float]], threshold: float) -> set[tuple[str, str]]:
    """The ordered pairs ``_f_gains`` admits, once ``MAX_PAIRS`` is checked."""
    _check_pairs(len(means[0]))
    pairs = list(combinations(means[0], 2))
    ordered = (p[::s] for s in (1, -1) for p in pairs)
    return set(compress(ordered, _f_gains(means, pairs, threshold)))
