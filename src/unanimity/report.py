"""Ranking report pairing a mean-F ordering with pairwise robustness data.

The unanimous relation admits incomparable pairs, so UIR is never
linearized into a ranking of its own.  Systems are ordered by mean F and
annotated with which rivals they improve robustly and which rival most
robustly improves on them.
"""

from __future__ import annotations

from typing import NamedTuple

from unanimity.data import ScoreTable
from unanimity.metrics import mean_f_measure
from unanimity.uir import _pair_layout, best_rival

# A rival winning on at least 90% of cases net suggests the system behaves
# like a dominated baseline.
NEAR_BASELINE_UIR = 0.9


class RankingRow(NamedTuple):
    """One system's line in the ranking report."""

    system: str
    mean_f: float
    improved_systems: tuple[str, ...]
    reference_system: str | None
    reference_uir: float | None
    near_baseline: bool


def render_ranking_report(
    table: ScoreTable,
    alpha: float = 0.5,
    uir_threshold: float = 0.25,
) -> list[RankingRow]:
    """Rows sorted by mean F descending, ties broken by system id.

    ``improved_systems`` lists rivals improved with UIR above the threshold;
    ``reference_system`` is the rival with the highest UIR over this system,
    when positive.  ``near_baseline`` flags reference UIR at or above 0.9.
    A threshold outside [-1, 1], NaN included, raises ``ValueError``.
    """
    if not -1.0 <= uir_threshold <= 1.0:
        raise ValueError(f"UIR threshold {uir_threshold} outside [-1, 1]")
    _, pairs, results = _pair_layout(table)
    means = {s: mean_f_measure(table, s, alpha) for s in table.systems}
    # uir_over[s][o] is UIR(o, s); UIR(s, o) is its negation.
    uir_over: dict[str, dict[str, float]] = {s: {} for s in table.systems}
    for (sys_a, sys_b), result in zip(pairs, results):
        uir_over[sys_b][sys_a], uir_over[sys_a][sys_b] = result.value, -result.value
    rows = []
    for system in sorted(table.systems, key=lambda s: (-means[s], s)):
        over = uir_over.pop(system)
        improved = tuple(sorted(other for other, value in over.items() if -value > uir_threshold))
        ref_id, ref_value = best_rival(over) or (None, None)
        near = ref_value is not None and ref_value >= NEAR_BASELINE_UIR
        rows.append(RankingRow(system, means[system], improved, ref_id, ref_value, near))
    return rows
