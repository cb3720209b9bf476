"""Reference versions of code that now reuses a single definition.

``gold_consistent_pairs`` compared per-collection means itself instead of
intersecting ``robust_set_f`` at threshold 0, ``threshold_means`` is the
two passes ``threshold_sweep`` made (the alpha-grid sweep, then one mean F
per system at its own alpha), and ``baseline_combined`` built both
baselines' clusters again.  The arithmetic is the same, so the tests hold
the package to them with ``==``.
"""

from __future__ import annotations

from unanimity.data import Clustering
from unanimity.experiments import alpha_grid, alpha_sweep
from unanimity.metrics import mean_f_measure


def gold_consistent_pairs(tables, alpha=0.5):
    if len(tables) < 2:
        raise ValueError("need at least 2 collections")
    base = set(tables[0].systems)
    for table in tables[1:]:
        if set(table.systems) != base:
            raise ValueError("system sets differ across collections")
    means = [{s: mean_f_measure(table, s, alpha) for s in table.systems} for table in tables]
    systems = tables[0].systems
    out = set()
    for a in systems:
        for b in systems:
            if a != b and all(m[a] > m[b] for m in means):
                out.add((a, b))
    return out


def threshold_means(table, alpha=0.5):
    """Each system's mean-F curve over the 101-point grid, and its mean F
    at ``alpha``."""
    curves = alpha_sweep(table, alpha_grid()).curves
    means = {s: mean_f_measure(table, s, alpha) for s in table.systems}
    return curves, means


def baseline_combined(items):
    items = sorted(set(items))
    if not items:
        raise ValueError("empty item set")
    clusters = {f"b1_{item}": frozenset({item}) for item in items}
    clusters["b100_all"] = frozenset(items)
    return Clustering(clusters)
