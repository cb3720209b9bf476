"""Golden-bytes check of all six subcommands on the inputs in ``tests/data``.

Each command runs in a fresh interpreter from inside ``tests/data``, and its
stdout must equal ``tests/data/expected/<name>.out`` byte for byte, with an
empty stderr and exit status 0.  The inputs cover:

- ``scores.csv``: 24 cases, more than ``EXACT_CUTOFF``, so the Wilcoxon test
  takes its normal approximation; ``collinear`` and ``opposed`` differ from
  ``base`` with correlations near +1 and -1, which the closed-form parametric
  UIR must not depend on; ``tied`` has zero differences and ties.
- ``second.csv`` and ``third.csv``: two smaller collections (exact Wilcoxon)
  for ``predict``.  ``threshold_sweep_exact`` sweeps ``second.csv`` at level
  0.25: there ``base`` and ``tied`` differ with one sign on each metric, at
  p = 2/2^5 (significant) and at p = 2/2^3, equal to the level (not
  significant).
- ``approx.csv``: 60 cases, 4 systems, scores in steps of 0.01.  Eight of
  its twelve (pair, metric) columns are decided from their counts of
  positive and non-zero differences alone; the other four run the full
  normal approximation.  ``compare_approx`` pairs one of each kind into an
  opposite-significant verdict.
- ``crossing.csv``: 30 cases, 4 systems, for the all-alpha flag of
  ``threshold_sweep_crossing``.  The convexity bounds settle ``ahead`` over
  ``base`` as True and ``base`` over ``ahead`` as False.  They leave two
  pairs open, which compare the full 101-point curves: ``close`` beats
  ``base`` at every alpha, by one case's 0.01 on both metrics, and ``dip``
  beats ``base`` at the 11 evaluated alphas but not at 0.01 to 0.09.
- ``gold.tsv``, ``sys_a.tsv``, ``sys_b.tsv``: clusterings scored on both
  metric pairs.
- ``quoted.csv``: a score file as people write one by hand, with a system
  id that holds a comma (so it is quoted, and quoted again on output), a
  quoted score, spaces around fields and blank lines.
- ``gold_comments.tsv``, ``sys_comments.tsv``: a clustering pair with
  ``#`` comment lines, among them commented-out memberships, and an item
  id that starts with ``#``.

Stdout prints six decimals, so a one-ulp move of a library float cannot
show there.  ``float_digest`` therefore writes the ``repr`` of the library's
floats on the same inputs: every UIR matrix entry, the Wilcoxon results and
improvement categories at three levels, the parametric UIR of every pair,
the orthant probability of each pair's fitted difference model and of its
mirror (the same model with the mean negated), the alpha-sweep curves, the
threshold-sweep rows, the predictor-curve points and the four clustering
metrics.  It must equal
``tests/data/expected/library_floats.txt`` line for line.

Only the standard library is used, so the check also runs against an
installed package with no test extras::

    python tests/golden.py

``python tests/golden.py --floats`` prints the digest instead, to rewrite
the expected file after a deliberate move.

The command uses whichever ``unanimity`` the interpreter imports; set
``PYTHONPATH`` to the absolute path of a source tree's ``src`` to check that
tree instead (the commands run inside ``tests/data``).  It prints each
mismatch, and each expected file that no check reads, and exits 1 if there
is one.
"""

from __future__ import annotations

import subprocess
import sys
from itertools import combinations
from operator import sub
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
EXPECTED = DATA / "expected"

_CLUSTERINGS = ["--gold", "gold.tsv", "--system", "sys_a.tsv", "--system", "sys_b.tsv"]
COMMANDS = {
    "eval_purity_ip": ["eval", *_CLUSTERINGS],
    "eval_bcubed": ["eval", *_CLUSTERINGS, "--metrics", "bcubed"],
    "compare_collinear": ["compare", "--scores", "scores.csv", "--a", "base", "--b", "collinear", "--parametric"],
    "compare_opposed": ["compare", "--scores", "scores.csv", "--a", "base", "--b", "opposed", "--parametric"],
    "compare_tied": ["compare", "--scores", "scores.csv", "--a", "base", "--b", "tied", "--parametric"],
    "rank": ["rank", "--scores", "scores.csv"],
    "alpha_sweep": ["alpha-sweep", "--scores", "scores.csv"],
    "threshold_sweep": ["threshold-sweep", "--scores", "scores.csv"],
    "threshold_sweep_exact": ["threshold-sweep", "--scores", "second.csv", "--significance-level", "0.25"],
    "threshold_sweep_approx": ["threshold-sweep", "--scores", "approx.csv"],
    "compare_approx": ["compare", "--scores", "approx.csv", "--a", "close", "--b", "mixed"],
    "threshold_sweep_crossing": ["threshold-sweep", "--scores", "crossing.csv"],
    "predict": ["predict", "--reference", "scores.csv", "--collections", "scores.csv", "second.csv", "third.csv"],
    "rank_quoted": ["rank", "--scores", "quoted.csv"],
    "compare_quoted": ["compare", "--scores", "quoted.csv", "--a", "base", "--b", "tuned, v2", "--parametric"],
    "eval_comments": ["eval", "--gold", "gold_comments.tsv", "--system", "sys_comments.tsv"],
}


FLOATS = EXPECTED / "library_floats.txt"
_TABLES = ["scores.csv", "second.csv", "third.csv", "approx.csv", "crossing.csv"]
_LEVELS = (0.01, 0.05, 0.25)
_THRESHOLDS = [(i - 20) / 20 for i in range(41)]


def float_digest() -> str:
    """One line per library result on the inputs in ``tests/data``: what
    was computed, on which input, and the ``repr`` of the result."""
    import unanimity as u

    lines = []
    tables = {}
    for name in _TABLES:
        table = u.parse_score_table((DATA / name).read_text(), collection_id=Path(name).stem)
        tables[name] = table
        pair = u.metric_pair_columns(table)
        for (a, b), result in u.pairwise_uir_matrix(table).items():
            lines.append(f"uir {name} {a} {b} {result!r}")
        for a, b in combinations(table.systems, 2):
            for metric in table.metric_names:
                result = u.wilcoxon_signed_rank(table.scores_for(a, metric), table.scores_for(b, metric))
                lines.append(f"wilcoxon {name} {a} {b} {metric} {result!r}")
            categories = [u.categorize_improvement(table, a, b, level).value for level in _LEVELS]
            lines.append(f"category {name} {a} {b} {categories!r}")
            lines.append(f"parametric_uir {name} {a} {b} {u.parametric_uir(table, a, b)!r}")
            deltas = zip(*(map(sub, table.scores_for(a, m), table.scores_for(b, m)) for m in pair))
            model = u.fit_bivariate_normal(deltas)
            for quadrant, fitted in (("positive", model), ("negative", model.mirrored())):
                lines.append(f"orthant_probability {name} {a} {b} {quadrant} {u.orthant_probability(fitted)!r}")
        for system, curve in u.alpha_sweep(table).curves.items():
            lines.append(f"alpha_sweep {name} {system} {curve!r}")
        for row in u.threshold_sweep(table, _THRESHOLDS):
            lines.append(f"threshold_sweep {name} {row!r}")
    collections = [tables[name] for name in _TABLES[:3]]
    for curve in u.predictor_curves(collections[0], collections, _THRESHOLDS):
        for point in curve.points:
            lines.append(f"predictor_curves {curve.predictor.value} {point!r}")
    gold = u.parse_clustering((DATA / "gold.tsv").read_text())
    for name in ("sys_a.tsv", "sys_b.tsv"):
        system = u.parse_clustering((DATA / name).read_text())
        for metric in (u.purity, u.inverse_purity, u.bcubed_precision, u.bcubed_recall):
            lines.append(f"{metric.__name__} {name} {metric(system, gold)!r}")
    return "".join(line + "\n" for line in lines)


def float_mismatch() -> str | None:
    """The first line where ``float_digest`` differs from ``FLOATS``, or None."""
    expected = FLOATS.read_text().splitlines()
    actual = float_digest().splitlines()
    for number, (want, got) in enumerate(zip(expected, actual), 1):
        if want != got:
            return f"{FLOATS.name} line {number}: expected {want!r}, got {got!r}"
    if len(expected) != len(actual):
        return f"{FLOATS.name}: expected {len(expected)} lines, got {len(actual)}"
    return None


def run(name: str, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """Run one named command; stdout and stderr come back as bytes."""
    return subprocess.run(
        [sys.executable, "-m", "unanimity.cli", *COMMANDS[name]],
        cwd=DATA,
        env=env,
        capture_output=True,
        timeout=120,
    )


def mismatch(name: str, env: dict[str, str] | None = None) -> str | None:
    """Why the named command's run differs from its golden output, or None."""
    proc = run(name, env)
    if proc.returncode != 0 or proc.stderr:
        return f"exit {proc.returncode}, stderr {proc.stderr!r}"
    expected = (EXPECTED / f"{name}.out").read_bytes()
    if proc.stdout != expected:
        return f"stdout differs from {EXPECTED.name}/{name}.out"
    return None


def unchecked() -> list[str]:
    """Expected files that no command or digest is checked against."""
    return sorted(
        path.name for path in EXPECTED.iterdir() if path.stem not in COMMANDS and path != FLOATS
    )


def main() -> int:
    if sys.argv[1:] == ["--floats"]:
        sys.stdout.write(float_digest())
        return 0
    failed = 0
    for name in COMMANDS:
        reason = mismatch(name)
        if reason:
            failed += 1
            print(f"{name}: {reason}")
    for name in unchecked():
        print(f"{EXPECTED.name}/{name}: no command checks it")
    print(f"{len(COMMANDS) - failed} of {len(COMMANDS)} commands match")
    reason = float_mismatch()
    print(reason or f"{FLOATS.name} matches")
    return 1 if failed or reason or unchecked() else 0


if __name__ == "__main__":
    sys.exit(main())
