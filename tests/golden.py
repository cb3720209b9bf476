"""Golden-bytes check of all six subcommands on the inputs in ``tests/data``.

Each command runs in a fresh interpreter from inside ``tests/data``, and its
stdout must equal ``tests/data/expected/<name>.out`` byte for byte, with an
empty stderr and exit status 0.  The inputs cover:

- ``scores.csv``: 24 cases, more than ``EXACT_CUTOFF``, so the Wilcoxon test
  takes its normal approximation; ``collinear`` and ``opposed`` differ from
  ``base`` with correlations near +1 and -1, which puts the parametric UIR on
  the high-correlation quadrature; ``tied`` has zero differences and ties.
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
- ``gold.tsv``, ``sys_a.tsv``, ``sys_b.tsv``: clusterings scored on both
  metric pairs.

Only the standard library is used, so the check also runs against an
installed package with no test extras::

    python tests/golden.py

The command uses whichever ``unanimity`` the interpreter imports; set
``PYTHONPATH`` to the absolute path of a source tree's ``src`` to check that
tree instead (the commands run inside ``tests/data``).  It prints each
mismatch and exits 1 if there is one.
"""

from __future__ import annotations

import subprocess
import sys
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
    "predict": ["predict", "--reference", "scores.csv", "--collections", "scores.csv", "second.csv", "third.csv"],
}


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


def main() -> int:
    failed = 0
    for name in COMMANDS:
        reason = mismatch(name)
        if reason:
            failed += 1
            print(f"{name}: {reason}")
    print(f"{len(COMMANDS) - failed} of {len(COMMANDS)} commands match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
