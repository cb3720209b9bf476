"""Memory budget of ``rank`` at the end of the pair budget.

Writes a seeded 1000-system x 20-case score table (two metrics, random
scores in steps of 0.001), runs ``python -m unanimity.cli rank`` on it as a
child process, and prints the child's wall time, its peak resident memory
(``ru_maxrss`` of the waited-for children) and the sha256 of its stdout.
Exits 1 when the child fails or its peak is above ``PEAK_MB``.

Standard library only; the package must be importable by this interpreter:

    PYTHONPATH=src python tests/budget.py
"""

import hashlib
import random
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SYSTEMS = 1000
CASES = 20
SEED = 0
PEAK_MB = 160


def write_table(path: Path) -> None:
    rng = random.Random(SEED)
    lines = ["test_case,system,metric,score"]
    for case in range(CASES):
        for system in range(SYSTEMS):
            for metric in ("precision", "recall"):
                lines.append(f"c{case:02d},s{system:04d},{metric},{rng.randrange(1001) / 1000!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        table = Path(directory) / "budget.csv"
        write_table(table)
        argv = [sys.executable, "-m", "unanimity.cli", "rank", "--scores", str(table)]
        start = time.perf_counter()
        child = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        wall = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux, in bytes on macOS.
    scale = 2**20 if sys.platform == "darwin" else 2**10
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / scale
    digest = hashlib.sha256(child.stdout).hexdigest()
    print(f"rank on {SYSTEMS} systems x {CASES} cases: {wall:.2f} s, peak {peak:.1f} MB, stdout sha256 {digest}")
    if child.returncode != 0:
        print(f"rank exited {child.returncode}: {child.stderr.decode(errors='replace').strip()}")
        return 1
    if peak > PEAK_MB:
        print(f"peak {peak:.1f} MB is above the {PEAK_MB} MB budget")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
