"""Memory budget of ``rank``, ``threshold-sweep``, ``predict`` and
``alpha-sweep`` at the end of the pair budget, and one early refusal.

Writes three seeded 1000-system x 20-case score tables (two metrics, random
scores in steps of 0.001) and runs, each as a child process of
``python -m unanimity.cli``: ``rank``, ``threshold-sweep`` and a 1001-point
``alpha-sweep`` on the first table, and ``predict`` with the first as
reference over all three.  For each it prints the child's wall time, its
own peak resident memory (``ru_maxrss`` from ``os.wait4``) and the sha256
of its stdout, which must equal the one pinned in ``STDOUT_SHA256``.  Then
``threshold-sweep --alpha 2`` on the first table must exit 1 with no stdout
and the one line ``REFUSAL`` on stderr, in under a tenth of the wall time of
the ``threshold-sweep`` above: the option is refused before the table is
read.  Exits 1 when a child fails, its stdout differs from the pinned one,
its peak is above its budget in ``PEAK_MB``, or the refusal is wrong or late.

Standard library only; the package must be importable by this interpreter:

    PYTHONPATH=src python tests/budget.py
"""

import hashlib
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SYSTEMS = 1000
CASES = 20
SEEDS = (0, 1, 2)
PEAK_MB = {"rank": 160, "threshold-sweep": 180, "predict": 138, "alpha-sweep": 130}
REFUSAL = b"error: invalid: alpha 2.0 outside [0, 1]\n"
# The same under Python 3.10 to 3.13.
STDOUT_SHA256 = {
    "rank": "1e502ff484f154d561ccefa07d5f31324caaaa6a8519082c2f3fac9463b43246",
    "threshold-sweep": "2a275d0fbc52c564676969af441996185d8088d72d7f2e9592053c2c2490a5a4",
    "predict": "4de346d7abe96fffaac50ea3cb537a7045614e33abc6413805aff35a60176fe4",
    "alpha-sweep": "34dffe81be964e1e5ddf7b3f67cc8af23f3dddb2a1db1b78020c3401af202715",
}


def write_table(path: Path, seed: int) -> None:
    rng = random.Random(seed)
    lines = ["test_case,system,metric,score"]
    for case in range(CASES):
        for system in range(SYSTEMS):
            for metric in ("precision", "recall"):
                lines.append(f"c{case:02d},s{system:04d},{metric},{rng.randrange(1001) / 1000!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run(argv: list[str], directory: Path) -> tuple[int, float, float, bytes, bytes]:
    """Exit status, wall time, peak MB, stdout and stderr of one child."""
    out, err = directory / "stdout", directory / "stderr"
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=stdout, stderr=stderr)
        # The child's own rusage; RUSAGE_CHILDREN would keep the largest
        # peak of every child waited for so far.
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux, in bytes on macOS.
    peak = usage.ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)
    return child.returncode, wall, peak, out.read_bytes(), err.read_bytes()


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        tables = [str(directory / f"budget{seed}.csv") for seed in SEEDS]
        for path, seed in zip(tables, SEEDS):
            write_table(Path(path), seed)
        commands = {
            "rank": ["rank", "--scores", tables[0]],
            "threshold-sweep": ["threshold-sweep", "--scores", tables[0]],
            "predict": ["predict", "--reference", tables[0], "--collections", *tables],
            "alpha-sweep": ["alpha-sweep", "--scores", tables[0], "--grid", "0:1:0.001"],
        }
        walls = {}
        for command, args in commands.items():
            argv = [sys.executable, "-m", "unanimity.cli", *args]
            code, wall, peak, stdout, stderr = run(argv, directory)
            walls[command] = wall
            digest = hashlib.sha256(stdout).hexdigest()
            print(
                f"{command} on {SYSTEMS} systems x {CASES} cases: {wall:.2f} s, "
                f"peak {peak:.1f} MB, stdout sha256 {digest}"
            )
            if code != 0:
                print(f"{command} exited {code}: {stderr.decode(errors='replace').strip()}")
                failed = True
            elif digest != STDOUT_SHA256[command]:
                print(f"stdout differs from the pinned sha256 {STDOUT_SHA256[command]}")
                failed = True
            elif peak > PEAK_MB[command]:
                print(f"peak {peak:.1f} MB is above the {PEAK_MB[command]} MB budget")
                failed = True
        argv = [sys.executable, "-m", "unanimity.cli", *commands["threshold-sweep"], "--alpha", "2"]
        code, wall, _, stdout, stderr = run(argv, directory)
        print(f"threshold-sweep --alpha 2: exit {code}, {wall:.2f} s")
        if (code, stdout, stderr) != (1, b"", REFUSAL):
            print(f"expected exit 1, no stdout and {REFUSAL!r} on stderr; got {stderr!r}")
            failed = True
        elif wall >= walls["threshold-sweep"] / 10:
            print(f"slower than a tenth of threshold-sweep's {walls['threshold-sweep']:.2f} s")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
