"""Tests of the benchmark's output check.

Run from the root of the tree: ``python3 -m pytest perfbench -q``.  The
tests that drive the CLI need this tree's ``src``.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import reference
import run
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def brute_force_p(x, y) -> float:
    d = [a - b for a, b in zip(x, y) if a - b != 0.0]
    mags = sorted(abs(v) for v in d)
    rank = {m: (mags.index(m) + 1 + len(mags) - mags[::-1].index(m)) / 2 for m in mags}
    ranks = [rank[abs(v)] for v in d]
    w_plus = sum(r for r, v in zip(ranks, d) if v > 0)
    w_obs = min(w_plus, sum(ranks) - w_plus)
    hits = 0
    for signs in product((0, 1), repeat=len(d)):
        w = sum(r for r, s in zip(ranks, signs) if s)
        hits += min(w, sum(ranks) - w) <= w_obs
    return hits / 2 ** len(d)


def test_exact_wilcoxon_matches_enumeration():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 11)
        x = [rng.choice([0.1, 0.2, 0.3, 0.5]) for _ in range(n)]
        y = [rng.choice([0.1, 0.2, 0.3, 0.5]) for _ in range(n)]
        p, _, _ = reference.wilcoxon(x, y)
        expected = brute_force_p(x, y) if any(a != b for a, b in zip(x, y)) else 1.0
        assert p == expected


def test_bivariate_normal_closed_forms():
    for rho in (-0.95, -0.5, 0.3, 0.8, 0.999):
        quadrant = 0.25 + math.asin(rho) / (2 * math.pi)
        assert abs(reference.bivariate_normal_cdf(0.0, 0.0, rho) - quadrant) < 1e-12
    assert reference.bivariate_normal_cdf(1.0, -0.5, 0.0) == reference.phi(1.0) * reference.phi(-0.5)
    # Symmetry P(X <= a, Y <= b) = P(X <= b, Y <= a), and the a -> inf limit.
    a, b, rho = 0.7, -1.3, 0.6
    assert abs(reference.bivariate_normal_cdf(a, b, rho) - reference.bivariate_normal_cdf(b, a, rho)) < 1e-12
    assert abs(reference.bivariate_normal_cdf(40.0, b, rho) - reference.phi(b)) < 1e-12


def test_grid_matches_cli_rule():
    assert reference.parse_grid("-1:1:0.05")[20] == 0.0
    assert len(reference.parse_grid("0:1:0.01")) == 101


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real CLI output on a small seeded table."""
    if not (SRC / "unanimity" / "cli.py").is_file():
        pytest.skip("no unanimity sources in this tree")
    directory = tmp_path_factory.mktemp("check")
    rng = random.Random(3)
    rows = workloads.score_rows(rng, 12, workloads.system_skills(rng, 5, 0.3, 0.8), {})
    workloads.write_scores(directory / "small.csv", rows)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    commands = {
        "rank": ["rank", "--scores", "small.csv"],
        "alpha": ["alpha-sweep", "--scores", "small.csv", "--grid", "0:1:0.25"],
        "threshold": ["threshold-sweep", "--scores", "small.csv"],
    }
    out = {}
    for key, argv in commands.items():
        proc = subprocess.run(
            [sys.executable, "-m", "unanimity.cli", *argv], cwd=directory, env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        out[key] = (argv, proc.stdout, proc.stderr)
    return reference.Reference(directory), out


def problems(ref, argv, stdout, stderr):
    return ref.expect(argv).problems(stdout, stderr)


def test_accepts_program_output(outputs):
    ref, out = outputs
    for argv, stdout, stderr in out.values():
        assert problems(ref, argv, stdout, stderr) == []


def test_rejects_float_moved_by_1e5(outputs):
    ref, out = outputs
    argv, stdout, stderr = out["alpha"]
    lines = stdout.splitlines(keepends=True)
    system, alpha, value = lines[2].rstrip("\n").split(",")
    lines[2] = f"{system},{alpha},{float(value) + 1e-5:.6f}\n"
    assert problems(ref, argv, "".join(lines), stderr)


def test_rejects_count_off_by_one(outputs):
    ref, out = outputs
    argv, stdout, stderr = out["threshold"]
    lines = stdout.splitlines(keepends=True)
    fields = lines[5].rstrip("\n").split(",")
    fields[-1] = str(int(fields[-1]) + 1)
    lines[5] = ",".join(fields) + "\n"
    assert problems(ref, argv, "".join(lines), stderr)


def test_rejects_swapped_rank_rows(outputs):
    ref, out = outputs
    argv, stdout, stderr = out["rank"]
    lines = stdout.splitlines(keepends=True)
    assert lines[1] != lines[2]
    lines[1], lines[2] = lines[2], lines[1]
    assert problems(ref, argv, "".join(lines), stderr)


def test_rejects_unexpected_stderr(outputs):
    ref, out = outputs
    argv, stdout, _ = out["rank"]
    expected_err = "".join(s + "\n" for s in ref.expect(argv).stderr)
    assert problems(ref, argv, stdout, expected_err + "warning: extra\n")


def test_repeated_digests_flags_changed_output(tmp_path):
    path = tmp_path / "digests.json"
    key = {"src_sha256": "a", "inputs_sha256": "b"}
    assert run.repeated_digests(path, key, {"rank": "1", "sweep": "2"}, clean=False) == []
    assert not path.exists()  # a run with problems records nothing
    assert run.repeated_digests(path, key, {"rank": "1", "sweep": "2"}, clean=True) == []
    assert run.repeated_digests(path, key, {"rank": "1", "sweep": "3"}, clean=True) == ["sweep"]
    # Other sources or inputs: a new record, nothing to compare against.
    assert run.repeated_digests(path, {**key, "src_sha256": "c"}, {"rank": "9", "sweep": "9"}, clean=True) == []
