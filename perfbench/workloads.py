"""Seeded workloads: input files plus the commands a researcher types on them.

``generate(name, directory, seed)`` writes the inputs of one workload into
``directory`` and returns its steps.  The same seed gives the same files.
Scores written directly are quantised to ``QUANTUM`` so that tied scores,
EQUAL outcomes and zero paired differences really occur.  Each system keeps
its skill across the collections of a workload, so the mean-F orders of the
collections agree for well separated systems and ``predict`` always has
gold-consistent pairs to score.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import reference

QUANTUM = 1e-3


@dataclass(frozen=True)
class Command:
    """``python -m unanimity.cli <argv>``, run in the workload directory."""

    argv: tuple[str, ...]


@dataclass(frozen=True)
class Collect:
    """Concatenate the score CSVs printed by earlier steps into ``path``,
    keeping the header once, as a user does with ``head``/``tail``."""

    path: str
    sources: tuple[int, ...]


# ---------------------------------------------------------------- clusterings


def gold_categories(rng: random.Random, n_items: int, n_categories: int, prefix: str) -> list[list[str]]:
    """Items split into categories of heavy-tailed (log-normal) sizes."""
    weights = [rng.lognormvariate(0.0, 1.0) for _ in range(n_categories)]
    spare = n_items - n_categories
    sizes = [1 + int(w / sum(weights) * spare) for w in weights]
    for i in range(n_items - sum(sizes)):
        sizes[i % n_categories] += 1
    items = [f"{prefix}{i:06d}" for i in range(n_items)]
    rng.shuffle(items)
    out, start = [], 0
    for size in sizes:
        out.append(items[start : start + size])
        start += size
    return out


def system_clusters(
    rng: random.Random, categories: list[list[str]], noise: float, merge: float, split: float
) -> list[list[str]]:
    """A system's clustering of the gold items: categories split in two with
    probability ``split``, merged into an earlier cluster with probability
    ``merge``, then each item moved to a random cluster with probability
    ``noise``."""
    parts = []
    for category in categories:
        members = list(category)
        rng.shuffle(members)
        if len(members) > 1 and rng.random() < split:
            cut = rng.randint(1, len(members) - 1)
            parts += [members[:cut], members[cut:]]
        else:
            parts.append(members)
    rng.shuffle(parts)
    clusters: list[list[str]] = []
    for part in parts:
        if clusters and rng.random() < merge:
            clusters[rng.randrange(len(clusters))].extend(part)
        else:
            clusters.append(part)
    moved: list[list[str]] = [[] for _ in clusters]
    for i, cluster in enumerate(clusters):
        for item in cluster:
            moved[rng.randrange(len(clusters)) if rng.random() < noise else i].append(item)
    return [c for c in moved if c]


def as_sets(clusters: list[list[str]], prefix: str) -> dict[str, set[str]]:
    return {f"{prefix}{i:04d}": set(c) for i, c in enumerate(clusters)}


def write_clustering(path: Path, clusters: dict[str, set[str]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        "".join(f"{label}\t{item}\n" for label, members in clusters.items() for item in sorted(members)),
        encoding="utf-8",
    )


# ---------------------------------------------------------------- score tables


def quantise(x: float) -> float:
    return min(1.0, max(0.0, round(x / QUANTUM) * QUANTUM))


def write_scores(path: Path, rows: list[tuple[str, str, str, float]]) -> None:
    path.write_text(
        "test_case,system,metric,score\n" + "".join(f"{c},{s},{m},{v:.3f}\n" for c, s, m, v in rows),
        encoding="utf-8",
    )


def system_skills(rng: random.Random, n_systems: int, low: float, high: float) -> dict[str, tuple[float, float]]:
    """(quality, precision bias) per system; quality spans [low, high]."""
    return {
        f"sys{i:02d}": (low + (high - low) * i / (n_systems - 1) + rng.gauss(0.0, 0.01), rng.uniform(-0.08, 0.08))
        for i in range(n_systems)
    }


def score_rows(
    rng: random.Random, n_cases: int, skills: dict[str, tuple[float, float]], clones: dict[str, str]
) -> list[tuple[str, str, str, float]]:
    """Two-metric rows: per-case difficulty shared by all systems, a per-cell
    shift shared by both metrics, and independent per-metric noise.  A clone
    (a resubmitted run) copies its original's scores exactly."""
    rows = []
    for c in range(n_cases):
        case = f"case{c:04d}"
        difficulty = rng.gauss(0.0, 0.08)
        cell = {}
        for system, (quality, bias) in skills.items():
            shift = difficulty + rng.gauss(0.0, 0.03)
            cell[system] = (
                quantise(quality + bias + shift + rng.gauss(0.0, 0.03)),
                quantise(quality - bias + shift + rng.gauss(0.0, 0.03)),
            )
        for clone, original in clones.items():
            cell[clone] = cell[original]
        for system in list(skills) + list(clones):
            p, r = cell[system]
            rows += [(case, system, "purity", p), (case, system, "inverse_purity", r)]
    return rows


def check_consistent_pair(tables: list[dict[str, list[tuple[float, float]]]]) -> None:
    """Fail unless some system beats another on mean F in every collection,
    which ``predict`` needs to have anything to score."""
    means = [
        {s: sum(reference.f_measure(p, r, 0.5) for p, r in cells) / len(cells) for s, cells in t.items()}
        for t in tables
    ]
    systems = list(means[0])
    if not any(all(m[a] > m[b] for m in means) for a in systems for b in systems if a != b):
        raise RuntimeError("generator produced no gold-consistent pair")


def _cells(rows) -> dict[str, list[tuple[float, float]]]:
    out: dict[str, list[float]] = {}
    for _, system, _, value in rows:
        out.setdefault(system, []).append(value)
    return {s: list(zip(v[0::2], v[1::2])) for s, v in out.items()}


# ---------------------------------------------------------------- workloads


# The paper protocol at the scale of its test collections: (noise, merge,
# split) per system, from a careful system down to a noisy one, with one
# system that over-merges (low purity) and one that over-splits (low
# inverse purity) so that incomparable cases occur.
PAPER_SYSTEMS = {
    "sysA": (0.03, 0.05, 0.05),
    "sysB": (0.06, 0.30, 0.03),
    "sysC": (0.06, 0.03, 0.35),
    "sysD": (0.15, 0.12, 0.12),
    "sysE": (0.35, 0.20, 0.20),
}


def paper_pipeline(directory: Path, rng: random.Random) -> list:
    """The paper-scale protocol as a user types it: one ``eval`` per test
    case, the rows gathered into the collection's score CSV, then ``rank``,
    ``compare --parametric``, both sweeps and ``predict`` against two more
    collections of the same systems.  About 15 short processes: interpreter
    start and imports dominate, and the exact Wilcoxon path runs."""
    collections = []
    steps: list = []
    for collection in ("paper_a", "paper_b", "paper_c"):
        cells: dict[str, list[tuple[float, float]]] = {s: [] for s in PAPER_SYSTEMS}
        rows = []
        for c in range(10):
            case = f"case{c:02d}"
            gold = as_sets(gold_categories(rng, rng.randint(450, 550), rng.randint(15, 35), "it"), "g")
            categories = [sorted(m) for m in gold.values()]
            runs = {s: as_sets(system_clusters(rng, categories, *skill), "c") for s, skill in PAPER_SYSTEMS.items()}
            for system, clusters in runs.items():
                scores = [v for _, v in reference.purity_ip(clusters, gold)]
                if collection == "paper_a":
                    cells[system].append(tuple(round(v, 6) for v in scores))
                    write_clustering(directory / "runs" / case / f"{system}.tsv", clusters)
                else:
                    p, r = (quantise(v) for v in scores)
                    cells[system].append((p, r))
                    rows += [(case, system, "purity", p), (case, system, "inverse_purity", r)]
            if collection == "paper_a":
                write_clustering(directory / "gold" / f"{case}.tsv", gold)
                systems = [f"runs/{case}/{s}.tsv" for s in PAPER_SYSTEMS]
                steps.append(Command(("eval", "--gold", f"gold/{case}.tsv", *(a for s in systems for a in ("--system", s)))))
        if collection != "paper_a":
            write_scores(directory / f"{collection}.csv", rows)
        collections.append(cells)
    check_consistent_pair(collections)
    steps.append(Collect("paper_a.csv", tuple(range(len(steps)))))
    steps += [
        Command(("rank", "--scores", "paper_a.csv")),
        Command(("compare", "--scores", "paper_a.csv", "--a", "sysA", "--b", "sysB", "--parametric")),
        Command(("alpha-sweep", "--scores", "paper_a.csv")),
        Command(("threshold-sweep", "--scores", "paper_a.csv")),
        Command(("predict", "--reference", "paper_a.csv", "--collections", "paper_a.csv", "paper_b.csv", "paper_c.csv")),
    ]
    return steps


def long_table(directory: Path, rng: random.Random) -> list:
    """Many cases, few systems: 1000 cases x 20 systems x 2 metrics (40k
    rows) through ``rank`` and both sweeps.  Per-cell table access dominates
    (mean F, pairwise UIR, parsing), and Wilcoxon takes the normal
    approximation.  The dense score core must show here."""
    rows = score_rows(rng, 1000, system_skills(rng, 20, 0.45, 0.8), {})
    write_scores(directory / "long.csv", rows)
    return [
        Command(("rank", "--scores", "long.csv")),
        Command(("alpha-sweep", "--scores", "long.csv")),
        Command(("threshold-sweep", "--scores", "long.csv")),
    ]


def wide_table(directory: Path, rng: random.Random) -> list:
    """Few cases, many systems: three collections of 20 cases x 60 systems
    (1770 pairs) through ``rank``, ``threshold-sweep`` and ``predict``.  The
    same table layers as ``long-table`` with the shape turned around, so a
    change that helps many cases can be seen to cost many systems.  Exact
    Wilcoxon and the parametric UIR dominate.  ``sys59`` is a clone of
    ``sys17`` (zero differences, EQUAL outcomes, a regularised fit)."""
    skills = system_skills(rng, 59, 0.4, 0.85)
    tables = []
    for name in ("wide_a", "wide_b", "wide_c"):
        rows = score_rows(rng, 20, skills, {"sys59": "sys17"})
        write_scores(directory / f"{name}.csv", rows)
        tables.append(_cells(rows))
    check_consistent_pair(tables)
    return [
        Command(("rank", "--scores", "wide_a.csv")),
        Command(("threshold-sweep", "--scores", "wide_a.csv")),
        Command(("predict", "--reference", "wide_a.csv", "--collections", "wide_a.csv", "wide_b.csv", "wide_c.csv")),
    ]


def eval_large(directory: Path, rng: random.Random) -> list:
    """One large test case: a gold standard of 30k items in 800 categories,
    scored for purity/inverse purity on a single-assignment system and on an
    overlapping one that leaves some gold items unclustered (the lenient
    path), then for BCubed on the single-assignment system.  The
    O(K_sys x K_gold) purity path sits beside the per-item BCubed path on the
    same files; clustering parsing is the other large cost.  The sizes do not
    depend on the seed, so runs with different seeds do the same work."""
    categories = gold_categories(rng, 30000, 800, "it")
    write_clustering(directory / "large.tsv", as_sets(categories, "g"))
    write_clustering(directory / "single.tsv", as_sets(system_clusters(rng, categories, 0.05, 0.1, 0.1), "c"))
    overlap = system_clusters(rng, categories, 0.1, 0.15, 0.15)
    dropped = set(rng.sample([i for c in categories for i in c], 30))
    for cluster in overlap:
        extra = [item for item in cluster if rng.random() < 0.03]
        for item in extra:
            other = overlap[rng.randrange(len(overlap))]
            if item not in other:
                other.append(item)
    overlap = [[item for item in c if item not in dropped] for c in overlap]
    write_clustering(directory / "overlap.tsv", as_sets([c for c in overlap if c], "c"))
    return [
        Command(("eval", "--gold", "large.tsv", "--system", "single.tsv")),
        Command(("eval", "--gold", "large.tsv", "--system", "overlap.tsv")),
        Command(("eval", "--metrics", "bcubed", "--gold", "large.tsv", "--system", "single.tsv")),
    ]


WORKLOADS = {
    "paper-pipeline": paper_pipeline,
    "long-table": long_table,
    "wide-table": wide_table,
    "eval-large": eval_large,
}


def generate(name: str, directory: Path, seed: int) -> list:
    directory.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](directory, random.Random(f"{name}:{seed}"))
