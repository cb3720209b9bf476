"""Independent reference outputs for the CLI commands the benchmark runs.

Each expected output is recomputed here from the exact files the command
read, in plain Python: nothing from ``unanimity``, numpy or scipy is
imported, so a defect in the program cannot hide inside its own check.

What must agree, and how closely:

* integers, ids, improved-over sets, reference systems, categories and row
  order match exactly;
* printed floats (``%.6f`` or ``%g``) lie within ``FLOAT_TOL`` of the value
  computed here;
* threshold comparisons use the grid floats of the CLI's ``start:stop:step``
  rule, and the mean F and UIR values they compare are reproduced with the
  same float operations in the same order, so they agree bit for bit;
* a Wilcoxon p-value within ``P_VALUE_BAND`` of the significance level, and
  a parametric UIR within ``PARAMETRIC_BAND`` of a predictor threshold, may
  fall on either side, because their last bits depend on library routines.
"""

from __future__ import annotations

import argparse
import csv
import math
import operator
import re
from dataclasses import dataclass
from itertools import product
from pathlib import Path

FLOAT_TOL = 1e-6
P_VALUE_BAND = 1e-12
PARAMETRIC_BAND = 1e-9
EXACT_CUTOFF = 20
REGULARIZATION = 1e-9
NEAR_BASELINE_UIR = 0.9
ALPHA_GRID_POINTS = 101
SCORE_HEADER = ["test_case", "system", "metric", "score"]
CONCORDANT = "concordant_significant"
OPPOSITE = "opposite_significant"
NON_SIGNIFICANT = "non_significant"
PREDICTORS = ("uir", "f_delta", "parametric_uir")


# ---------------------------------------------------------------- matching


@dataclass(frozen=True)
class OneOf:
    """A cell that may take any of several values."""

    values: tuple


@dataclass(frozen=True)
class Line:
    """One expected output line.

    Each option is a ``(template, cells)`` pair, where ``{}`` in the template
    marks a cell: a ``str`` must match exactly, a ``float`` within
    ``FLOAT_TOL``, a ``OneOf`` by any of its values.  An ``optional`` line may
    be missing from the output.
    """

    options: tuple
    optional: bool = False


def line(template: str, *cells) -> Line:
    return Line(((template, cells),))


def _cell_matches(cell, text: str) -> bool:
    if isinstance(cell, OneOf):
        return any(_cell_matches(value, text) for value in cell.values)
    if isinstance(cell, float):
        try:
            return abs(float(text) - cell) <= FLOAT_TOL
        except ValueError:
            return False
    return text == cell


def _pattern(template: str) -> re.Pattern:
    return re.compile("(.*?)".join(re.escape(part) for part in template.split("{}")) + r"\Z")


def _line_matches(expected: Line, text: str) -> bool:
    for template, cells in expected.options:
        found = _pattern(template).match(text)
        if found and all(_cell_matches(c, t) for c, t in zip(cells, found.groups())):
            return True
    return False


def _describe(expected: Line) -> str:
    template, cells = expected.options[0]
    shown = [
        f"{c:.9g}" if isinstance(c, float) else f"oneof{c.values}" if isinstance(c, OneOf) else c
        for c in cells
    ]
    more = f" (or {len(expected.options) - 1} alternative(s))" if len(expected.options) > 1 else ""
    return repr(template.format(*shown)) + more


def compare_lines(expected: list[Line], text: str) -> list[str]:
    """Problems found comparing ``text`` against ``expected``; empty when it matches."""
    if text and not text.endswith("\n"):
        return ["output does not end with a newline"]
    actual = text.split("\n")[:-1]
    i = 0
    for exp in expected:
        if i < len(actual) and _line_matches(exp, actual[i]):
            i += 1
        elif not exp.optional:
            got = repr(actual[i]) if i < len(actual) else "end of output"
            return [f"line {i + 1}: got {got}, expected {_describe(exp)}"]
    if i < len(actual):
        return [f"line {i + 1}: unexpected {actual[i]!r}"]
    return []


@dataclass(frozen=True)
class Expectation:
    stdout: list
    stderr: list

    def problems(self, stdout: str, stderr: str) -> list[str]:
        found = compare_lines(self.stdout, stdout)
        want_err = "".join(s + "\n" for s in self.stderr)
        if stderr != want_err:
            found.append(f"stderr {stderr!r}, expected {want_err!r}")
        return found


# ---------------------------------------------------------------- numerics


def phi(x: float) -> float:
    """Standard normal distribution function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def parse_grid(text: str) -> list[float]:
    """Grid floats of the CLI's inclusive ``start:stop:step`` rule."""
    start, stop, step = (float(p) for p in text.split(":"))
    count = int((stop - start) / step + 1e-9) + 1
    return [round(start + i * step, 12) for i in range(count)]


def f_measure(p: float, r: float, alpha: float) -> float:
    """Weighted harmonic mean, 0 where a weighted component is 0."""
    if (alpha > 0.0 and p == 0.0) or (alpha < 1.0 and r == 0.0):
        return 0.0
    if alpha == 0.0:
        return r
    if alpha == 1.0:
        return p
    return 1.0 / (alpha / p + (1.0 - alpha) / r)


def wilcoxon(x, y) -> tuple[float, int, int]:
    """Two-sided signed-rank test: (p-value, doubled W+, doubled W-).

    Zero differences are dropped and tied magnitudes share average ranks.
    Up to ``EXACT_CUTOFF`` differences the tail is counted exactly over all
    sign assignments; above it the tie- and continuity-corrected normal
    approximation is used.
    """
    d = [a - b for a, b in zip(x, y) if a - b != 0.0]
    n = len(d)
    if n == 0:
        return 1.0, 0, 0
    order = sorted(range(n), key=lambda i: abs(d[i]))
    ranks2 = [0] * n  # ranks doubled, so averages of ties stay integers
    ties = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(d[order[j + 1]]) == abs(d[order[i]]):
            j += 1
        for k in range(i, j + 1):
            ranks2[order[k]] = i + j + 2
        ties.append(j - i + 1)
        i = j + 1
    w2_plus = sum(r for r, v in zip(ranks2, d) if v > 0)
    w2_minus = sum(r for r, v in zip(ranks2, d) if v < 0)
    w2 = min(w2_plus, w2_minus)
    if n <= EXACT_CUTOFF:
        total = sum(ranks2)
        low = min(w2, total - w2)
        if 2 * low >= total:
            return 1.0, w2_plus, w2_minus
        # Coefficients of prod(1 + x^r), packed as base-2^bits digits of one int.
        bits = n + 2
        poly = 1
        for r in ranks2:
            poly += poly << (bits * r)
        head = poly & ((1 << (bits * (low + 1))) - 1)
        # The digits sum to at most 2^n < 2^bits - 1, so the residue is their sum.
        tail = 2 * (head % ((1 << bits) - 1))
        return tail / 2**n, w2_plus, w2_minus
    mean = n * (n + 1) / 4.0
    tie_term = float(sum(t**3 - t for t in ties))
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
    z = (w2 / 2.0 - mean + 0.5) / math.sqrt(var)
    return min(1.0, 2.0 * phi(z)), w2_plus, w2_minus


def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    def step(a, b, fa, fm, fb, whole, tol, depth):
        m = (a + b) / 2.0
        lm, rm = (a + m) / 2.0, (m + b) / 2.0
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth == 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return step(a, m, fa, flm, fm, left, tol / 2.0, depth - 1) + step(
            m, b, fm, frm, fb, right, tol / 2.0, depth - 1
        )

    total = 0.0
    panels = 16
    width = (b - a) / panels
    for i in range(panels):
        lo, hi = a + i * width, a + (i + 1) * width
        flo, fmid, fhi = f(lo), f((lo + hi) / 2.0), f(hi)
        whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
        total += step(lo, hi, flo, fmid, fhi, whole, tol / panels, 40)
    return total


def bivariate_normal_cdf(a: float, b: float, rho: float) -> float:
    """P(X <= a, Y <= b) for standard normals with correlation |rho| < 1.

    Uses Plackett's identity, integrated over theta = asin(s):
    Phi(a) Phi(b) + 1/(2 pi) * int_0^asin(rho)
    exp(-(a^2 + b^2 - 2 a b sin t) / (2 cos^2 t)) dt.
    """
    if rho == 0.0:
        return phi(a) * phi(b)

    def integrand(t: float) -> float:
        c2 = math.cos(t) ** 2
        if c2 == 0.0:
            return 0.0
        return math.exp(-(a * a + b * b - 2.0 * a * b * math.sin(t)) / (2.0 * c2))

    extra = _adaptive_simpson(integrand, 0.0, math.asin(rho), 1e-12)
    return min(1.0, max(0.0, phi(a) * phi(b) + extra / (2.0 * math.pi)))


def parametric_uir(deltas: list[tuple[float, float]]) -> float:
    """Positive- minus negative-quadrant mass of a bivariate normal fitted to
    the paired differences (unbiased covariance, ridge of 1e-9 when the
    smallest eigenvalue falls below it)."""
    n = len(deltas)
    mx = sum(d[0] for d in deltas) / n
    my = sum(d[1] for d in deltas) / n
    sxx = sum((d[0] - mx) ** 2 for d in deltas) / (n - 1)
    syy = sum((d[1] - my) ** 2 for d in deltas) / (n - 1)
    sxy = sum((d[0] - mx) * (d[1] - my) for d in deltas) / (n - 1)
    smallest = (sxx + syy) / 2.0 - math.hypot((sxx - syy) / 2.0, sxy)
    if smallest < REGULARIZATION:
        sxx += REGULARIZATION
        syy += REGULARIZATION
    s1, s2 = math.sqrt(sxx), math.sqrt(syy)
    rho = min(1.0, max(-1.0, sxy / (s1 * s2)))
    # P(D1 >= 0, D2 >= 0) = P(Z1 <= m1/s1, Z2 <= m2/s2) for the standardized fit.
    return bivariate_normal_cdf(mx / s1, my / s2, rho) - bivariate_normal_cdf(
        -mx / s1, -my / s2, rho
    )


# ---------------------------------------------------------------- clusterings


def read_clustering(path: Path) -> dict[str, set[str]]:
    clusters: dict[str, set[str]] = {}
    for text in path.read_text(encoding="utf-8").splitlines():
        if text.startswith("#"):
            continue
        label, item = text.split("\t")
        clusters.setdefault(label, set()).add(item)
    return clusters


def _overlaps(system: dict[str, set[str]], gold: dict[str, set[str]]) -> dict[tuple[str, str], int]:
    """Contingency counts |c & g| over the pairs that share an item."""
    categories_of: dict[str, list[str]] = {}
    for g, members in gold.items():
        for item in members:
            categories_of.setdefault(item, []).append(g)
    counts: dict[tuple[str, str], int] = {}
    for c, members in system.items():
        for item in members:
            for g in categories_of.get(item, ()):
                counts[(c, g)] = counts.get((c, g), 0) + 1
    return counts


def purity_ip(system: dict[str, set[str]], gold: dict[str, set[str]]) -> list[tuple[str, float]]:
    """Purity and inverse purity from contingency counts: the best overlap of
    each cluster (category), summed, over the total membership count."""
    counts = _overlaps(system, gold)
    best_c: dict[str, int] = {}
    best_g: dict[str, int] = {}
    for (c, g), k in counts.items():
        best_c[c] = max(best_c.get(c, 0), k)
        best_g[g] = max(best_g.get(g, 0), k)
    n_sys = sum(len(m) for m in system.values())
    n_gold = sum(len(m) for m in gold.values())
    return [
        ("purity", sum(best_c.values()) / n_sys),
        ("inverse_purity", sum(best_g.values()) / n_gold),
    ]


def bcubed(system: dict[str, set[str]], gold: dict[str, set[str]]) -> list[tuple[str, float]]:
    """BCubed precision and recall of a single-assignment clustering, summed
    per contingency cell: each of the k items of cell (c, g) scores k/|c|
    (precision) and k/|g| (recall); unclustered gold items score 0."""
    counts = _overlaps(system, gold)
    precision = sum(k * k / len(system[c]) for (c, _), k in counts.items())
    recall = sum(k * k / len(gold[g]) for (_, g), k in counts.items())
    n_sys = sum(len(m) for m in system.values())
    n_gold = sum(len(m) for m in gold.values())
    return [("bcubed_precision", precision / n_sys), ("bcubed_recall", recall / n_gold)]


# ---------------------------------------------------------------- score tables


class Table:
    """A parsed score CSV with memoized per-system and per-pair results."""

    def __init__(self, path: Path):
        self.collection_id = path.stem
        rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
        if [f.strip() for f in rows[0]] != SCORE_HEADER:
            raise ValueError(f"{path}: unexpected header {rows[0]}")
        parsed = [tuple(f.strip() for f in row) for row in rows[1:] if row]
        self.cases = list(dict.fromkeys(r[0] for r in parsed))
        self.systems = list(dict.fromkeys(r[1] for r in parsed))
        self.metrics = list(dict.fromkeys(r[2] for r in parsed))
        raw: dict[tuple[str, str], dict[str, float]] = {}
        for case, system, metric, text in parsed:
            raw.setdefault((case, system), {})[metric] = float(text)
        self.cells = {key: tuple(v[m] for m in self.metrics) for key, v in raw.items()}
        self._means: dict[tuple[str, float], float] = {}
        self._uir: dict[tuple[str, str], float] = {}
        self._counts: dict[tuple[str, str], tuple[int, int, int]] = {}

    def column(self, system: str, metric: int) -> list[float]:
        return [self.cells[(case, system)][metric] for case in self.cases]

    def mean_f(self, system: str, alpha: float) -> float:
        """Mean over cases, in file order, of the per-case F of the two metrics."""
        key = (system, alpha)
        if key not in self._means:
            total = 0.0
            for case in self.cases:
                p, r = self.cells[(case, system)]
                total += f_measure(p, r, alpha)
            self._means[key] = total / len(self.cases)
        return self._means[key]

    def counts(self, a: str, b: str) -> tuple[int, int, int]:
        """Cases where a >= b on every metric, b >= a on every metric, neither."""
        key = (a, b)
        if key not in self._counts:
            n_a = n_b = n_inc = 0
            for case in self.cases:
                va, vb = self.cells[(case, a)], self.cells[(case, b)]
                a_geq = all(map(operator.ge, va, vb))
                b_geq = all(map(operator.le, va, vb))
                n_a += a_geq
                n_b += b_geq
                n_inc += not (a_geq or b_geq)
            self._counts[key] = (n_a, n_b, n_inc)
        return self._counts[key]

    def uir(self, a: str, b: str) -> float:
        if (a, b) not in self._uir:
            n_a, n_b, _ = self.counts(a, b)
            self._uir[(a, b)] = (n_a - n_b) / len(self.cases)
            self._uir[(b, a)] = -self._uir[(a, b)]
        return self._uir[(a, b)]

    def categories(self, a: str, b: str, level: float) -> set[str]:
        """Possible Wilcoxon categories of the pair (more than one only when a
        p-value sits within ``P_VALUE_BAND`` of the level)."""
        per_metric = []
        for m in range(2):
            p, w2_plus, w2_minus = wilcoxon(self.column(a, m), self.column(b, m))
            direction = 1 if w2_plus > w2_minus else -1
            sides = {p < level}
            if abs(p - level) <= P_VALUE_BAND:
                sides = {True, False}
            per_metric.append({direction if s else 0 for s in sides})
        out = set()
        for directions in product(*per_metric):
            if all(d == 0 for d in directions):
                out.add(NON_SIGNIFICANT)
            elif 1 in directions and -1 in directions:
                out.add(OPPOSITE)
            else:
                out.add(CONCORDANT)
        return out

    def parametric(self, a: str, b: str) -> float:
        deltas = [
            (self.cells[(c, a)][0] - self.cells[(c, b)][0], self.cells[(c, a)][1] - self.cells[(c, b)][1])
            for c in self.cases
        ]
        return parametric_uir(deltas)


# ---------------------------------------------------------------- commands


def _parser() -> argparse.ArgumentParser:
    """The CLI options the benchmark uses, with the CLI's documented defaults."""
    parser = argparse.ArgumentParser(prog="reference", add_help=False)
    sub = parser.add_subparsers(dest="command", required=True)
    scores = ("--scores", {"required": True})
    alpha = ("--alpha", {"type": float, "default": 0.5})
    level = ("--significance-level", {"type": float, "default": 0.05})
    threshold_grid = ("--grid", {"default": "-1:1:0.05"})
    commands = {
        "eval": [
            ("--system", {"action": "append", "required": True}),
            ("--gold", {"required": True}),
            ("--metrics", {"default": "purity_ip", "choices": ["purity_ip", "bcubed"]}),
        ],
        "compare": [
            scores,
            ("--a", {"required": True}),
            ("--b", {"required": True}),
            ("--parametric", {"action": "store_true"}),
            level,
        ],
        "rank": [scores, alpha, ("--uir-threshold", {"type": float, "default": 0.25})],
        "alpha-sweep": [scores, ("--grid", {"default": "0:1:0.01"})],
        "threshold-sweep": [scores, threshold_grid, alpha, level],
        "predict": [
            ("--reference", {"required": True}),
            ("--collections", {"nargs": "+", "required": True}),
            threshold_grid,
            alpha,
        ],
    }
    for command, options in commands.items():
        p = sub.add_parser(command, add_help=False)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def _range_cell(lo: int, hi: int, k: int):
    return float(lo / k) if lo == hi else OneOf(tuple(c / k for c in range(lo, hi + 1)))


class Reference:
    """Expected outputs of CLI commands run with ``cwd`` as working directory."""

    def __init__(self, cwd: Path):
        self.cwd = cwd
        self._tables: dict[tuple[str, bytes], Table] = {}
        self._parser = _parser()

    def table(self, name: str) -> Table:
        path = self.cwd / name
        key = (name, path.read_bytes())
        if key not in self._tables:
            self._tables[key] = Table(path)
        return self._tables[key]

    def expect(self, argv: list[str]) -> Expectation:
        args = self._parser.parse_args(argv)
        return getattr(self, "_" + args.command.replace("-", "_"))(args)

    def _eval(self, args) -> Expectation:
        gold = read_clustering(self.cwd / args.gold)
        gold_items = set().union(*gold.values())
        case_id = Path(args.gold).stem
        out = [line("test_case,system,metric,score")]
        err = []
        for path in args.system:
            system = read_clustering(self.cwd / path)
            system_id = Path(path).stem
            items = set().union(*system.values())
            if items - gold_items:
                err.append(
                    f"warning: {system_id}: {len(items - gold_items)} system item(s) "
                    "absent from gold (zero best-match contribution)"
                )
            if gold_items - items:
                err.append(f"warning: {system_id}: {len(gold_items - items)} gold item(s) unclustered")
            score = purity_ip if args.metrics == "purity_ip" else bcubed
            for name, value in score(system, gold):
                out.append(line("{},{},{},{}", case_id, system_id, name, value))
        return Expectation(out, err)

    def _compare(self, args) -> Expectation:
        table = self.table(args.scores)
        a, b = args.a, args.b
        n_a, n_b, n_inc = table.counts(a, b)
        out = [
            line("collection: {}", table.collection_id),
            line("cases: {}", str(len(table.cases))),
            line(f"{a} >=all {b}: " + "{}", str(n_a)),
            line(f"{b} >=all {a}: " + "{}", str(n_b)),
            line("incomparable: {}", str(n_inc)),
            line("UIR = {}", table.uir(a, b)),
        ]
        if len(table.metrics) == 2:
            level = args.significance_level
            out.append(
                line(
                    "wilcoxon category (level {}): {}",
                    level,
                    OneOf(tuple(sorted(table.categories(a, b, level)))),
                )
            )
        if args.parametric:
            out.append(line("parametric UIR = {}", table.parametric(a, b)))
        return Expectation(out, [])

    def _rank(self, args) -> Expectation:
        table = self.table(args.scores)
        means = {s: table.mean_f(s, args.alpha) for s in table.systems}
        out = [line("system,mean_f,improved_systems,reference_system,reference_uir")]
        err = []
        for s in sorted(table.systems, key=lambda s: (-means[s], s)):
            improved = sorted(o for o in table.systems if o != s and table.uir(s, o) > args.uir_threshold)
            ref, ref_uir = "-", 0.0
            for other in sorted(table.systems):
                if other != s and table.uir(other, s) > ref_uir:
                    ref, ref_uir = other, table.uir(other, s)
            out.append(
                line("{},{},{},{},{}", s, means[s], " ".join(improved), ref, ref_uir if ref != "-" else "-")
            )
            if ref != "-" and ref_uir >= NEAR_BASELINE_UIR:
                err.append(f"warning: {s} is improved near-unanimously by {ref} (UIR {ref_uir:g})")
        return Expectation(out, err)

    def _alpha_sweep(self, args) -> Expectation:
        table = self.table(args.scores)
        grid = parse_grid(args.grid)
        out = [line("system,alpha,mean_f")]
        for s in table.systems:
            out += [line("{},{},{}", s, alpha, table.mean_f(s, alpha)) for alpha in grid]
        return Expectation(out, [])

    def _threshold_sweep(self, args) -> Expectation:
        table = self.table(args.scores)
        systems = table.systems
        pairs = [(a, b) for a in systems for b in systems if a != b]
        cats = {}
        for i, a in enumerate(systems):
            for b in systems[i + 1 :]:
                cats[(a, b)] = cats[(b, a)] = table.categories(a, b, args.significance_level)
        alphas = [i / (ALPHA_GRID_POINTS - 1) for i in range(ALPHA_GRID_POINTS)]
        curves = {s: [table.mean_f(s, x) for x in alphas] for s in systems}
        all_alpha_pairs = {(a, b) for a, b in pairs if all(map(operator.gt, curves[a], curves[b]))}
        out = [line("t,accepted_ratio,concordant_ratio,opposite_ratio,all_alpha_ratio,f05_ratio,n_accepted")]
        for t in parse_grid(args.grid):
            accepted = [p for p in pairs if table.uir(*p) > t]
            k = len(accepted)
            if not k:
                out.append(line("{},{},{},{},{},{},{}", t, 0.0, 0.0, 0.0, 0.0, 0.0, "0"))
                continue
            ratios = []
            for category in (CONCORDANT, OPPOSITE):
                lo = sum(cats[p] == {category} for p in accepted)
                hi = sum(category in cats[p] for p in accepted)
                ratios.append(_range_cell(lo, hi, k))
            all_alpha = sum(p in all_alpha_pairs for p in accepted)
            f05 = sum(table.mean_f(a, args.alpha) - table.mean_f(b, args.alpha) > 0.0 for a, b in accepted)
            out.append(
                line("{},{},{},{},{},{},{}", t, k / len(pairs), *ratios, all_alpha / k, f05 / k, str(k))
            )
        return Expectation(out, [])

    def _predict(self, args) -> Expectation:
        tables = [self.table(name) for name in args.collections]
        stem = Path(args.reference).stem
        ref = next(t for t in tables if t.collection_id == stem)
        systems = ref.systems
        pairs = [(a, b) for a in systems for b in systems if a != b]
        target = {
            (a, b) for a, b in pairs if all(t.mean_f(a, args.alpha) > t.mean_f(b, args.alpha) for t in tables)
        }
        if not target:
            raise ValueError("no gold-consistent pairs: the generator must provide some")
        parametric = {}
        for i, a in enumerate(systems):
            for b in systems[i + 1 :]:
                parametric[(a, b)] = ref.parametric(a, b)
                parametric[(b, a)] = -parametric[(a, b)]
        scores = {
            "uir": ({p: ref.uir(*p) for p in pairs}, 0.0),
            "f_delta": ({(a, b): ref.mean_f(a, args.alpha) - ref.mean_f(b, args.alpha) for a, b in pairs}, 0.0),
            "parametric_uir": (parametric, PARAMETRIC_BAND),
        }
        out = [line("predictor,t,precision,recall")]
        for predictor in PREDICTORS:
            values, band = scores[predictor]
            for t in parse_grid(args.grid):
                sure = {p for p, v in values.items() if v > t + band}
                unsure = {p for p, v in values.items() if band and abs(v - t) <= band}
                options = set()
                optional = False
                for x in range(len(unsure & target) + 1):
                    for y in range(len(unsure - target) + 1):
                        size = len(sure) + x + y
                        if size == 0:
                            optional = True
                            continue
                        hits = len(sure & target) + x
                        options.add((hits / size, hits / len(target)))
                if options:
                    lines = tuple(
                        ("{},{},{},{}", (predictor, t, prec, rec)) for prec, rec in sorted(options)
                    )
                    out.append(Line(lines, optional))
        return Expectation(out, [])
