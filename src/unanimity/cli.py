"""Command line interface.

Subcommands: ``eval`` scores clusterings against a gold standard, ``compare``
reports the unanimous-improvement breakdown of two systems, ``rank`` renders
the annotated F ranking, ``alpha-sweep`` and ``threshold-sweep`` trace the
sensitivity curves, ``predict`` runs the cross-collection protocol.  Outputs
are deterministic: the same inputs yield byte-identical bytes.
"""

from __future__ import annotations

import argparse
import math
import os
import stat
import sys
from pathlib import Path

# eval needs only data and metrics; every other handler imports the modules
# it runs, so that a process loads no other command's code.
from unanimity.data import (
    SCORE_HEADER,
    ParseError,
    ScoreTable,
    ValidationError,
    _check_ids,
    _csv_text,
    parse_clustering,
    parse_score_table,
    validate_pair,
)
from unanimity.metrics import MetricPair, metric_pair_columns, score_pair

MAX_GRID_POINTS = 100_000
METRIC_PAIRS = [pair.value for pair in MetricPair]


class _Path(str):
    """The value of an option that names a file: an empty one is refused."""


class _Input(_Path):
    """A file the command reads: ``--output`` may not name it."""


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _read(path: str) -> str:
    """The file's text.  Decoding the bytes, rather than reading in text
    mode, leaves every CR and a byte order mark for the parsers, which split
    lines themselves."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text (byte 0x{data[exc.start]:02x} at offset {exc.start})"
        ) from None


def _load_table(path: str, args: argparse.Namespace) -> ScoreTable:
    """Parse a score CSV, narrowed to the ``--metrics`` pair when one is given."""
    table = parse_score_table(_read(path), percent=args.percent, collection_id=Path(path).stem)
    if args.metrics is None:
        return table
    return table.select_metrics(metric_pair_columns(table, args.metrics))


def _parse_grid(text: str) -> list[float]:
    """Parse ``start:stop:step`` into an inclusive ascending grid of at most
    ``MAX_GRID_POINTS`` points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad grid {text!r}, expected start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad grid {text!r}, expected numeric start:stop:step") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"bad grid {text!r}, expected finite start:stop:step")
    if step <= 0.0:
        raise ValueError(f"grid step must be positive, got {step}")
    if stop < start:
        raise ValueError(f"grid stop {stop} below start {start}")
    # The slack keeps rounding from dropping ``stop``; ``min`` clamps what it lets past.
    steps = (stop - start) / step + 1e-9
    # Compared as a float: a tiny step makes ``steps`` overflow to inf.
    if steps >= MAX_GRID_POINTS:
        raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return [min(round(start + i * step, 12), stop) for i in range(int(steps) + 1)]


def _cmd_eval(args: argparse.Namespace) -> str:
    # A file's stem is its system id; a score table has one score per (case, id, metric).
    ids = [Path(path).stem for path in args.system]
    case_id = Path(args.gold).stem if args.case_id is None else args.case_id
    _check_ids("test case id", [case_id])
    _check_ids("system id", ids)
    for i, system_id in enumerate(ids):
        if system_id in ids[:i]:
            raise ValueError(f"two --system files have the system id {system_id!r}")
    gold = parse_clustering(_read(args.gold))
    rows = []
    for path, system_id in zip(args.system, ids):
        system = parse_clustering(_read(path))
        report = validate_pair(system, gold, strict=args.strict)
        # Notes only after scoring, so a refusal (bcubed's) prints none of them.
        vector = score_pair(system, gold, args.metrics)
        for note in report.notes:
            print(f"warning: {system_id}: {note}", file=sys.stderr)
        rows.extend((case_id, system_id, name, _fmt(vector[name])) for name in vector.names)
    return _csv_text(SCORE_HEADER, rows)


def _cmd_compare(args: argparse.Namespace) -> str:
    from unanimity.stats import _check_level, categorize_improvement, parametric_uir
    from unanimity.uir import unanimous_improvement_ratio

    _check_level(args.significance_level)
    table = _load_table(args.scores, args)
    result = unanimous_improvement_ratio(table, args.a, args.b)
    lines = [
        f"collection: {table.collection_id}",
        f"cases: {result.n_total}",
        f"{args.a} >=all {args.b}: {result.n_a_geq}",
        f"{args.b} >=all {args.a}: {result.n_b_geq}",
        f"incomparable: {result.n_incomparable}",
        f"UIR = {result.value:g}",
    ]
    if len(table.metric_names) == 2:
        category = categorize_improvement(
            table, args.a, args.b, args.significance_level
        )
        lines.append(
            f"wilcoxon category (level {args.significance_level:g}): {category.value}"
        )
    if args.parametric:
        lines.append(f"parametric UIR = {_fmt(parametric_uir(table, args.a, args.b))}")
    return "\n".join(lines) + "\n"


def _cmd_rank(args: argparse.Namespace) -> str:
    from unanimity.report import RankingRow, render_ranking_report

    table = _load_table(args.scores, args)
    rows = render_ranking_report(table, args.alpha, args.uir_threshold)
    for row in rows:
        if row.near_baseline:
            print(
                f"warning: {row.system} is improved near-unanimously by "
                f"{row.reference_system} (UIR {row.reference_uir:g})",
                file=sys.stderr,
            )
    # near_baseline, the last field, went to stderr above.
    fields = (
        (
            row.system,
            _fmt(row.mean_f),
            " ".join(row.improved_systems),
            row.reference_system if row.reference_system is not None else "-",
            _fmt(row.reference_uir) if row.reference_uir is not None else "-",
        )
        for row in rows
    )
    return _csv_text(RankingRow._fields[:-1], fields)


def _cmd_alpha_sweep(args: argparse.Namespace) -> str:
    from unanimity.experiments import alpha_sweep

    grid = _parse_grid(args.grid)
    table = _load_table(args.scores, args)
    sweep = alpha_sweep(table, grid)
    rows = (
        (system, _fmt(alpha), _fmt(value))
        for system in table.systems
        for alpha, value in zip(sweep.alphas, sweep.curves[system])
    )
    return _csv_text(("system", "alpha", "mean_f"), rows)


def _cmd_threshold_sweep(args: argparse.Namespace) -> str:
    from unanimity.experiments import ThresholdSweepRow, threshold_sweep

    grid = _parse_grid(args.grid)
    table = _load_table(args.scores, args)
    rows = threshold_sweep(table, grid, args.alpha, args.significance_level)
    # Every field but the closing count is a ratio or a threshold.
    return _csv_text(
        ThresholdSweepRow._fields, ((*map(_fmt, row[:-1]), row.n_accepted) for row in rows)
    )


def _cmd_predict(args: argparse.Namespace) -> str:
    from unanimity.experiments import predictor_curves

    grid = _parse_grid(args.grid)
    collections = [_load_table(path, args) for path in args.collections]
    # predictor_curves refuses a reference that is none of the collections.
    matches = (t for p, t in zip(args.collections, collections) if _same_file(p, args.reference))
    curves = predictor_curves(next(matches, None), collections, grid, args.alpha)
    rows = (
        (curve.predictor.value, _fmt(t), _fmt(precision), _fmt(recall))
        for curve in curves
        for t, precision, recall in curve.points
    )
    return _csv_text(("predictor", "t", "precision", "recall"), rows)


# Each option that several subcommands take, as ``add_argument`` keywords.
_PERCENT = (
    "--percent", dict(action="store_true", help="scores are percentages; divide by 100 on ingest")
)
_METRICS = (
    "--metrics", dict(choices=METRIC_PAIRS, help="narrow the score table to this metric pair")
)
_TABLE = (("--scores", dict(type=_Input, required=True, help="score CSV file")), _PERCENT, _METRICS)
_ALPHA = ("--alpha", dict(type=float, default=0.5, help="precision weight"))
_LEVEL = ("--significance-level", dict(type=float, default=0.05))
_GRID = dict(help="start:stop:step (default %(default)s)")
_OUTPUT = ("--output", dict(type=_Path, help="write the report here instead of stdout"))

# Each subcommand's handler, help and options in --help order; every one ends with --output.
_SUBCOMMANDS = {
    "eval": (_cmd_eval, "score system clusterings against a gold standard", (
        ("--system", dict(type=_Input, action="append", required=True,
                          help="system TSV file (repeatable)")),
        ("--gold", dict(type=_Input, required=True, help="gold standard TSV file")),
        ("--metrics", dict(choices=METRIC_PAIRS, default=MetricPair.PURITY_IP.value,
                           help="metric pair to compute (default purity_ip)")),
        ("--strict", dict(action="store_true", help="reject item-set mismatches")),
        ("--case-id", dict(help="test case id (default: gold file stem)")),
    )),
    "compare": (_cmd_compare, "unanimous-improvement breakdown of two systems", (
        *_TABLE,
        ("--a", dict(required=True, help="first system id")),
        ("--b", dict(required=True, help="second system id")),
        ("--parametric", dict(action="store_true", help="add the parametric UIR estimate")),
        _LEVEL,
    )),
    "rank": (_cmd_rank, "mean-F ranking annotated with UIR data", (
        *_TABLE, _ALPHA, ("--uir-threshold", dict(type=float, default=0.25)),
    )),
    "alpha-sweep": (_cmd_alpha_sweep, "mean-F curves over the alpha grid", (
        *_TABLE, ("--grid", dict(_GRID, default="0:1:0.01")),
    )),
    "threshold-sweep": (_cmd_threshold_sweep, "accepted-pair profile over UIR thresholds", (
        *_TABLE, ("--grid", dict(_GRID, default="-1:1:0.05")), _ALPHA, _LEVEL,
    )),
    "predict": (_cmd_predict, "cross-collection robustness prediction", (
        ("--reference", dict(type=_Input, required=True, help="reference collection CSV")),
        ("--collections", dict(type=_Input, nargs="+", required=True, help="all collection CSVs")),
        _PERCENT, _METRICS, ("--grid", dict(_GRID, default="-1:1:0.05")), _ALPHA,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unanimity",
        description="Clustering evaluation with weighting-robust system comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in (*options, _OUTPUT):
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def _error_category(exc: Exception) -> str:
    if isinstance(exc, ParseError):
        return "parse"
    if isinstance(exc, ValidationError):
        return "validation"
    if isinstance(exc, (OSError, UnicodeEncodeError)):
        return "io"
    return "invalid"


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file, by resolved path or ``os.path.samefile``."""
    return Path(a).resolve() == Path(b).resolve() or (
        os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)
    )


def _check_paths(args: argparse.Namespace) -> None:
    """Refuse an empty path, and an ``--output`` that names a file the command reads."""
    for dest, value in vars(args).items():
        for path in value if isinstance(value, list) else [value]:
            if isinstance(path, _Path) and not path:
                raise ValueError(f"--{dest} names no file")
            if isinstance(path, _Input) and args.output and _same_file(path, args.output):
                raise ValueError(f"--output {args.output} is also an input file")


def _write_output(path: Path, text: str) -> None:
    """Write the report to ``path``.

    A regular file, or a path not there yet, is replaced in one step through
    a temporary file beside it, so a failed write leaves no truncated
    report.  A symbolic link is followed and its target replaced, keeping
    the target's permission bits.  Anything else that exists (a terminal,
    ``/dev/null``, a pipe) is written in place.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    # The random part keeps a temporary file left by a killed run, whose
    # PID a container may hand out again, from blocking this one.
    temporary = os.path.join(
        directory, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    )
    try:
        fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from None
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            if mode is not None:
                os.fchmod(handle.fileno(), stat.S_IMODE(mode))
            handle.write(text)
        os.replace(temporary, target)
    except BaseException:
        Path(temporary).unlink(missing_ok=True)
        raise


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_paths(args)
        text = args.handler(args)
        if args.output:
            _write_output(Path(args.output), text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except (ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # The reader is gone: what stdout still buffers is dropped at exit.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        detail = " ".join(str(exc).split())
        print(f"error: {_error_category(exc)}: {detail}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: memory: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
