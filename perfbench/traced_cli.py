"""Run the unanimity CLI with spans around its public functions, from outside.

Usage: ``python traced_cli.py TRACE_JSON [cli arguments...]``

The program is not changed: after ``unanimity.cli`` is imported, every public
module-level function of the ``unanimity`` modules is replaced, at every
module that holds a reference to it, by a wrapper that records name, start,
end and parent span.  ``cli.main`` then runs as usual, stdout and stderr
untouched, and the aggregate (calls, inclusive and self time per function,
plus a few counts read from return values) is written to TRACE_JSON.
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

# Called once per table cell or cluster pair: a span each would cost more
# than the work it measures.
PER_CELL = {"f_measure", "unanimous_compare", "cluster_precision"}
SRC = Path(__file__).resolve().parent.parent / "src"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = [-1]
        self.counts = {}

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name: str, on_result):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1]]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def summary(self) -> dict:
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        functions = {}
        for (name, start, end, _), inner in zip(self.spans, children):
            calls, total, self_time = functions.get(name, (0, 0.0, 0.0))
            functions[name] = (calls + 1, total + end - start, self_time + end - start - inner)
        return {"functions": functions, "counts": self.counts, "spans": len(self.spans)}


def _result_counters(tracer: Tracer, stats) -> dict:
    """Counts read from return values; a field a later version drops is skipped."""
    cutoff = getattr(stats, "EXACT_CUTOFF", None)

    def wilcoxon(result):
        n = getattr(result, "n_effective", None)
        if n == 0:
            tracer.count("stats.wilcoxon.zero_effective", 1)
        elif n is not None and cutoff is not None:
            tracer.count("stats.wilcoxon.exact" if n <= cutoff else "stats.wilcoxon.approx", 1)

    def table_rows(table):
        try:
            tracer.count("data.parse_score_table.rows", len(table.cases) * len(table.systems) * len(table.metric_names))
        except (AttributeError, TypeError):
            pass

    def memberships(clustering):
        try:
            tracer.count("data.parse_clustering.memberships", clustering.n)
        except AttributeError:
            pass

    return {
        "stats.wilcoxon_signed_rank": wilcoxon,
        "data.parse_score_table": table_rows,
        "data.parse_clustering": memberships,
    }


def install(tracer: Tracer) -> None:
    """Wrap each public function once and rebind it wherever it is imported."""
    modules = [m for n, m in sys.modules.items() if n == "unanimity" or n.startswith("unanimity.")]
    hooks = _result_counters(tracer, sys.modules.get("unanimity.stats"))
    wrapped = {}
    for module in modules:
        for attr, value in list(vars(module).items()):
            if not isinstance(value, types.FunctionType):
                continue
            home = getattr(value, "__module__", "") or ""
            if not home.startswith("unanimity.") or value.__name__.startswith("_") or value.__name__ in PER_CELL:
                continue
            if value not in wrapped:
                name = f"{home.rsplit('.', 1)[-1]}.{value.__name__}"
                wrapped[value] = tracer.wrap(value, name, hooks.get(name))
            setattr(module, attr, wrapped[value])


def main() -> int:
    out_path = Path(sys.argv[1])
    tracer = Tracer()
    start = time.perf_counter()
    import unanimity.cli

    imported = time.perf_counter()
    tracer.spans.append(["cli.import", start, imported, -1])
    if SRC not in Path(unanimity.cli.__file__).resolve().parents:
        print(f"error: unanimity imported from {unanimity.cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    install(tracer)
    try:
        code = unanimity.cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        end = time.perf_counter()
        import json

        summary = tracer.summary()
        summary["inproc_s"] = end - T0
        out_path.write_text(json.dumps(summary), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
