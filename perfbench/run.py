"""Benchmark of the unanimity CLI on seeded workloads.

Usage (from the root of the tree under test)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all    # every workload, both modes

A run generates the workload's inputs from the seed, samples the set-up
cost (a fresh interpreter importing ``unanimity.cli``), then runs the
workload's command sequence in a closed loop with one client, pass after
pass, until ``--seconds`` have elapsed and at least ``MIN_TIMED_COMMANDS``
commands have been timed.  Each command is a fresh
``python -m unanimity.cli`` process on this tree's ``src``; its stdout and
stderr are checked against an independent reference (``reference.py``) and
its output digest must repeat in every pass, and in every later run of the
same seed on the same sources.

Times (metrics named ``*_s``) are reported in reference seconds: each
process's measured wall time times ``PROBE_REF_S`` over the mean of the
speed probes run just before and just after it.  The host's speed drifts
by up to half within minutes, and the probe, whose cost the program cannot
change, moves with it.  It follows the CLI only in part: a scaled command
time still varies by 10-15% from one run of it to the next, and in some
periods the probe ran a fifth faster while the CLI did not.  Unscaled times
and the probes are kept in the run record.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced passes with passes run under
``traced_cli.py`` and reports the per-layer metrics.  The last line of
stdout is one JSON object: ``correct``, ``attempted`` and ``failed`` count
commands, and ``metrics`` maps each metric to its value and unit.  A record
of the run (environment, digests, every metric) is written under
``perfbench/.work/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import reference
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_SAMPLES = 3
# cmd_p50_s is never taken over fewer commands than this (a single scaled
# command time is too noisy to compare two commits by).
MIN_TIMED_COMMANDS = 6
# Speed probe: a fresh interpreter importing numpy, then a fixed loop: the
# same kinds of work as a CLI command (start-up, library imports, Python
# code) at a cost the program under test cannot change.  Probes of imports
# alone tracked the CLI no better.
PROBE = ["-c", "import numpy; sum(i * i for i in range(1500000))"]
PROBE_REF_S = 0.4
COMMAND_TIMEOUT_S = 60.0
RUN_BUDGET_S = 160.0  # a run must end within 180 s, checks included


class BenchmarkError(Exception):
    """The tree cannot be benchmarked; no result is printed."""


@dataclass
class Result:
    argv: tuple
    wall_s: float
    scale: float
    max_rss_kb: int
    returncode: int
    stdout: str
    stderr: str
    trace: dict | None = None

    @property
    def ref_s(self) -> float:
        """Wall time in reference seconds."""
        return self.wall_s * self.scale

    @property
    def digest(self) -> str:
        return hashlib.sha256(f"{self.stdout}\0{self.stderr}".encode()).hexdigest()


@dataclass
class Pass:
    traced: bool
    results: list = field(default_factory=list)

    @property
    def ref_s(self) -> float:
        """Wall time of the pass's commands in reference seconds, probes excluded."""
        return sum(r.ref_s for r in self.results)


def cli_env() -> dict:
    """The caller's environment without its PYTHON* settings (bytecode
    caching, hash seed, buffering stay at their defaults), importing from
    this tree's ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list, cwd: Path, out: Path, timeout: float = COMMAND_TIMEOUT_S) -> tuple:
    """Run one process to completion, killing it after ``timeout`` seconds:
    wall time, max RSS (KiB) from its own rusage, exit code, stdout, stderr."""
    with open(out.with_suffix(".out"), "w+b") as fo, open(out.with_suffix(".err"), "w+b") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=cli_env(), stdin=subprocess.DEVNULL, stdout=fo, stderr=fe)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()  # interrupted: leave no process behind
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        return wall, usage.ru_maxrss, proc.returncode, fo.read().decode(), fe.read().decode()


class ProbedRunner:
    """Runs processes between speed probes.  A process's scale is
    ``PROBE_REF_S`` over the mean of the probes just before and just after
    it; consecutive processes share the probe between them."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.probes: list[float] = []

    def probe(self) -> float:
        wall, _, rc, _, err = run_process([sys.executable, *PROBE], self.directory, self.directory / "probe")
        if rc != 0:
            raise BenchmarkError(f"speed probe failed: {err.strip()}")
        self.probes.append(wall)
        return wall

    def run(self, argv: list, out: Path, timeout: float = COMMAND_TIMEOUT_S) -> tuple:
        """``run_process`` results with the scale inserted after the wall time."""
        before = self.probes[-1] if self.probes else self.probe()
        wall, *rest = run_process(argv, self.directory, out, timeout)
        return (wall, PROBE_REF_S / ((before + self.probe()) / 2.0), *rest)


def run_pass(steps: list, runner: ProbedRunner, traced: bool, deadline: float) -> Pass:
    record = Pass(traced)
    outputs = {}
    directory = runner.directory
    scratch = directory / "out"
    scratch.mkdir(exist_ok=True)
    for index, step in enumerate(steps):
        if isinstance(step, workloads.Collect):
            texts = [outputs[i].splitlines(keepends=True) for i in step.sources]
            body = texts[0][:1] + [row for text in texts for row in text[1:]]
            (directory / step.path).write_text("".join(body), encoding="utf-8")
            continue
        trace_file = scratch / f"{index}.trace.json"
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(trace_file), *step.argv]
        else:
            argv = [sys.executable, "-m", "unanimity.cli", *step.argv]
        timeout = min(COMMAND_TIMEOUT_S, deadline - time.perf_counter())
        if timeout > 0:
            wall, scale, rss, code, out, err = runner.run(argv, scratch / str(index), timeout)
        else:
            wall, scale, rss, code, out, err = 0.0, 1.0, 0, -1, "", "not run: run budget exhausted"
        trace = None
        if traced and code == 0:
            trace = json.loads(trace_file.read_text(encoding="utf-8"))
        outputs[index] = out
        record.results.append(Result(step.argv, wall, scale, rss, code, out, err, trace))
    return record


def setup_samples(runner: ProbedRunner, count: int) -> list:
    """Fresh interpreters importing ``unanimity.cli``: (wall, scale) pairs.
    Each checks that the module comes from this tree, so a stale install is
    never measured."""
    code = "import unanimity.cli as m; print(m.__file__)"
    samples = []
    for _ in range(count):
        wall, scale, _, rc, out, err = runner.run([sys.executable, "-c", code], runner.directory / "setup")
        if rc != 0:
            raise BenchmarkError(f"cannot import unanimity.cli from {SRC}: {err.strip()}")
        if SRC not in Path(out.strip()).resolve().parents:
            raise BenchmarkError(f"unanimity.cli imported from {out.strip()}, not from {SRC}")
        samples.append((wall, scale))
    return samples


def check(passes: list, directory: Path) -> dict:
    """Problems per (pass, command): exit code, output against the reference
    (first pass), digest against the first pass (later passes)."""
    ref = reference.Reference(directory)
    problems = {}
    first = passes[0].results
    for n, record in enumerate(passes):
        for i, result in enumerate(record.results):
            if result.returncode != 0:
                found = [f"exit {result.returncode}: {result.stderr.strip()[:300]}"]
            elif n == 0:
                try:
                    found = ref.expect(list(result.argv)).problems(result.stdout, result.stderr)
                except Exception as exc:  # one command's broken inputs must not stop the run
                    found = [f"no reference: {exc!r}"]
            elif result.digest != first[i].digest:
                found = ["output differs from the first pass"]
            else:
                found = []
            if found:
                problems[(n, i)] = f"pass {n}: {' '.join(result.argv)}: " + "; ".join(found)
    return problems


def repeated_digests(path: Path, key: dict, digests: dict, clean: bool) -> list:
    """Commands whose output differs from the one recorded at ``path`` by an
    earlier run with the same ``key`` (sources and inputs).  A clean run
    records its digests when there is no such record."""
    try:
        earlier = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        earlier = None
    if earlier is None or earlier.get("key") != key:
        if clean:
            path.write_text(json.dumps({"key": key, "digests": digests}, indent=1), encoding="utf-8")
        return []
    return [command for command, digest in digests.items() if earlier["digests"].get(command, digest) != digest]


def end_to_end(passes: list, setup: list) -> dict:
    results = [r for p in passes for r in p.results]
    return {
        "wall_s": statistics.median(p.ref_s for p in passes),
        "setup_s": statistics.median(wall * scale for wall, scale in setup),
        "cmd_p50_s": statistics.median(r.ref_s for r in results),
        "peak_rss_mb": max(r.max_rss_kb for r in results) / 1024.0,
    }


def per_layer(passes: list) -> dict:
    """Per-pass sums over the traced passes' commands, median over passes.
    Times are scaled by each command's probe scale."""
    per_pass = []
    for record in (p for p in passes if p.traced):
        values: dict[str, float] = {}
        top = inproc = 0.0
        spans = 0
        for result in record.results:
            if result.trace is None:
                continue
            inproc += result.trace["inproc_s"]
            spans += result.trace["spans"]
            for key, n in result.trace["counts"].items():
                values[key] = values.get(key, 0) + n
            for name, (calls, total, self_time) in result.trace["functions"].items():
                if name in ("cli.import", "cli.main"):
                    top += total
                self_time *= result.scale
                key = "cli.import_s" if name == "cli.import" else f"{name}.self_s"
                values[key] = values.get(key, 0.0) + self_time
                values[f"{name}.total_s"] = values.get(f"{name}.total_s", 0.0) + total * result.scale
                values[f"{name}.calls"] = values.get(f"{name}.calls", 0) + calls
                if name != "cli.import":
                    layer = f"layer.{name.split('.')[0]}.self_s"
                    values[layer] = values.get(layer, 0.0) + self_time
        values["trace.coverage"] = top / inproc if inproc else 0.0
        values["trace.spans"] = spans
        per_pass.append(values)
    keys = {k for values in per_pass for k in values}
    out = {k: statistics.median(values.get(k, 0) for values in per_pass) for k in keys}
    plain = [p.ref_s for p in passes if not p.traced]
    traced = [p.ref_s for p in passes if p.traced]
    out["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return out


def tree_digest(root: Path, pattern: str) -> str:
    tree = hashlib.sha256()
    for path in sorted(root.rglob(pattern)):
        if path.is_file():
            tree.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return tree.hexdigest()


def environment() -> dict:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit or "unknown",
        "src_sha256": tree_digest(SRC, "*.py"),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the contract's result object plus a full record."""
    directory = WORK / name
    shutil.rmtree(directory, ignore_errors=True)
    steps = workloads.generate(name, directory, seed)
    inputs_sha256 = tree_digest(directory, "*")
    began = time.perf_counter()
    runner = ProbedRunner(directory)
    setup = setup_samples(runner, 1 if trace else SETUP_SAMPLES)
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(steps, runner, trace and len(passes) % 2 == 1, began + RUN_BUDGET_S))
        if trace and len(passes) < 2:
            continue  # at least one untraced and one traced pass
        now = time.perf_counter()
        timed = sum(len(p.results) for p in passes)
        if (now - start >= seconds and timed >= MIN_TIMED_COMMANDS) or (
            now - began + (now - start) / len(passes) > RUN_BUDGET_S
        ):
            break
    problems = check(passes, directory)
    env = environment()
    digests = {" ".join(r.argv): r.digest for r in passes[0].results}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    key = {"src_sha256": env["src_sha256"], "inputs_sha256": inputs_sha256}
    changed = repeated_digests(results / f"{name}-seed{seed}-digests.json", key, digests, not problems)
    commands = list(digests)
    for command in changed:
        problems.setdefault((0, commands.index(command)), f"pass 0: {command}: output differs from an earlier run")
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "inputs_sha256": inputs_sha256,
        "passes": len(passes),
        "attempted": sum(len(p.results) for p in passes),
        "failed": len(problems),
        "problems": list(problems.values()),
        "digests": digests,
        "command_wall_s": [[r.wall_s for r in p.results] for p in passes],
        "command_scale": [[r.scale for r in p.results] for p in passes],
        "setup": setup,
        "probe_s": runner.probes,
        "metrics": per_layer(passes) if trace else end_to_end(passes, setup),
    }
    path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return record


def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def report(record: dict) -> dict:
    """Print a readable summary; return the contract's result object."""
    trace = bool(record["trace"])
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} passes={record['passes']}")
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    probes = record["probe_s"]
    print(f"# speed probe: {len(probes)} samples, median {statistics.median(probes):.4f}s, "
          f"min {min(probes):.4f}s, max {max(probes):.4f}s (reference {PROBE_REF_S}s)")
    print(f"# commands attempted={record['attempted']} failed={record['failed']} "
          f"failed_ratio={record['failed'] / record['attempted']:.6f} (base: {record['attempted']} commands)")
    for problem in record["problems"][:20]:
        print(f"# FAIL {problem}")
    for command, digest in record["digests"].items():
        print(f"# sha256 {digest[:16]} {command}")
    metrics = {}
    for name, unit in declared_metrics(trace):
        value = record["metrics"].get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{record['workload']:16s} {name:42s} {value:14.6f} {unit}")
    if trace:
        layers = {k: v for k, v in record["metrics"].items() if k.startswith("layer.") or k == "cli.import_s"}
        ranked = sorted(layers.items(), key=lambda kv: -kv[1])
        print("# self time by layer: " + ", ".join(f"{k} {v:.3f}s" for k, v in ranked))
    return {"correct": not record["problems"], "attempted": record["attempted"], "failed": record["failed"], "metrics": metrics}


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "unanimity" / "cli.py").is_file():
        print(f"error: no unanimity sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    if args.workload == "all":
        jobs = [(name, trace) for name in workloads.WORKLOADS for trace in (False, True)]
    else:
        jobs = [(args.workload, bool(args.trace))]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name, trace in jobs:
            result = report(run(name, args.seed, seconds, trace))
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{name}." if args.workload == "all" else ""
            combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
