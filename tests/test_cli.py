"""End-to-end CLI behavior: outputs, errors, determinism."""

import csv
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import unanimity
from unanimity import cli
from unanimity.cli import MAX_GRID_POINTS, _parse_grid, main
from unanimity.data import parse_score_table, serialize_score_table
from unanimity.experiments import predictor_curves, threshold_sweep
from unanimity.report import render_ranking_report

import budget
from conftest import make_table, two_system_table


@pytest.fixture
def scores_csv(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text(serialize_score_table(two_system_table()), encoding="utf-8")
    return str(path)


@pytest.fixture
def clustering_files(tmp_path):
    gold = tmp_path / "gold.tsv"
    gold.write_text("g1\ta\ng1\tc\ng2\tb\n", encoding="utf-8")
    sys_a = tmp_path / "sysA.tsv"
    sys_a.write_text("c1\ta\nc1\tb\nc2\tc\n", encoding="utf-8")
    sys_b = tmp_path / "sysB.tsv"
    sys_b.write_text("k1\ta\nk2\tb\nk3\tc\n", encoding="utf-8")
    return str(gold), str(sys_a), str(sys_b)


class TestEval:
    def test_scores_both_systems(self, clustering_files, capsys):
        gold, sys_a, sys_b = clustering_files
        assert main(["eval", "--system", sys_a, "--system", sys_b, "--gold", gold]) == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["test_case", "system", "metric", "score"]
        assert rows[1] == ["gold", "sysA", "purity", "0.666667"]
        assert rows[2] == ["gold", "sysA", "inverse_purity", "0.666667"]
        assert rows[3][2] == "purity" and rows[3][1] == "sysB"

    def test_output_round_trips(self, clustering_files, capsys):
        gold, sys_a, sys_b = clustering_files
        main(["eval", "--system", sys_a, "--system", sys_b, "--gold", gold])
        table = parse_score_table(capsys.readouterr().out)
        assert table.systems == ("sysA", "sysB")
        assert table.metric_names == ("purity", "inverse_purity")

    def test_bcubed_metrics(self, clustering_files, capsys):
        gold, sys_a, _ = clustering_files
        assert main(["eval", "--system", sys_a, "--gold", gold, "--metrics", "bcubed"]) == 0
        out = capsys.readouterr().out
        assert "bcubed_precision" in out and "bcubed_recall" in out

    def test_case_id_default_is_gold_stem(self, clustering_files, capsys):
        gold, sys_a, _ = clustering_files
        main(["eval", "--system", sys_a, "--gold", gold, "--case-id", "weps_01"])
        assert capsys.readouterr().out.count("weps_01") == 2

    def test_pure_clusters_summing_past_one(self, tmp_path, capsys):
        # Cluster shares 0.4 + 0.2 + 0.3 + 0.1 add up to 1.0000000000000002.
        labels = ["c0"] * 4 + ["c1"] * 2 + ["c2"] * 3 + ["c3"]
        system = tmp_path / "s.tsv"
        system.write_text("".join(f"{c}\ti{k}\n" for k, c in enumerate(labels)), encoding="utf-8")
        gold = tmp_path / "g.tsv"
        gold.write_text("".join(f"g\ti{k}\n" for k in range(10)), encoding="utf-8")
        assert main(["eval", "--system", str(system), "--gold", str(gold)]) == 0
        assert main(["eval", "--system", str(gold), "--gold", str(system)]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[1] == ["g", "s", "purity", "1.000000"]
        assert rows[-1] == ["s", "g", "inverse_purity", "1.000000"]

    def test_lenient_warns_on_stderr(self, tmp_path, capsys):
        gold = tmp_path / "g.tsv"
        gold.write_text("g\ta\ng\tb\n", encoding="utf-8")
        system = tmp_path / "s.tsv"
        system.write_text("c\ta\n", encoding="utf-8")
        assert main(["eval", "--system", str(system), "--gold", str(gold)]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "unclustered" in err

    @pytest.fixture
    def outside_gold(self, tmp_path):
        gold = tmp_path / "g.tsv"
        gold.write_text("g\ta\n", encoding="utf-8")
        system = tmp_path / "sys.tsv"
        system.write_text("c\ta\nc\tz\n", encoding="utf-8")
        return ["eval", "--system", str(system), "--gold", str(gold)]

    def test_bcubed_refuses_items_outside_gold_without_a_warning(self, outside_gold, capsys):
        # The coverage note describes purity's treatment, which bcubed refuses.
        assert main([*outside_gold, "--metrics", "bcubed"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: validation: system items absent from gold: z\n"
        assert captured.out == ""

    def test_lenient_purity_warns_on_items_outside_gold(self, outside_gold, capsys):
        assert main(outside_gold) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: sys: 1 system item(s) absent from gold (zero best-match contribution)\n"
        )
        assert captured.out.splitlines()[1] == "g,sys,purity,0.500000"

    def test_strict_mismatch_fails(self, tmp_path, capsys):
        gold = tmp_path / "g.tsv"
        gold.write_text("g\ta\ng\tb\n", encoding="utf-8")
        system = tmp_path / "s.tsv"
        system.write_text("c\ta\n", encoding="utf-8")
        assert main(["eval", "--system", str(system), "--gold", str(gold), "--strict"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: validation:")

    def test_parse_error_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("c1\ta\nbroken line\n", encoding="utf-8")
        gold = tmp_path / "g.tsv"
        gold.write_text("g\ta\n", encoding="utf-8")
        assert main(["eval", "--system", str(bad), "--gold", str(gold)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: parse: line 2:")

    def test_missing_file_io_error(self, tmp_path, capsys):
        gold = tmp_path / "g.tsv"
        gold.write_text("g\ta\n", encoding="utf-8")
        assert main(["eval", "--system", str(tmp_path / "nope.tsv"), "--gold", str(gold)]) == 1
        assert capsys.readouterr().err.startswith("error: io:")

    def test_two_files_sharing_an_id_refused_before_reading(self, clustering_files, tmp_path, capsys):
        # Both would be scored under "sys", and rank refuses the duplicate rows.
        gold, sys_a, sys_b = clustering_files
        for run, source in (("r1", sys_a), ("r2", sys_b)):
            (tmp_path / run).mkdir()
            (tmp_path / run / "sys.tsv").write_text(Path(source).read_text(encoding="utf-8"), encoding="utf-8")
        first, second = str(tmp_path / "r1" / "sys.tsv"), str(tmp_path / "r2" / "sys.tsv")
        assert main(["eval", "--gold", gold, "--system", first, "--system", second]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: invalid: two --system files have the system id 'sys'\n"
        # The check comes first: a missing gold file is not reached.
        assert main(["eval", "--gold", str(tmp_path / "nope.tsv"), "--system", first, "--system", second]) == 1
        assert capsys.readouterr().err.startswith("error: invalid: two --system files")

    def test_one_file_named_twice_refused(self, clustering_files, tmp_path, capsys):
        gold, sys_a, _ = clustering_files
        again = os.path.join(tmp_path, ".", "sysA.tsv")
        assert main(["eval", "--gold", gold, "--system", sys_a, "--system", again]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: invalid: two --system files have the system id 'sysA'\n"

    def test_system_id_with_edge_whitespace_refused(self, clustering_files, tmp_path, capsys):
        # rank strips fields, so " sysA" would be read back as a second "sysA".
        gold, sys_a, _ = clustering_files
        padded = tmp_path / " sysA.tsv"
        padded.write_text(Path(sys_a).read_text(encoding="utf-8"), encoding="utf-8")
        assert main(["eval", "--gold", gold, "--system", sys_a, "--system", str(padded)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: invalid: system id ' sysA' is empty, space-padded or holds a line break\n"

    def test_case_id_with_a_line_break_refused_before_reading(self, clustering_files, tmp_path, capsys):
        _, sys_a, _ = clustering_files
        missing = str(tmp_path / "nope.tsv")
        assert main(["eval", "--gold", missing, "--system", sys_a, "--case-id", "c\nd"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: invalid: test case id 'c\\nd' is empty, space-padded or holds a line break\n"

    def test_empty_case_id_refused(self, clustering_files, capsys):
        # An empty id is not a request for the gold file's stem.
        gold, sys_a, _ = clustering_files
        assert main(["eval", "--gold", gold, "--system", sys_a, "--case-id", ""]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: invalid: test case id '' is empty, space-padded or holds a line break\n"


class TestCompare:
    def test_counts_and_uir(self, scores_csv, capsys):
        assert main(["compare", "--scores", scores_csv, "--a", "A", "--b", "B"]) == 0
        out = capsys.readouterr().out
        assert "A >=all B: 6" in out
        assert "B >=all A: 4" in out
        assert "incomparable: 2" in out
        assert "UIR = 0.2" in out

    def test_parametric_flag_adds_line(self, scores_csv, capsys):
        main(["compare", "--scores", scores_csv, "--a", "A", "--b", "B", "--parametric"])
        first = capsys.readouterr().out
        assert "parametric UIR = " in first
        main(["compare", "--scores", scores_csv, "--a", "A", "--b", "B"])
        assert "parametric UIR" not in capsys.readouterr().out

    def test_unknown_system_invalid_error(self, scores_csv, capsys):
        assert main(["compare", "--scores", scores_csv, "--a", "A", "--b", "nope"]) == 1
        assert capsys.readouterr().err.startswith("error: invalid: unknown system")

    @pytest.mark.parametrize("level", ["2", "nan"])
    @pytest.mark.parametrize("metrics", [("p", "r"), ("p", "r", "x")])
    def test_significance_level_refused_on_any_table(self, tmp_path, metrics, level, capsys):
        path = tmp_path / "t.csv"
        scores = {"A": [(0.5, 0.4, 0.3)] * 3, "B": [(0.4, 0.5, 0.3)] * 3}
        path.write_text(serialize_score_table(make_table(scores, metrics)), encoding="utf-8")
        for scores_file in (path, tmp_path / "missing.csv"):
            argv = ["compare", "--scores", str(scores_file), "--a", "A", "--b", "B"]
            code, out, err = run_cli(capsys, [*argv, "--significance-level", level])
            expected = f"error: invalid: significance level {float(level)} outside (0, 1)\n"
            assert (code, out, err) == (1, "", expected)

    def test_percent_flag(self, tmp_path, capsys):
        path = tmp_path / "pct.csv"
        path.write_text(
            "test_case,system,metric,score\n"
            "c1,A,p,60\nc1,A,r,50\nc1,B,p,40\nc1,B,r,30\n",
            encoding="utf-8",
        )
        args = ["compare", "--scores", str(path), "--a", "A", "--b", "B"]
        assert main(args) == 1
        assert "outside [0, 1]" in capsys.readouterr().err
        assert main(args + ["--percent"]) == 0
        assert "UIR = 1" in capsys.readouterr().out


class TestRank:
    def test_table_shape(self, scores_csv, capsys):
        assert main(["rank", "--scores", scores_csv]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == [
            "system",
            "mean_f",
            "improved_systems",
            "reference_system",
            "reference_uir",
        ]
        assert len(rows) == 3
        # Missing reference/improved render as placeholders, never crash.
        for row in rows[1:]:
            assert len(row) == 5

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1.5", "-1.01"])
    def test_uir_threshold_outside_unit_range_refused(self, scores_csv, value, capsys):
        assert main(["rank", "--scores", scores_csv, f"--uir-threshold={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid: UIR threshold")
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["-1", "1"])
    def test_uir_threshold_bounds_accepted(self, scores_csv, value, capsys):
        assert main(["rank", "--scores", scores_csv, f"--uir-threshold={value}"]) == 0
        assert capsys.readouterr().out.startswith("system,mean_f")

    def test_improved_system_id_with_whitespace_refused(self, tmp_path, capsys):
        # c improves "a b": its improved_systems field would read back as two ids.
        path = tmp_path / "spaced.csv"
        scores = {"c": [(0.9, 0.9)] * 3, "a b": [(0.5, 0.5)] * 3}
        path.write_text(serialize_score_table(make_table(scores)), encoding="utf-8")
        message = "system id 'a b' holds whitespace, on which improved_systems splits"
        code, out, err = run_cli(capsys, ["rank", "--scores", str(path)])
        assert (code, out, err) == (1, "", f"error: invalid: {message}\n")
        # Listed by no row, such an id is ranked; other commands take it anyway.
        assert main(["rank", "--scores", str(path), "--uir-threshold", "1"]) == 0
        assert main(["compare", "--scores", str(path), "--a", "a b", "--b", "c"]) == 0

    def test_deterministic_bytes(self, scores_csv, capsys):
        main(["rank", "--scores", scores_csv])
        first = capsys.readouterr().out
        main(["rank", "--scores", scores_csv])
        assert capsys.readouterr().out == first

    def test_output_file(self, scores_csv, tmp_path, capsys):
        target = tmp_path / "report.csv"
        assert main(["rank", "--scores", scores_csv, "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8").startswith("system,mean_f")

    def test_output_in_missing_directory_is_io_error(self, scores_csv, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        assert main(["rank", "--scores", scores_csv, "--output", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: io:")
        assert str(target) in captured.err
        assert captured.out == ""

    def test_output_naming_an_input_refused(self, scores_csv, tmp_path, capsys):
        original = Path(scores_csv).read_bytes()
        hard_link = tmp_path / "hard_link.csv"
        os.link(scores_csv, hard_link)
        symlink = tmp_path / "symlink.csv"
        symlink.symlink_to(scores_csv)
        spellings = [
            scores_csv,
            os.path.join(os.path.dirname(scores_csv), ".", os.path.basename(scores_csv)),
            str(symlink),
            str(hard_link),
        ]
        for output in spellings:
            assert main(["rank", "--scores", scores_csv, "--output", output]) == 1
            assert "is also an input file" in capsys.readouterr().err
        assert Path(scores_csv).read_bytes() == original

    def test_output_naming_any_input_of_predict_refused(self, collections, capsys):
        original = Path(collections[2]).read_bytes()
        argv = ["predict", "--reference", collections[0], "--collections", *collections]
        assert main(argv + ["--output", collections[2]]) == 1
        assert capsys.readouterr().err.startswith("error: invalid:")
        assert Path(collections[2]).read_bytes() == original

    def test_output_replaces_through_temporary_file(self, scores_csv, tmp_path, capsys):
        target = tmp_path / "report.csv"
        target.write_text("old report\n", encoding="utf-8")
        assert main(["rank", "--scores", scores_csv, "--output", str(target)]) == 0
        assert target.read_text(encoding="utf-8").startswith("system,mean_f")
        # A replace that fails (the target is a directory) leaves no
        # temporary file behind.
        folder = tmp_path / "folder"
        folder.mkdir()
        assert main(["rank", "--scores", scores_csv, "--output", str(folder)]) == 1
        assert capsys.readouterr().err.startswith("error: io:")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "demo.csv",
            "folder",
            "report.csv",
        ]

    def test_failed_replace_keeps_the_target(self, scores_csv, tmp_path, capsys, monkeypatch):
        target = tmp_path / "report.csv"
        target.write_text("old report\n", encoding="utf-8")

        def refuse(source, destination):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        assert main(["rank", "--scores", scores_csv, "--output", str(target)]) == 1
        assert capsys.readouterr() == ("", "error: io: replace refused\n")
        assert target.read_text(encoding="utf-8") == "old report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.csv", "report.csv"]

    def test_output_symlink_written_through(self, scores_csv, tmp_path, capsys):
        (tmp_path / "reports").mkdir()
        target = tmp_path / "reports" / "report.csv"
        target.write_text("old report\n", encoding="utf-8")
        target.chmod(0o640)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["rank", "--scores", scores_csv, "--output", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8").startswith("system,mean_f")
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in target.parent.iterdir()) == ["report.csv"]
        # A dangling link creates its target.
        target.unlink()
        assert main(["rank", "--scores", scores_csv, "--output", str(link)]) == 0
        assert target.read_text(encoding="utf-8").startswith("system,mean_f")

    def test_output_fifo_written_in_place(self, scores_csv, tmp_path, capsys):
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        reader = subprocess.Popen(["cat", str(fifo)], stdout=subprocess.PIPE)
        try:
            assert main(["rank", "--scores", scores_csv, "--output", str(fifo)]) == 0
            received, _ = reader.communicate(timeout=30)
        finally:
            reader.kill()
            reader.wait()
        assert received.decode("utf-8").startswith("system,mean_f")
        assert fifo.is_fifo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.csv", "report.fifo"]

    def test_stale_temporary_file_does_not_block(self, scores_csv, tmp_path, capsys):
        # A run killed mid-write leaves its temporary file; the next run,
        # maybe with the same PID, must still write.
        stale = tmp_path / f".report.csv.{os.getpid()}.tmp"
        stale.write_text("partial", encoding="utf-8")
        target = tmp_path / "report.csv"
        assert main(["rank", "--scores", scores_csv, "--output", str(target)]) == 0
        assert target.read_text(encoding="utf-8").startswith("system,mean_f")
        assert stale.read_text(encoding="utf-8") == "partial"


class TestUnplannedExits:
    def test_stdout_that_cannot_encode_the_report_is_an_io_error(self, tmp_path):
        # Incomparable on every case, so rank prints no warning either.
        table = make_table({"sé": [(0.5, 0.6), (0.6, 0.5)], "b": [(0.6, 0.5), (0.5, 0.6)]})
        path = tmp_path / "accented.csv"
        path.write_text(serialize_score_table(table), encoding="utf-8")
        env = dict(
            os.environ,
            PYTHONIOENCODING="ascii",
            PYTHONPATH=str(Path(unanimity.__file__).parents[1]),
        )
        proc = subprocess.run(
            [sys.executable, "-m", "unanimity.cli", "rank", "--scores", str(path)],
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stdout == b""
        [line] = proc.stderr.decode("ascii").splitlines()
        assert line.startswith("error: io: 'ascii' codec can't encode character '\\xe9'")

    @staticmethod
    def limited_child(argv, limit, size, cwd):
        """Run the CLI as a child whose ``limit`` resource is ``size``."""

        def set_limit():
            resource.setrlimit(limit, (size, size))

        env = dict(os.environ, PYTHONPATH=str(Path(unanimity.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "unanimity.cli", *argv],
            capture_output=True,
            env=env,
            cwd=cwd,
            preexec_fn=set_limit,
            timeout=120,
        )

    @pytest.mark.skipif(sys.platform != "linux", reason="address-space limits as Linux sets them")
    def test_out_of_memory_is_one_categorized_line(self, scores_csv, tmp_path):
        # rank on the 1000-system table of tests/budget.py peaks near 107 MB;
        # the same command on a small table fits the limit.
        limit = 90 << 20
        small = self.limited_child(["rank", "--scores", scores_csv], resource.RLIMIT_AS, limit, tmp_path)
        assert small.returncode == 0, small.stderr
        budget.write_table(tmp_path / "large.csv", 0)
        report = tmp_path / "report.csv"
        report.write_text("old report\n", encoding="utf-8")
        argv = ["rank", "--scores", "large.csv", "--output", "report.csv"]
        for args in argv[:3], argv:
            proc = self.limited_child(args, resource.RLIMIT_AS, limit, tmp_path)
            assert proc.returncode == 1
            assert proc.stdout == b""
            assert proc.stderr.decode("utf-8").splitlines() == ["error: memory: out of memory"]
        assert report.read_text(encoding="utf-8") == "old report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.csv", "large.csv", "report.csv"]

    def test_file_size_limit_on_output_is_an_io_error(self, scores_csv, tmp_path):
        # About 2 x 10,001 rows of output, past a 100,000-byte limit.
        report = tmp_path / "report.csv"
        report.write_text("old report\n", encoding="utf-8")
        argv = ["alpha-sweep", "--scores", scores_csv, "--grid", "0:1:0.0001", "--output", "report.csv"]
        proc = self.limited_child(argv, resource.RLIMIT_FSIZE, 100_000, tmp_path)
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.decode("utf-8").splitlines() == ["error: io: [Errno 27] File too large"]
        assert report.read_bytes() == b"old report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.csv", "report.csv"]

    # A report that fits stdout's buffer, written only at exit, and one that
    # does not, written while the command runs.
    @pytest.mark.parametrize(
        "argv", [["compare", "--a", "A", "--b", "B"], ["alpha-sweep", "--grid", "0:1:0.0001"]]
    )
    def test_closed_stdout_pipe_is_an_io_error(self, scores_csv, argv):
        # Without PYTHONUNBUFFERED, stdout is block-buffered as it is for users.
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(unanimity.__file__).parents[1])
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "unanimity.cli", argv[0], "--scores", scores_csv, *argv[1:]],
                stdout=write,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr.decode("utf-8").splitlines() == ["error: io: [Errno 32] Broken pipe"]

    @pytest.mark.parametrize("target", ["unanimity.cli.parse_score_table", "os.replace"])
    def test_interrupt_exits_130_and_keeps_the_output(
        self, scores_csv, tmp_path, capsys, monkeypatch, target
    ):
        report = tmp_path / "report.csv"
        report.write_text("old report\n", encoding="utf-8")

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        # Interrupted while reading the input, or while replacing the report.
        monkeypatch.setattr(target, interrupt)
        try:
            status = main(["rank", "--scores", scores_csv, "--output", str(report)])
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped main")
        assert status == 130
        assert capsys.readouterr() == ("", "")
        assert report.read_text(encoding="utf-8") == "old report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["demo.csv", "report.csv"]


class TestSweeps:
    def test_alpha_sweep_default_grid(self, scores_csv, capsys):
        assert main(["alpha-sweep", "--scores", scores_csv]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["system", "alpha", "mean_f"]
        assert len(rows) == 1 + 2 * 101

    def test_alpha_sweep_custom_grid(self, scores_csv, capsys):
        main(["alpha-sweep", "--scores", scores_csv, "--grid", "0:1:0.5"])
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert [r[1] for r in rows[1:4]] == ["0.000000", "0.500000", "1.000000"]

    def test_grid_stops_at_its_stop(self, scores_csv, capsys):
        # The step count's rounding slack lets the last point past 1.0 by
        # 1e-12; it is clamped to the stop, which alpha-sweep accepts.
        assert main(["alpha-sweep", "--scores", scores_csv, "--grid", "0:1:0.1000000000001"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[-1][1] == "1.000000"

    def test_threshold_sweep(self, scores_csv, capsys):
        # leading dash means the value must be attached with "="
        assert main(["threshold-sweep", "--scores", scores_csv, "--grid=-1:1:0.5"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0][:3] == ["t", "accepted_ratio", "concordant_ratio"]
        assert len(rows) == 1 + 5
        last = rows[-1]
        assert last[0] == "1.000000"
        assert last[6] == "0"

    def test_bad_grid_rejected(self, scores_csv, capsys):
        assert main(["alpha-sweep", "--scores", scores_csv, "--grid", "0:1"]) == 1
        assert capsys.readouterr().err.startswith("error: invalid: bad grid")

    @pytest.mark.parametrize("grid", ["0:1:nan", "0:inf:1", "-inf:0:1"])
    def test_non_finite_grid_rejected(self, scores_csv, grid, capsys):
        assert main(["alpha-sweep", "--scores", scores_csv, f"--grid={grid}"]) == 1
        assert capsys.readouterr().err.startswith("error: invalid: bad grid")

    @pytest.mark.parametrize(
        "grid", ["0:1:1e-12", "0:1:1e-320", "-1e308:1e308:1", "0:100000:1"]
    )
    def test_oversized_grid_rejected(self, scores_csv, grid, capsys):
        # Each of these is refused before any point is built.
        assert main(["alpha-sweep", "--scores", scores_csv, f"--grid={grid}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid: grid")
        assert f"more than {MAX_GRID_POINTS} points" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["alpha-sweep", "demo.csv", "--grid", "0:one:0.1"], "invalid: bad grid '0:one:0.1', expected numeric start:stop:step"),
            (["alpha-sweep", "demo.csv", "--grid", "0:1:0"], "invalid: grid step must be positive, got 0.0"),
            (["threshold-sweep", "demo.csv", "--grid", "0:1:-0.05"], "invalid: grid step must be positive, got -0.05"),
            (["threshold-sweep", "demo.csv", "--grid", "0.5:-0.5:0.1"], "invalid: grid stop -0.5 below start 0.5"),
            (["rank", "empty.csv"], "parse: empty score file"),
        ],
    )
    def test_refusals(self, scores_csv, tmp_path, argv, message, capsys):
        # scores_csv writes demo.csv into tmp_path.
        (tmp_path / "empty.csv").write_text("", encoding="utf-8")
        command, scores, *rest = argv
        assert main([command, "--scores", str(tmp_path / scores), *rest]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["alpha-sweep", "threshold-sweep", "predict"])
    def test_bad_grid_refused_before_any_file_is_read(self, tmp_path, command, capsys):
        missing = str(tmp_path / "missing.csv")
        if command == "predict":
            files = ["--reference", missing, "--collections", missing, missing]
        else:
            files = ["--scores", missing]
        code, out, err = run_cli(capsys, [command, *files, "--grid", "0:1"])
        expected = "error: invalid: bad grid '0:1', expected start:stop:step\n"
        assert (code, out, err) == (1, "", expected)

    def test_grid_cap_is_inclusive(self):
        assert len(_parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS


@pytest.fixture
def collections(tmp_path):
    """Three score CSVs of the same three systems, shifted a little apart."""
    base = {
        "x": [(0.9, 0.8), (0.85, 0.8), (0.9, 0.85)],
        "y": [(0.6, 0.5), (0.65, 0.6), (0.6, 0.55)],
        "z": [(0.3, 0.2), (0.35, 0.3), (0.3, 0.25)],
    }
    paths = []
    for i in range(3):
        shifted = {
            s: [(min(1.0, p + 0.01 * i), min(1.0, r + 0.01 * i)) for p, r in rows]
            for s, rows in base.items()
        }
        path = tmp_path / f"col{i}.csv"
        path.write_text(
            serialize_score_table(make_table(shifted, collection_id=f"col{i}")),
            encoding="utf-8",
        )
        paths.append(str(path))
    return paths


class TestPredict:
    def test_curves(self, collections, capsys):
        code = main(
            [
                "predict",
                "--reference",
                collections[0],
                "--collections",
                *collections,
                "--grid=-0.5:0.5:0.5",
            ]
        )
        assert code == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["predictor", "t", "precision", "recall"]
        predictors = {row[0] for row in rows[1:]}
        assert predictors == {"uir", "f_delta", "parametric_uir"}

    def test_reference_not_in_collections(self, collections, tmp_path, capsys):
        assert (
            main(
                [
                    "predict",
                    "--reference",
                    str(tmp_path / "other.csv"),
                    "--collections",
                    *collections,
                ]
            )
            == 1
        )
        assert "among the collections" in capsys.readouterr().err

    def test_reference_is_the_same_file_not_the_same_stem(self, tmp_path, capsys):
        chain = {
            "x": [(0.9, 0.8), (0.85, 0.8), (0.9, 0.85)],
            "y": [(0.6, 0.5), (0.65, 0.6), (0.6, 0.55)],
            "z": [(0.3, 0.2), (0.35, 0.3), (0.3, 0.25)],
        }
        # x still leads y on mean F, but no longer on every case.
        trade_off = dict(chain, x=[(0.9, 0.3), (0.9, 0.8), (0.9, 0.85)])
        paths = []
        for name, scores in (("a/x.csv", trade_off), ("b/x.csv", chain), ("c.csv", chain)):
            path = tmp_path / name
            path.parent.mkdir(exist_ok=True)
            path.write_text(serialize_score_table(make_table(scores)), encoding="utf-8")
            paths.append(str(path))
        a, b, c = paths

        def run(reference, *collections):
            argv = ["predict", "--reference", reference, "--collections", *collections]
            assert main(argv) == 0
            return capsys.readouterr().out

        assert run(a, a, b, c) != run(b, b, a, c)
        assert run(b, a, b, c) == run(b, b, a, c)
        assert run(a, b, a, c) == run(a, a, b, c)
        assert run(str(tmp_path / "b" / "." / "x.csv"), a, b, c) == run(b, b, a, c)

    def test_metric_names_differ_across_collections(self, tmp_path, capsys):
        scores = {s: [(0.1 * (i + 1), 0.1 * (j + 1)) for j in range(5)] for i, s in enumerate("abc")}
        paths = []
        for name, metrics in (
            ("m1", ("purity", "inverse_purity")),
            ("m2", ("bcubed_precision", "bcubed_recall")),
        ):
            path = tmp_path / f"{name}.csv"
            path.write_text(serialize_score_table(make_table(scores, metrics=metrics)), encoding="utf-8")
            paths.append(str(path))
        argv = ["predict", "--reference", paths[0], "--collections", *paths, "--grid=0:1:0.5"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (1, "", "error: invalid: metric names differ across collections\n")


class TestOptionOrder:
    """Every subcommand refuses an invalid option before it reads any file,
    through the function that checks it in the library, so it prints the
    library's message, and names the library's first of two invalid
    options.  ``eval`` takes no range-checked option."""

    # Each range-checked option, out of range and, for a float, NaN.
    REFUSALS = [
        ("compare", ["--significance-level", "2"], "significance level 2.0 outside (0, 1)"),
        ("compare", ["--significance-level", "nan"], "significance level nan outside (0, 1)"),
        ("rank", ["--uir-threshold", "5"], "UIR threshold 5.0 outside [-1, 1]"),
        ("rank", ["--uir-threshold", "nan"], "UIR threshold nan outside [-1, 1]"),
        ("rank", ["--alpha", "2"], "alpha 2.0 outside [0, 1]"),
        ("rank", ["--alpha", "nan"], "alpha nan outside [0, 1]"),
        ("alpha-sweep", ["--grid", "0:2:1"], "alpha grid outside [0.0, 1.0]"),
        ("threshold-sweep", ["--grid=-2:1:0.5"], "threshold grid outside [-1.0, 1.0]"),
        ("threshold-sweep", ["--significance-level", "2"], "significance level 2.0 outside (0, 1)"),
        ("threshold-sweep", ["--significance-level", "nan"], "significance level nan outside (0, 1)"),
        ("threshold-sweep", ["--alpha", "2"], "alpha 2.0 outside [0, 1]"),
        ("threshold-sweep", ["--alpha", "nan"], "alpha nan outside [0, 1]"),
        ("predict", ["--grid=-2:1:0.5"], "threshold grid outside [-1.0, 1.0]"),
        ("predict", ["--alpha", "2"], "alpha 2.0 outside [0, 1]"),
        ("predict", ["--alpha", "nan"], "alpha nan outside [0, 1]"),
    ]

    # Two invalid options at once, and the library call given the same values.
    TWICE_INVALID = {
        "threshold-sweep grid and level": (
            ["threshold-sweep", "--grid=-2:1:0.5", "--significance-level", "2"],
            lambda tables: threshold_sweep(tables[0], _parse_grid("-2:1:0.5"), 0.5, 2.0),
        ),
        "threshold-sweep level and alpha": (
            ["threshold-sweep", "--significance-level", "2", "--alpha", "2"],
            lambda tables: threshold_sweep(tables[0], _parse_grid("-1:1:0.05"), 2.0, 2.0),
        ),
        "rank threshold and alpha": (
            ["rank", "--uir-threshold", "5", "--alpha", "2"],
            lambda tables: render_ranking_report(tables[0], 2.0, 5.0),
        ),
        "predict grid and alpha": (
            ["predict", "--grid=-2:1:0.5", "--alpha", "2"],
            lambda tables: predictor_curves(tables[0], tables, _parse_grid("-2:1:0.5"), 2.0),
        ),
    }

    @staticmethod
    def runs(capsys, monkeypatch, collections, tmp_path, command, *options):
        """Exit status, stdout, stderr and the files read, of the command on
        missing files and then on ``collections``."""
        read, original = [], cli._read
        monkeypatch.setattr(cli, "_read", lambda path: read.append(path) or original(path))
        results = []
        for paths in ([str(tmp_path / f"missing{i}.csv") for i in range(3)], collections):
            if command == "predict":
                files = ["--reference", paths[0], "--collections", *paths]
            else:
                pair = ["--a", "x", "--b", "y"] if command == "compare" else []
                files = ["--scores", paths[0], *pair]
            results.append((*run_cli(capsys, [command, *files, *options]), list(read)))
        return results

    @pytest.mark.parametrize("command, options, message", REFUSALS)
    def test_refused_by_its_owner_before_any_file_is_read(
        self, command, options, message, collections, tmp_path, capsys, monkeypatch
    ):
        expected = (1, "", f"error: invalid: {message}\n", [])
        runs = self.runs(capsys, monkeypatch, collections, tmp_path, command, *options)
        assert runs == [expected, expected]

    @pytest.mark.parametrize("case", list(TWICE_INVALID))
    def test_first_refusal_is_the_librarys(self, case, collections, tmp_path, capsys, monkeypatch):
        (command, *options), library_call = self.TWICE_INVALID[case]
        tables = [parse_score_table(Path(path).read_text(encoding="utf-8")) for path in collections]
        with pytest.raises(ValueError) as info:
            library_call(tables)
        expected = (1, "", f"error: invalid: {info.value}\n", [])
        runs = self.runs(capsys, monkeypatch, collections, tmp_path, command, *options)
        assert runs == [expected, expected]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPairLimit:
    """A table with more than MAX_PAIRS ordered system pairs is refused
    before any pair list or matrix is built."""

    @pytest.fixture
    def wide_csv(self, tmp_path):
        path = tmp_path / "wide.csv"
        rows = ["test_case,system,metric,score"]
        for j in range(1001):
            rows += [f"c0,s{j:04d},purity,0.5", f"c0,s{j:04d},inverse_purity,0.5"]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("command", ["rank", "threshold-sweep", "predict"])
    def test_1001_systems_refused_quickly(self, wide_csv, command, capsys):
        if command == "predict":
            argv = [command, "--reference", wide_csv, "--collections", wide_csv, wide_csv]
        else:
            argv = [command, "--scores", wide_csv]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        elapsed = time.perf_counter() - start
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid: table has 1001 systems, 1001000 ordered pairs")
        assert elapsed < 1.0


class TestMetricsOption:
    """``--metrics`` narrows a score CSV that holds both metric pairs, as
    two ``eval`` runs over the same cases write it."""

    # Per case: gold, system A and system B, as "cluster item" memberships.
    CASES = {
        "q1": ("g1 a, g1 b, g2 c, g2 d", "c1 a, c1 b, c1 c, c2 d", "k1 a, k2 b, k3 c, k3 d"),
        "q2": ("g1 a, g2 b, g2 c, g3 d", "c1 a, c1 b, c2 c, c2 d", "k1 a, k1 b, k1 c, k1 d"),
        "q3": ("g1 a, g1 b, g1 c, g2 d", "c1 a, c2 b, c2 c, c3 d", "k1 a, k1 b, k2 c, k2 d"),
    }

    @pytest.fixture
    def score_files(self, tmp_path, capsys):
        """Per metric pair, and for both pairs together: a score CSV named
        ``run.csv`` in its own directory, so every table has one collection id."""
        parts = {"purity_ip": [], "bcubed": []}
        for case, (gold, sys_a, sys_b) in self.CASES.items():
            files = []
            for name, memberships in (("gold", gold), ("A", sys_a), ("B", sys_b)):
                path = tmp_path / case / f"{name}.tsv"
                path.parent.mkdir(exist_ok=True)
                lines = (m.replace(" ", "\t") + "\n" for m in memberships.split(", "))
                path.write_text("".join(lines), encoding="utf-8")
                files.append(str(path))
            for pair, rows in parts.items():
                argv = ["eval", "--gold", files[0], "--system", files[1], "--system", files[2]]
                code, out, _ = run_cli(capsys, argv + ["--metrics", pair, "--case-id", case])
                assert code == 0
                rows += out.splitlines()[1:]
        header = "test_case,system,metric,score"
        paths = {}
        for name, rows in [*parts.items(), ("both", parts["purity_ip"] + parts["bcubed"])]:
            path = tmp_path / name / "run.csv"
            path.parent.mkdir()
            path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
            paths[name] = str(path)
        return paths

    COMMANDS = [
        ["rank"],
        ["compare", "--a", "A", "--b", "B", "--parametric"],
        ["alpha-sweep", "--grid", "0:1:0.25"],
        ["threshold-sweep", "--grid=-1:1:0.5"],
    ]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_table_commands(self, score_files, command, capsys):
        both = [*command, "--scores", score_files["both"]]
        code, _, err = run_cli(capsys, both)
        assert code == 1
        assert err == "error: invalid: table has 4 metrics; narrow it to one metric pair first\n"
        for pair in ("purity_ip", "bcubed"):
            narrowed = run_cli(capsys, [*both, "--metrics", pair])
            assert narrowed[0] == 0
            assert narrowed == run_cli(capsys, [*command, "--scores", score_files[pair]])

    def test_predict(self, score_files, capsys):
        def predict(path, *extra):
            argv = ["predict", "--grid=-1:1:0.5", "--reference", path, "--collections", path, path]
            return run_cli(capsys, [*argv, *extra])

        code, _, err = predict(score_files["both"])
        assert code == 1 and "narrow it to one metric pair first" in err
        for pair in ("purity_ip", "bcubed"):
            narrowed = predict(score_files["both"], "--metrics", pair)
            assert narrowed[0] == 0
            assert narrowed == predict(score_files[pair])

    def test_without_the_pair_refused(self, score_files, capsys):
        argv = ["rank", "--scores", score_files["bcubed"], "--metrics", "purity_ip"]
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert err == "error: invalid: table lacks metric(s) purity, inverse_purity\n"


class TestByteOrderMark:
    """A UTF-8 byte order mark, as spreadsheet exports write it, is ignored."""

    def twins(self, tmp_path, name, text):
        paths = []
        for folder, prefix in (("plain", ""), ("bom", "\ufeff")):
            path = tmp_path / folder / name
            path.parent.mkdir(exist_ok=True)
            path.write_text(prefix + text, encoding="utf-8")
            paths.append(str(path))
        return paths

    def outputs(self, capsys, *argvs):
        results = []
        for argv in argvs:
            assert main(argv) == 0
            captured = capsys.readouterr()
            results.append((captured.out, captured.err))
        return results

    def test_rank_score_csv(self, tmp_path, capsys):
        text = serialize_score_table(two_system_table())
        plain, bom = self.twins(tmp_path, "demo.csv", text)
        first, second = self.outputs(
            capsys, ["rank", "--scores", plain], ["rank", "--scores", bom]
        )
        assert first == second

    def test_eval_gold_label(self, tmp_path, capsys):
        plain_gold, bom_gold = self.twins(tmp_path, "gold.tsv", "g1\tx\ng1\ty\n")
        plain_sys, bom_sys = self.twins(tmp_path, "sys.tsv", "c1\tx\nc2\ty\n")
        first, second = self.outputs(
            capsys,
            ["eval", "--gold", plain_gold, "--system", plain_sys],
            ["eval", "--gold", bom_gold, "--system", bom_sys],
        )
        assert first == second
        # One category: inverse purity is 1/2, not the 1 of two categories.
        assert "gold,sys,inverse_purity,0.500000" in first[0]


class TestInputText:
    """Input bytes that are not UTF-8 text, and line ends the parsers refuse."""

    def test_non_utf8_named_with_byte_and_offset(
        self, tmp_path, clustering_files, collections, capsys
    ):
        gold, sys_a, _ = clustering_files
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"g1\tab\xffc\n")
        marked = tmp_path / "marked.txt"
        # The offset counts the byte order mark the decoder drops.
        marked.write_bytes(b"\xef\xbb\xbfg1\tab\xfec\n")
        cases = [
            (["eval", "--gold", str(bad), "--system", sys_a], bad, "0xff", 5),
            (["eval", "--gold", gold, "--system", str(marked)], marked, "0xfe", 8),
            (["rank", "--scores", str(bad)], bad, "0xff", 5),
            (
                ["predict", "--reference", collections[0],
                 "--collections", collections[0], str(bad)],
                bad,
                "0xff",
                5,
            ),
        ]
        for argv, path, byte, offset in cases:
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                f"error: parse: {path}: not UTF-8 text (byte {byte} at offset {offset})\n"
            )

    def test_carriage_return_line_ends_refused(self, tmp_path, capsys):
        path = tmp_path / "cr.csv"
        text = serialize_score_table(two_system_table())
        path.write_bytes(text.replace("\n", "\r").encode())
        assert main(["rank", "--scores", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: parse: line 1: carriage return inside a line\n"
        )
        path.write_bytes(text.replace("\n", "\r\n").encode())
        assert main(["rank", "--scores", str(path)]) == 0


    def test_field_past_the_csv_limit_refused(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        text = serialize_score_table(two_system_table())
        path.write_text(text.replace("precision", "p" * 140_000, 1), encoding="utf-8")
        assert main(["rank", "--scores", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: parse: line 2: field larger than field limit (131072)\n"
        )


class TestParserBasics:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, scores_csv):
        with pytest.raises(SystemExit) as exc:
            main(["rank", "--scores", scores_csv, "--bogus"])
        assert exc.value.code == 2


IMPORT_PROBE = """
import json, sys
import unanimity.cli
from unanimity.cli import main

WATCHED = ("numpy", "scipy", "dataclasses", "inspect")
imported = set(sys.modules)
state = {"import": [m for m in WATCHED if m in imported]}
for name, argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, name
    state[name] = [m for m in WATCHED if m in sys.modules]
print(json.dumps(state))
"""


def command_steps(scores_csv, clustering_files, collections, tmp_path):
    """(name, argv) of one run of each subcommand, writing to a scratch file."""
    gold, sys_a, _ = clustering_files
    out = str(tmp_path / "out.txt")
    return [
        ("eval", ["eval", "--system", sys_a, "--gold", gold, "--output", out]),
        ("rank", ["rank", "--scores", scores_csv, "--output", out]),
        (
            "compare",
            ["compare", "--scores", scores_csv, "--a", "A", "--b", "B",
             "--parametric", "--output", out],
        ),
        ("alpha-sweep", ["alpha-sweep", "--scores", scores_csv, "--output", out]),
        ("threshold-sweep", ["threshold-sweep", "--scores", scores_csv, "--output", out]),
        (
            "predict",
            ["predict", "--reference", collections[0], "--collections", *collections,
             "--output", out],
        ),
    ]


def run_probe(probe: str, *args: str):
    """Run ``probe`` in a fresh interpreter on this package; its JSON stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(unanimity.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", probe, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def test_heavy_imports_deferred(scores_csv, clustering_files, collections, tmp_path):
    """No command loads numpy, scipy, dataclasses or inspect (with ast, dis
    and tokenize behind it)."""
    steps = command_steps(scores_csv, clustering_files, collections, tmp_path)
    state = run_probe(IMPORT_PROBE, json.dumps(steps))
    # The watched modules loaded after the import and after each step.
    assert state["import"] == []
    assert state["eval"] == []
    assert state["rank"] == []
    assert state["compare"] == []
    assert state["alpha-sweep"] == []
    assert state["threshold-sweep"] == []
    assert state["predict"] == []


PACKAGE_PROBE = """
import json, sys
import unanimity
state = {"import": sorted(m for m in sys.modules if m.startswith("unanimity."))}
state["stats"] = unanimity.stats.__name__
print(json.dumps(state))
"""

COMMAND_PROBE = """
import json, sys
from unanimity.cli import main
assert main(json.loads(sys.argv[1])) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("unanimity."))))
"""

# What each subcommand loads besides unanimity.cli, unanimity.data and
# unanimity.metrics, which every one of them needs.
COMMAND_MODULES = {
    "eval": set(),
    "rank": {"uir", "report"},
    "compare": {"uir", "stats"},
    "alpha-sweep": {"uir", "stats", "experiments"},
    "threshold-sweep": {"uir", "stats", "experiments"},
    "predict": {"uir", "stats", "experiments"},
}


def test_import_unanimity_loads_no_submodule():
    state = run_probe(PACKAGE_PROBE)
    assert state["import"] == []
    # A submodule read as an attribute is imported on first use.
    assert state["stats"] == "unanimity.stats"


def test_each_subcommand_loads_only_its_modules(
    scores_csv, clustering_files, collections, tmp_path
):
    """Each subcommand, in a fresh interpreter, loads exactly the package
    modules it runs."""
    for name, argv in command_steps(scores_csv, clustering_files, collections, tmp_path):
        expected = {"cli", "data", "metrics"} | COMMAND_MODULES[name]
        assert run_probe(COMMAND_PROBE, json.dumps(argv)) == sorted(
            f"unanimity.{module}" for module in expected
        ), name


RUN_ALL_PROBE = """
import contextlib, io, json, sys

if sys.argv[1] == "block":
    class BlockNumpy:
        def find_spec(self, name, path=None, target=None):
            if name == "numpy" or name.startswith("numpy."):
                raise ImportError(f"{name} is not importable here")
            return None

    sys.meta_path.insert(0, BlockNumpy())

from unanimity.cli import main

results = {}
for name, argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results[name] = [code, out.getvalue(), err.getvalue()]
results["numpy loaded"] = "numpy" in sys.modules
print(json.dumps(results))
"""


def test_all_commands_run_without_numpy(scores_csv, clustering_files, collections):
    """With numpy unimportable, all six subcommands succeed and print the
    same bytes as a normal run."""
    gold, sys_a, sys_b = clustering_files
    steps = [
        ("eval", ["eval", "--system", sys_a, "--system", sys_b, "--gold", gold,
                  "--metrics", "bcubed"]),
        ("compare", ["compare", "--scores", scores_csv, "--a", "A", "--b", "B",
                     "--parametric"]),
        ("rank", ["rank", "--scores", scores_csv]),
        ("alpha-sweep", ["alpha-sweep", "--scores", scores_csv, "--grid", "0:1:0.25"]),
        ("threshold-sweep", ["threshold-sweep", "--scores", scores_csv]),
        ("predict", ["predict", "--reference", collections[0], "--collections",
                     *collections]),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(unanimity.__file__).parents[1]))
    runs = {}
    for mode in ("block", "allow"):
        proc = subprocess.run(
            [sys.executable, "-c", RUN_ALL_PROBE, mode, json.dumps(steps)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
            check=True,
        )
        runs[mode] = json.loads(proc.stdout)
    blocked, normal = runs["block"], runs["allow"]
    assert blocked.pop("numpy loaded") is False
    normal.pop("numpy loaded")
    for name, _ in steps:
        code, out, err = blocked[name]
        assert code == 0, (name, err)
        assert out
    assert blocked == normal
