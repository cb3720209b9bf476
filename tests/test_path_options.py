"""Options that name files: an empty path is refused, and ``--output`` never
names a file the command reads.

Both run every command on a copy of the golden inputs in ``tests/data``.
The ``--output`` rule is checked against the paths the command actually
opens, not against how its options are declared.
"""

import os
import shutil
from pathlib import Path

import pytest

import golden
from unanimity import cli
from unanimity.cli import main


@pytest.fixture
def data(tmp_path, monkeypatch):
    """A copy of the golden inputs, as the working directory."""
    copy = tmp_path / "data"
    shutil.copytree(golden.DATA, copy, ignore=shutil.ignore_patterns("expected"))
    monkeypatch.chdir(copy)
    return copy


def record_reads(monkeypatch) -> list[str]:
    """The paths ``cli._read`` opens from now on, in order."""
    paths = []
    read = cli._read

    def recording(path):
        paths.append(path)
        return read(path)

    monkeypatch.setattr(cli, "_read", recording)
    return paths


EMPTY = {
    "output": ["rank", "--scores", "scores.csv", "--output", ""],
    "system": ["eval", "--gold", "gold.tsv", "--system", ""],
    "gold": ["eval", "--gold", "", "--system", "sys_a.tsv"],
    "scores": ["rank", "--scores", ""],
    "reference": ["predict", "--reference", "", "--collections", "scores.csv", "second.csv"],
    "collections": ["predict", "--reference", "scores.csv", "--collections", "scores.csv", ""],
}


@pytest.mark.parametrize("option", list(EMPTY))
def test_empty_path_refused_before_any_file_is_touched(option, data, capsys, monkeypatch):
    listing = sorted(os.listdir())
    read = record_reads(monkeypatch)
    assert main(EMPTY[option]) == 1
    assert capsys.readouterr() == ("", f"error: invalid: --{option} names no file\n")
    assert read == []
    assert sorted(os.listdir()) == listing


@pytest.mark.parametrize("name", list(golden.COMMANDS))
def test_output_naming_any_file_read_is_refused(name, data, capsys, monkeypatch):
    argv = golden.COMMANDS[name]
    read = record_reads(monkeypatch)
    assert main(argv) == 0
    capsys.readouterr()
    inputs = sorted(set(read))
    assert inputs
    before = {path: Path(path).read_bytes() for path in inputs}
    listing = sorted(os.listdir())
    for path in inputs:
        assert main([*argv, "--output", path]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "is also an input file" in err
    assert {path: Path(path).read_bytes() for path in inputs} == before
    assert sorted(os.listdir()) == listing
