"""Every subcommand's stdout on the committed inputs, byte for byte.

The expected bytes are fixed: a change that moves them regenerates them on
purpose and says why.
"""

import os
from pathlib import Path

import pytest

import golden
import unanimity


@pytest.mark.parametrize("name", list(golden.COMMANDS))
def test_stdout_matches_the_golden_bytes(name):
    env = dict(os.environ, PYTHONPATH=str(Path(unanimity.__file__).parents[1]))
    assert golden.mismatch(name, env) is None


def test_every_expected_file_is_checked():
    assert golden.unchecked() == []
