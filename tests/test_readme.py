"""The README's command examples print exactly what the README shows."""

import re
import shlex
from pathlib import Path

import pytest

from chartab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
PROMPT = "$ chartab "


def examples() -> list[tuple[list[str], str]]:
    """(argv, stdout) of every fenced ``text`` block that opens with a
    ``$ chartab`` command line."""
    out = []
    for block in re.findall(r"^```text\n(.*?)^```$", README.read_text(), re.M | re.S):
        command, _, stdout = block.partition("\n")
        if command.startswith(PROMPT):
            out.append((shlex.split(command[len(PROMPT):]), stdout))
    return out


EXAMPLES = examples()


def test_readme_has_examples():
    assert len(EXAMPLES) == 5


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example_output(capsys, argv, expected):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == expected
    assert err == ""
