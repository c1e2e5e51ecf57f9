"""Every `salem` line of README.md's sh blocks runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from salemcensus.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _salem_lines() -> list[str]:
    """The salem commands of the sh blocks, cut before ' #' and ' |'."""
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.splitlines():
            line = line.split(" #")[0].split(" |")[0].strip()
            if line.startswith("salem "):
                lines.append(line)
    return lines


def test_readme_covers_every_command():
    assert {line.split()[1] for line in _salem_lines()} == {
        "census", "bianchi", "cocompact", "constants", "fit", "report"}


@pytest.mark.parametrize("line", _salem_lines())
def test_readme_line_runs(line, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(line)[1:])
    assert code == 0, capsys.readouterr().err
