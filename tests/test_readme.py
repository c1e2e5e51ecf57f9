"""Every `salem` line of README.md's sh blocks runs, exits 0 and prints
what its comment quotes."""

import re
import shlex
from pathlib import Path

import pytest

from salemcensus.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# The shell pipes README lines use, as functions of the command's stdout.
PIPES = {
    "": lambda out: out,
    "tail -n 1": lambda out: out.splitlines()[-1],
    "grep -c ',1$'": lambda out: str(sum(line.endswith(",1") for line in out.splitlines())),
}


def _salem_lines() -> list[tuple[str, str, str]]:
    """(command, pipe, comment) of each salem line of the sh blocks, split
    at ' |' and ' #'."""
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.splitlines():
            line, _, comment = line.partition(" #")
            line, _, pipe = line.partition(" |")
            if line.startswith("salem "):
                lines.append((line.strip(), pipe.strip(), comment.strip()))
    return lines


def _quoted(comment: str) -> list[str]:
    """The results a comment quotes: its key=value tokens and its leading
    number, trailing punctuation dropped."""
    tokens = [tok.rstrip(",:;") for tok in comment.split()]
    quoted = [tok for tok in tokens if re.fullmatch(r"[\w.]+=\S+", tok)]
    lead = re.match(r"-?\d[\d.,]*\d|\d", comment)
    return quoted + [lead.group()] if lead else quoted


def test_readme_covers_every_command():
    assert {line.split()[1] for line, _, _ in _salem_lines()} == {
        "census", "bianchi", "cocompact", "constants", "fit", "report"}
    # the lines of "Reproducing the tables" quote 13 results in all
    quoted = [q for _, _, comment in _salem_lines() for q in _quoted(comment)]
    assert "rows=3934" in quoted and "612" in quoted and "100000000,0.2112" in quoted
    assert len(quoted) == 13


@pytest.mark.parametrize("line,pipe,comment", _salem_lines(),
                         ids=[line for line, _, _ in _salem_lines()])
def test_readme_line_runs(line, pipe, comment, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(line)[1:])
    out, err = capsys.readouterr()
    assert code == 0, err
    tokens = PIPES[pipe](out).split()
    for quoted in _quoted(comment):
        assert quoted in tokens, (quoted, tokens[:8])
