"""Tests of the benchmark itself: its output checks, workload generator,
span bookkeeping and metric names.

    PYTHONPATH=src python -m pytest salembench
"""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from salemcensus import cli  # noqa: E402

GOOD = [
    workloads._census("sr", 40, out="sr.csv"),
    workloads._census("deg4", 15, "--format", "json", out="deg4.json"),
    workloads._census("deg2", 50),
    workloads._fit("deg4", 800),
    workloads._fit("sr", 800),
    workloads._fit("system", 1000, "--field", "2"),
    workloads.Command("bianchi-csv", ("bianchi", "--d", "3", "--qmax", str(10**8),
                                      "--out", "{out}/b.csv"), {"D": 3, "Q": 10**8}, "b.csv"),
    workloads.Command("cocompact-csv", ("cocompact", "--field", "5", "--qmax", "20",
                                        "--verified", "--out", "{out}/c.csv"),
                      {"d": 5, "Q": 20}, "c.csv"),
]


def produce(cmd: workloads.Command, tmp_path: Path, capsys) -> bytes:
    assert cli.main(cmd.resolved(str(tmp_path))) == 0
    stdout = capsys.readouterr().out.encode()
    return (tmp_path / cmd.out).read_bytes() if cmd.out else stdout


def check(cmd, data: bytes) -> list[str]:
    return checks.check(cmd, data, random.Random(0), checks.prepare(cmd))[0]


@pytest.mark.parametrize("cmd", GOOD, ids=lambda c: c.key)
def test_checks_accept_known_good_output(cmd, tmp_path, capsys):
    assert check(cmd, produce(cmd, tmp_path, capsys)) == []


def _replace_row(data: bytes, row: str) -> bytes:
    lines = data.decode().split("\n")
    lines[1] = row
    return "\n".join(lines).encode()


def test_checks_reject_reducible_row(tmp_path, capsys):
    cmd = GOOD[0]
    # a^2 - 4b + 8 = 25 for (a, b) = (-5, 2)
    bad = _replace_row(produce(cmd, tmp_path, capsys), "-5,2,,1.5,direct")
    assert any("Salem predicate" in e for e in check(cmd, bad))


def test_checks_reject_row_above_the_cut(tmp_path, capsys):
    # (-40, -81) is a square-rootable Salem quartic with lambda near 41.9
    cmd = workloads._census("sr", 30, out="sr.csv")
    bad = _replace_row(produce(cmd, tmp_path, capsys), "-40,-81,1,41.9,direct")
    assert checks.is_salem(-40, -81) and checks.p_at(-40, -81, 30) < 0
    assert any("above the cut" in e for e in check(cmd, bad))


def test_checks_reject_wrong_deg2_count():
    assert check(GOOD[2], b"49\n")
    assert not check(GOOD[2], b"48\n")


def test_sr_oracle_matches_the_row_count(tmp_path, capsys):
    cmd = workloads._census("sr", 120, out="sr.csv")
    rows = produce(cmd, tmp_path, capsys).decode().count("\n") - 1
    assert checks.sr_count(120) == rows


def test_workloads_are_seeded_and_pin_one_worker():
    for name in workloads.WHY:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        assert a == b
        assert all(c.argv[c.argv.index("--workers") + 1] == "1" for c in a)
    base = workloads.build("census-enum", 1)[0].params["Q"]
    for seed in range(20):
        q = workloads.build("census-enum", seed)[0].params["Q"]
        assert abs(q / base - 1) <= 2.5 * workloads.BAND


def test_self_times_subtract_child_spans():
    spans = [
        ["cli.main", 0.0, 1.0, None, 1, 1.0],
        ["bianchi.csv_row", 0.1, 0.9, 0, 100, 0.4],
        ["quartics.salem_value", 0.1, 0.9, 1, 100, 0.1],
        ["asymptotics.power_fit", 0.95, 0.97, 0, 1, 0.02],
    ]
    got = run.self_times(spans)
    assert got == pytest.approx({"cli.main": 0.58, "bianchi.csv_row": 0.3,
                                 "quartics.salem_value": 0.1, "asymptotics.power_fit": 0.02})
    assert sum(got.values()) == pytest.approx(1.0)


def _outcome(trace=None) -> run.Outcome:
    return run.Outcome(code=0, wall=1.5, cpu=1.4, rss_mb=100.0, rows=3, nbytes=30, trace=trace)


def test_metric_names_match_the_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)

    trace = {"import_s": 0.3, "code": 0, "counters": {},
             "spans": [["cli.main", 0.0, 1.0, None, 1, 1.0]]}
    passes = [([_outcome()], [_outcome(trace)])]
    assert set(run.end_to_end(passes, 0.3)) == {m["name"] for m in spec["end_to_end"]}
    assert set(run.per_layer(passes)) == {m["name"] for m in spec["per_layer"]}


def test_traced_command_accounts_for_its_layers(tmp_path):
    spans_path = tmp_path / "spans.json"
    out = tmp_path / "b.csv"
    subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), str(spans_path),
         "bianchi", "--d", "3", "--qmax", str(10**6), "--out", str(out)],
        env=run.child_env(), check=True, timeout=60,
    )
    trace = json.loads(spans_path.read_text())
    rows = out.read_text().count("\n") - 1
    names = {s[0] for s in trace["spans"]}
    assert names == {"cli.main", "bianchi.census", "bianchi.csv_row", "quartics.salem_value"}
    assert trace["counters"]["bianchi.members"] == rows
    assert trace["counters"]["quartics.lift_calls"] == rows
    main = next(s for s in trace["spans"] if s[0] == "cli.main")
    assert sum(run.self_times(trace["spans"]).values()) == pytest.approx(main[5])
