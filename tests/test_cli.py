import hashlib
import importlib.util
import json
import os
import re
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import salemcensus
from salemcensus import asymptotics, bianchi, census, cli, totally_real
from salemcensus.cli import main
from salemcensus.errors import CapacityError, DomainError
from salemcensus.quartics import salem_value

from oracles import (
    bianchi_json_obj,
    census_record_texts,
    census_table,
    enumerate_deg4_filter,
    enumerate_sr_filter,
    enumerate_system_walk,
    multiplicity_csv_row,
    system_qmin,
    system_record_texts,
    verify_salem_over_L_exact,
    volume_monte_carlo,
)


# A script that makes census._census_rows fail after its first 5 rows.
FAILING_ROWS = ("from salemcensus import census, cli\nreal = census._census_rows\n"
                "def failing(which, Q):\n    for i, row in enumerate(real(which, Q)):\n"
                "        if i == 5:\n            raise cli.CapacityError('injected')\n"
                "        yield row\n")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCensusCommands:
    def test_deg2_prints_count(self, capsys):
        code, out, _ = run(capsys, "census", "deg2", "--qmax", "10")
        assert code == 0 and out.strip() == "8"

    def test_sr_csv(self, capsys):
        code, out, _ = run(capsys, "census", "sr", "--qmax", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "a,b,k,lambda,source"
        assert lines[1] == "-1,-3,1,2.36920540709,direct"

    def test_deg4_json_strings_for_integers(self, capsys):
        code, out, _ = run(capsys, "census", "deg4", "--qmax", "2", "--format", "json")
        assert code == 0
        objs = json.loads(out)
        assert {"a": "-1", "b": "-1", "k": None,
                "lambda": pytest.approx(1.722083805739043),
                "source": "direct"} in [
            {**o, "lambda": pytest.approx(o["lambda"])} for o in objs]

    def test_dry_run_plan(self, capsys):
        # the largest Q whose deg4 table fits cli.MAX_ROWS: 2 (Q-1)^2 rows
        code, out, _ = run(capsys, "census", "deg4", "--qmax", "7072", "--dry-run")
        assert code == 0 and out == ("plan command=census-deg4 qmax=7072 "
                                     "rows=99998082 work=99998082\n")
        code, out, err = run(capsys, "census", "deg4", "--qmax", "7073", "--dry-run")
        assert code == 4 and out == "" and "needs up to 100026368 rows" in err

    def test_plot_data(self, capsys):
        code, out, _ = run(capsys, "census", "sr", "--qmax", "64", "--plot-data")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "Q,normalized_count"
        assert lines[-1].startswith("64,")


class TestCensusTables:
    """census deg4|sr format each row of a straight from its integer
    interval; the bytes are those of the record-by-record writer in
    tests/oracles.py."""

    @staticmethod
    def _qmin(rec) -> int:
        """Smallest Q >= 2 with lambda <= Q, by the exact test p(Q) >= 0."""
        def p(q):
            return q**4 + rec.a * q**3 + rec.b * q * q + rec.a * q + 1
        q = max(2, int(rec.lambda_approx))
        while p(q) < 0:
            q += 1
        while q > 2 and p(q - 1) >= 0:
            q -= 1
        return q

    @pytest.mark.parametrize("which, qmax", [("sr", 300), ("deg4", 100)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_equal_the_record_writer(self, capsys, tmp_path, monkeypatch, which, qmax, fmt):
        # every Q below qmax; a deg4 table holds 2 (Q-1)^2 rows, so its range is shorter.
        # The records come from the per-candidate filters of tests/oracles.py and lambda
        # from quartics.salem_value, which share no walk with the census kernel
        enum = enumerate_sr_filter if which == "sr" else enumerate_deg4_filter
        # the members at Q are those at qmax - 1 with lambda <= Q, in the same order
        records = [census.CensusRecord(a, b, k, salem_value((a, b)))
                   for a, b, k in enum(qmax - 1)]
        texts = census_record_texts(records, fmt)
        qmins = [self._qmin(r) for r in records]
        path = tmp_path / "t"
        for Q in range(2, qmax):
            want = census_table([t for t, q in zip(texts, qmins) if q <= Q], fmt)
            argv = ["census", which, "--qmax", str(Q), "--format", fmt]
            assert main(argv) == 0
            assert capsys.readouterr().out == want, Q
            # split the rows into many chunks; with one candidate a block, each
            # reducible point fills a block alone, which must be dropped
            for block_rows in (7, 1) if Q < (80 if which == "sr" else 40) else (7,):
                with monkeypatch.context() as m:
                    m.setattr(cli, "BLOCK_ROWS", block_rows)
                    assert main([*argv, "--out", str(path)]) == 0
                assert path.read_text() == want, (Q, block_rows)

    @staticmethod
    def _chunks(argv) -> tuple[list[str], int]:
        """The output of argv's plan, and the records it plans."""
        args = cli._parse(list(argv))
        plan = args.plan(args)
        return list(plan.run()), plan.rows()

    def test_chunks_hold_at_most_block_rows(self, monkeypatch):
        chunks, _ = self._chunks(["census", "deg4", "--qmax", "600"])
        assert chunks[0] == census.CENSUS_CSV_HEADER + "\n"
        sizes = [c.count("\n") for c in chunks[1:]]
        assert max(sizes) <= cli.BLOCK_ROWS and sum(sizes) == census.count_salem_deg4(600)
        # row a = -598, the longest, holds 2,388 members: 4n - 1 less the
        # reducible b = -597, 2, 599, one in its first chunk and two in its second
        assert [n for c, n in zip(chunks[1:], sizes) if c.startswith("-598,")] == [1023, 1022, 343]
        # every table, empty ones included: an empty chunk would break _json_list's
        # framing; each chunk holds 1..BLOCK_ROWS records, and they total the plan's rows.
        # At one candidate a block, a census block that holds only a reducible point
        # must be dropped, not written empty
        for block_rows in (1, 7):
            monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
            for argv in (("census", "deg4", "--qmax", "60"), ("census", "sr", "--qmax", "300"),
                         ("census", "sr", "--qmax", "2"), ("bianchi", "--d", "3", "--qmax", "100000"),
                         ("bianchi", "--d", "3", "--qmax", "2"),
                         ("cocompact", "--field", "5", "--qmax", "20", "--verified"),
                         ("cocompact", "--field", "2", "--qmax", "10"),
                         ("report", "multiplicity", "--n", "6", "--ell-max", "30", "--step", "1")):
                for fmt in ("csv", "json"):
                    chunks, rows = self._chunks([*argv, "--format", fmt])
                    # a CSV's first chunk is its header; a JSON chunk starts "[\n" or ",\n",
                    # and its last one closes the list
                    sizes = ([len(json.loads(f"[{c[2:]}]")) for c in chunks[:-1]] if fmt == "json"
                             else [c.count("\n") for c in chunks[1:]])
                    assert all(0 < n <= block_rows for n in sizes), (argv, fmt, block_rows)
                    assert sum(sizes) == rows and (rows == 0) == (argv[-1] == "2"), (argv, fmt)


class TestCocompactTables:
    """cocompact formats each solution straight from totally_real.system_rows'
    integer tuple; the bytes are those of the solution-by-solution writer in
    tests/oracles.py, on the float-seeded walk and the general exact
    verifier."""

    @pytest.mark.parametrize("d", [2, 3, 5, 13, 101])
    def test_bytes_equal_the_solution_writer(self, capsys, tmp_path, monkeypatch, d):
        # the solutions at Q are those at 120 whose a has system_qmin <= Q, in order
        full = enumerate_system_walk(d, 120)
        qmins = [system_qmin(d, (au, av)) for au, av, *_ in full]
        oks = [verify_salem_over_L_exact(d, (au, av), (ku, kv)) for au, av, ku, kv, _ in full]
        assert 0 < sum(oks) < len(oks)
        path = tmp_path / "t"
        for fmt in ("csv", "json"):
            for verified in (None, oks):
                texts = system_record_texts(d, full, verified, fmt)
                for Q in (2, 3, 17, 50, 120):
                    header = f"# field={d} qmax={Q}\n{totally_real.SYSTEM_CSV_HEADER}"
                    want = census_table([t for t, q in zip(texts, qmins) if q <= Q], fmt, header)
                    argv = ["cocompact", "--field", str(d), "--qmax", str(Q), "--format", fmt,
                            *(["--verified"] if verified else [])]
                    assert main(argv) == 0
                    assert capsys.readouterr().out == want, (Q, argv)
                    with monkeypatch.context() as m:  # split the rows into many chunks
                        m.setattr(cli, "BLOCK_ROWS", 7)
                        assert main([*argv, "--out", str(path)]) == 0
                    assert path.read_text() == want, (Q, argv)


# Each command's flags that it does not read, all usage errors, after the
# argv that runs without them.
UNREAD_FLAGS = {
    "census deg4 --qmax 10": ["--seed 1"],
    "census sr --qmax 10": ["--seed 1"],
    "census deg2 --qmax 10": ["--seed 1", "--format json"],
    "bianchi --d 1 --qmax 50": ["--seed 1"],
    "cocompact --field 2 --qmax 10": ["--seed 1"],
    "constants --omega 2": ["--format json", "--plot-data", "--mc-samples 10", "--seed 1"],
    "fit --series sr --qgrid 1000,2000,4000": ["--seed 1", "--format json"],
    "report multiplicity --n 4 --ell-max 10 --step 2": ["--seed 1", "--plot-data"],
}


def _error_detail(err: str) -> str:
    """The unescaped detail of a one-line salem-error."""
    m = re.fullmatch(r'salem-error kind=\w+ detail="((?:[^"\\]|\\.)*)"\n', err)
    return re.sub(r"\\(.)", r"\1", m.group(1))


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        argvs = [["census", "deg2"]]  # missing --qmax
        for base, flags in UNREAD_FLAGS.items():
            assert main([*base.split(), "--dry-run"]) == 0
            argvs += [[*base.split(), *flag.split()] for flag in flags]
        assert len(argvs) == 15
        capsys.readouterr()
        for argv in argvs:
            assert main(argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("salem-error kind=usage "), argv

    # a flag is named in full: argparse took these prefixes of --qmax, --plot-data,
    # --verified and --field
    PREFIXES = [["census", "sr", "--q", "10"], ["census", "sr", "--qmax", "10", "--plot"],
                ["cocompact", "--field", "5", "--qmax", "20", "--ver"],
                ["fit", "--series", "system", "--fi", "2", "--qgrid", "10,20,40"]]

    def test_usage_errors_are_one_line(self, capsys):
        # help exits 0 on stdout; every other argv that the table refuses exits 2 with
        # one salem-error line on stderr and nothing on stdout
        helps = [["--help"], ["-h"], ["census", "--help"], ["census", "sr", "--help"],
                 ["bianchi", "--help"], ["fit", "--qgrid", "x", "-h"]]
        errors = [["census", "deg2"], [], ["bogus"], ["censu"], ["census"], ["report"],
                  ["census deg2", "x", "--qmax", "5"],
                  ["--out", "x", "census"], ["census", "deg2", "--qmax", "5", "extra"],
                  ["census", "deg2", "--qmax", "5", "--"], ["census", "deg2", "--qmax"],
                  ["census", "deg2", "--qmax", "five"], ["census", "deg2", "--qmax", "--dry-run"],
                  ["census", "sr", "--qmax", "5", "--format", "xml"],
                  ["census", "sr", "--qmax", "5", "--dry-run=yes"],
                  ["constants", "--volume", "2", "1.0"], ["constants", "--volume=2"],
                  *self.PREFIXES]
        for base, flags in UNREAD_FLAGS.items():
            errors += [[*base.split(), *flag.split()] for flag in flags]
        for argv in helps:
            code, out, err = run(capsys, *argv)
            assert code == 0 and out.startswith("usage: salem ") and err == "", argv
        for argv in errors:
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err.startswith("salem-error kind=usage ") and _error_detail(err), argv

    def test_domain_error_is_3(self, capsys):
        code, _, err = run(capsys, "bianchi", "--d", "12", "--qmax", "100")
        assert code == 3
        assert err.count("\n") == 1 and "kind=domain" in err
        # a " or \ in the detail is escaped, so the quoted field ends where it should
        qgrid = '1,x"y\\z'
        code, out, err = run(capsys, "fit", "--series", "sr", "--qgrid", qgrid)
        assert code == 3 and out == "" and err.startswith("salem-error kind=domain ")
        assert _error_detail(err) == f"--qgrid expects comma-separated integers, got {qgrid!r}"
        # --plot-data writes no table, so it refuses the flags that only a table reads,
        # dry run or not
        for argv, flag in ((("cocompact", "--field", "5", "--verified"), "--verified"),
                           (("census", "sr", "--format", "json"), "--format json"),
                           (("bianchi", "--d", "3", "--format", "json"), "--format json"),
                           (("cocompact", "--field", "5", "--format=json"), "--format json")):
            for extra in ((), ("--dry-run",)):
                code, out, err = run(capsys, *argv, "--qmax", "20", "--plot-data", *extra)
                assert code == 3 and out == "", argv
                assert _error_detail(err) == f"{flag} cannot be combined with --plot-data"

    def test_workers_below_one_is_3(self, capsys):
        code, out, err = run(capsys, "census", "deg2", "--qmax", "10", "--workers", "0")
        assert code == 3 and out == "" and "--workers must be >= 1" in err

    def test_qmax_too_small_is_3(self, capsys):
        code, _, err = run(capsys, "census", "deg4", "--qmax", "1")
        assert code == 3 and "kind=domain" in err
        # the plan calls the run's own check, with the flag's name
        for argv, minimum in ((("census", "deg2"), 3), (("bianchi", "--d", "3"), 2),
                              (("cocompact", "--field", "5"), 2)):
            for extra in ((), ("--dry-run",)):
                code, out, err = run(capsys, *argv, "--qmax", "1", *extra)
                assert code == 3 and out == ""
                assert _error_detail(err) == f"--qmax must be an integer >= {minimum}, got 1"

    # a usage, a domain and a capacity error
    ERRORS = [(("census", "sr", "--q", "10"), 2), (("census", "deg2", "--qmax", "2"), 3),
              (("constants", "--omega", "121"), 4)]

    @pytest.mark.parametrize("argv, code", ERRORS)
    def test_a_closed_stderr_keeps_the_exit_code(self, argv, code):
        # a shell's 2>&- leaves fd 2 closed: the line is lost, the exit code stands
        env = dict(os.environ, PYTHONPATH=str(Path(salemcensus.__file__).parents[1]))
        proc = subprocess.run(["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m",
                               "salemcensus.cli", *argv], env=env, stdout=subprocess.PIPE)
        assert (proc.returncode, proc.stdout) == (code, b"")

    @pytest.mark.parametrize("argv, code", ERRORS)
    def test_no_stderr_writes_nothing_on_stdout(self, capsys, monkeypatch, argv, code):
        # sys.stderr None, as Python leaves it when fd 2 is closed at its start
        monkeypatch.setattr(sys, "stderr", None)
        assert main(list(argv)) == code
        assert capsys.readouterr().out == ""

    def test_capacity_error_is_4(self, capsys):
        code, _, err = run(capsys, "report", "multiplicity", "--n", "4",
                           "--ell-max", "1000", "--step", "1000")
        assert code == 4 and "kind=capacity" in err
        # a finite H, DELTA or QMAX whose leading volume overflows a double, and one
        # whose leading volume fits while the exact one, above it, overflows
        for which, h, delta, q in (("leading", "2", "1e308", "100"),
                                   ("leading", "100000", "1", "100"),
                                   ("leading", "1", "1", str(10**300)),
                                   ("exact", "1", "1e154", "1")):
            for extra in ((), ("--dry-run",)):
                code, out, err = run(capsys, "constants", "--volume", h, delta, q, *extra)
                assert code == 4 and out == ""
                assert _error_detail(err) == (f"the {which} volume overflows a double at "
                                              f"h={h}, delta={float(delta)}, Q={q}")


def _benchmark_argvs(outdir: str) -> list[list[str]]:
    """The argv of each command of the benchmark's workloads at seed 1,
    writing under outdir."""
    path = Path(__file__).resolve().parents[1] / "salembench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("salembench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look it up
    try:
        spec.loader.exec_module(workloads)
        return [cmd.resolved(outdir) for name in workloads.WHY for cmd in workloads.build(name, 1)]
    finally:
        del sys.modules[spec.name]


# A value each flag accepts, for the flag tests below.
FLAG_VALUES = {"--out": os.devnull, "--workers": "1", "--format": "json", "--qmax": "10",
               "--d": "3", "--field": "2", "--omega": "2", "--marklof-c": "3", "--c2-bound": "5",
               "--volume": "2 1.0 100", "--series": "sr", "--qgrid": "10,20,40", "--n": "4",
               "--ell-max": "10", "--step": "2", "--seed": "1", "--mc-samples": "10"}


class TestParser:
    def test_each_command_accepts_only_the_flags_it_reads(self, capsys):
        every = {"--help", "--out", "--workers", "--dry-run"}
        table, plot = {"--format"}, {"--plot-data"}
        want = {
            "census deg4": every | table | plot | {"--qmax"},
            "census sr": every | table | plot | {"--qmax"},
            "census deg2": every | plot | {"--qmax"},
            "bianchi": every | table | plot | {"--d", "--qmax"},
            "cocompact": every | table | plot | {"--field", "--qmax", "--verified"},
            "constants": every | {"--omega", "--marklof-c", "--c2-bound", "--volume"},
            "fit": every | plot | {"--series", "--qgrid", "--d", "--field"},
            "report multiplicity": every | table | {"--n", "--ell-max", "--step"},
        }
        assert {name: {*command.flags, "--help"} for name, command in cli.COMMANDS.items()} == want
        # after the argv that runs without it, a flag of the command is never a usage
        # error, and every other flag is one
        bases = {cli._command_words(base.split()): base for base in UNREAD_FLAGS}
        for name, flags in want.items():
            for flag in set().union(*want.values(), FLAG_VALUES) - {"--help"}:
                argv = [*bases[name].split(), flag, *FLAG_VALUES.get(flag, "").split(),
                        "--dry-run"]
                code, out, err = run(capsys, *argv)
                if flag in flags:
                    assert code != 2, (argv, err)
                else:
                    assert code == 2 and out == "", argv
                    assert _error_detail(err) == f"{name} does not take {flag}", argv

    def test_parse_builds_the_namespace(self):
        # the namespace of argparse's parse_args: --flag value and --flag=value, the last
        # of a repeated flag, a negative number as a value, and the values of --volume
        assert vars(cli._parse(["census", "sr", "--qmax", "5", "--format=json", "--qmax=-7",
                                "--plot-data"])) == {
            "command": "census", "which": "sr", "plan": cli._plan_table, "qmax": -7, "format": "json", "plot_data": True, "out": None, "workers": 1,
            "dry_run": False}
        assert vars(cli._parse(["report", "multiplicity", "--step", "-.5", "--n", "4",
                                "--ell-max", "1e3", "--out", "-"])) == {
            "command": "report", "which": "multiplicity", "plan": cli._plan_report,
            "n": 4, "ell_max": 1000.0, "step": -0.5, "format": "csv", "out": "-",
            "workers": 1, "dry_run": False}
        assert vars(cli._parse(["constants", "--volume", "2", "-1", "1e4"])) == {
            "command": "constants", "plan": cli._plan_constants, "omega": None,
            "marklof_c": None, "c2_bound": None, "volume": ["2", "-1", "1e4"], "out": None,
            "workers": 1, "dry_run": False}
        assert cli._parse(["fit", "--qgrid", "-1, 2", "--series", "deg2"]).qgrid == "-1, 2"

    def test_negative_values_reach_the_plan(self, capsys):
        for argv in (("census", "sr", "--qmax", "-5"), ("census", "sr", "--qmax=-5"),
                     ("bianchi", "--d", "-3", "--qmax", "10"),
                     ("constants", "--volume", "2", "-1.0", "100"),
                     # a negative number in any syntax that float() reads
                     ("report", "multiplicity", "--n", "4", "--ell-max", "-1e5", "--step", "1"),
                     ("report", "multiplicity", "--n", "4", "--ell-max", "-inf", "--step", "1"),
                     ("constants", "--volume", "2", "-1e-3", "100")):
            code, out, err = run(capsys, *argv)
            assert code == 3 and out == "" and err.startswith("salem-error kind=domain "), argv

    def test_help_is_built_from_the_table(self, capsys):
        code, out, err = run(capsys, "--help")
        assert code == 0 and err == "" and all(f"  {name} " in out for name in cli.COMMANDS)
        code, out, _ = run(capsys, "census", "-h")
        assert [line.split()[:2] for line in out.splitlines() if line.startswith("  census")] == [
            ["census", "deg4"], ["census", "sr"], ["census", "deg2"]]
        for name, command in cli.COMMANDS.items():
            code, out, err = run(capsys, *name.split(), "--help")
            assert code == 0 and err == "" and out.startswith(f"usage: salem {name} ")
            assert command.help in out
            for flag, spec in command.flags.items():
                assert f"\n  {flag}" in out and spec.help in out, (name, flag)

    def test_benchmark_argv_parse(self):
        argvs = _benchmark_argvs("out")
        assert len(argvs) == 8
        for argv in argvs:
            assert cli._parse(argv).plan is not None, argv


class TestBianchiCommand:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "bianchi", "--d", "1", "--qmax", "50")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "A,B,a_lift,b_lift,k,lambda,num_witness_traces"
        assert any(line.startswith("-5,-8,-41,16,10,") for line in lines)

    def test_json_witnesses(self, capsys):
        code, out, _ = run(capsys, "bianchi", "--d", "1", "--qmax", "50",
                           "--format", "json")
        objs = json.loads(out)
        assert code == 0 and all("witnesses" in o for o in objs)

    @pytest.mark.parametrize("D", [1, 2, 3, 7])
    def test_json_bytes_equal_the_object_writer(self, capsys, monkeypatch, D):
        # the % template against json.dumps of the oracles' bianchi_json_obj, chunked or not
        for Q, block_rows in ((2, 1024), (30, 1024), (10**4, 7), (10**8, 1024)):
            members = list(bianchi.bianchi_census(D, Q).members())
            want = json.dumps([bianchi_json_obj(D, m) for m in members], indent=2) + "\n"
            monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
            code, out, _ = run(capsys, "bianchi", "--d", str(D), "--qmax", str(Q),
                               "--format", "json")
            assert code == 0 and out == want, (Q, block_rows)

    def test_members_stream_in_bounded_memory(self, capsys, tmp_path):
        # 49,487 members at Q = 3e9 against 4,913 at 3e7: no member list is held
        peaks = []
        for qmax in ("30000000", "3000000000"):
            tracemalloc.start()
            try:
                code = main(["bianchi", "--d", "3", "--qmax", qmax,
                             "--out", str(tmp_path / "b.csv")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] - peaks[0] < 2 * 2**20, peaks

    def test_workers_are_accepted_and_unused(self, capsys, tmp_path):
        f1, f2 = tmp_path / "w1.csv", tmp_path / "w3.csv"
        for path, workers in ((f1, "1"), (f2, "3")):
            assert main(["bianchi", "--d", "7", "--qmax", "1000000", "--out", str(path),
                         "--workers", workers]) == 0
        assert f1.read_bytes() == f2.read_bytes()


class TestCocompactCommand:
    def test_csv_header_comment(self, capsys):
        code, out, _ = run(capsys, "cocompact", "--field", "2", "--qmax", "10")
        assert code == 0
        lines = out.split("\n")
        assert lines[0] == "# field=2 qmax=10"
        assert lines[1] == "a_u,a_v,k_u,k_v,b_u,b_v,branch,verified"
        assert len(lines) > 400  # 447 solutions

    def test_verified_column(self, capsys):
        code, out, _ = run(capsys, "cocompact", "--field", "2", "--qmax", "5",
                           "--verified")
        assert code == 0
        rows = out.strip().split("\n")[2:]
        assert all(row.rsplit(",", 1)[1] in ("0", "1") for row in rows)


class TestConstantsCommand:
    def test_omega_exact_rational(self, capsys):
        code, out, _ = run(capsys, "constants", "--omega", "1")
        assert code == 0 and out.strip() == "2/1"
        code, out, _ = run(capsys, "constants", "--omega", "2")
        assert out.strip() == "32/9"

    def test_marklof(self, capsys):
        code, out, _ = run(capsys, "constants", "--marklof-c", "1")
        assert code == 0 and out.strip() == "0.785398163397"

    def test_c2_bound(self, capsys):
        code, out, _ = run(capsys, "constants", "--c2-bound", "5")
        assert code == 0 and out.strip().startswith("328.706")

    def test_volume_with_mc(self, capsys):
        code, out, _ = run(capsys, "constants", "--volume", "2", "0", "1")
        assert code == 0 and out == "volume_leading=128\nvolume_exact=1024\n"
        code, out, _ = run(capsys, "constants", "--volume", "2", "1.0", "10000")
        assert code == 0 and out == ("volume_leading=213333333.333\n"
                                     "volume_exact=215062146.132\n")
        # the printed exact volume against the Monte Carlo oracle, which the leading
        # term alone (0.8% lower) would miss
        est = volume_monte_carlo(2, 1.0, 10000, samples=1_000_000, seed=5)
        assert est == pytest.approx(215062146.132, rel=0.004)

    def test_requires_exactly_one(self, capsys):
        code, _, err = run(capsys, "constants")
        assert code == 3 and "kind=domain" in err

    def test_dry_run(self, capsys):
        code, out, _ = run(capsys, "constants", "--omega", "3", "--dry-run")
        assert code == 0 and out == "plan command=constants which=omega rows=1 work=1\n"
        code, out, _ = run(capsys, "constants", "--volume", "2", "1.0", "100", "--dry-run")
        assert code == 0 and out == "plan command=constants which=volume rows=2 work=1\n"

    # the detail of each refused argv: the plan makes the library's check, named by the flag
    DETAILS = {
        ("--omega", "0"): "--omega must be an integer >= 1, got 0",
        ("--volume", "0", "1.0", "100"): "--volume H must be an integer >= 1, got 0",
        ("--volume", "2", "-1.0", "100"): "--volume DELTA must be finite and >= 0, got -1.0",
        ("--volume", "2", "nan", "100"): "--volume DELTA must be finite and >= 0, got nan",
        ("--volume", "2", "inf", "100"): "--volume DELTA must be finite and >= 0, got inf",
        ("--volume", "2", "1.0", "0"): "--volume QMAX must be an integer >= 1, got 0",
        ("--volume", "2", "1.0", "1e4"): "--volume expects H DELTA QMAX, got ['2', '1.0', '1e4']",
    }

    @pytest.mark.parametrize("argv", list(DETAILS))
    def test_dry_run_validates_like_the_run(self, capsys, argv):
        for extra in ((), ("--dry-run",)):
            code, out, err = run(capsys, "constants", *argv, *extra)
            assert code == 3 and out == "" and err.startswith("salem-error kind=domain")
            assert _error_detail(err) == self.DETAILS[argv]

    def test_omega_limit(self, capsys):
        code, out, _ = run(capsys, "constants", "--omega", "120")
        num, den = out.strip().split("/")
        assert code == 0 and int(num) > 0 and int(den) > 0
        for m in ("121", "1000000"):
            t0 = time.perf_counter()
            code, out, err = run(capsys, "constants", "--omega", m)
            assert time.perf_counter() - t0 < 1.0
            assert code == 4 and out == "" and err.startswith("salem-error kind=capacity")

    @pytest.fixture
    def least_int_digits(self):
        """Python's least int-to-str limit, PYTHONINTMAXSTRDIGITS=640, for one test."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        yield
        sys.set_int_max_str_digits(limit)

    def test_omega_past_the_int_to_str_limit(self, capsys, least_int_digits):
        # omega(120)'s denominator has 4285 digits
        for extra in ((), ("--dry-run",)):
            code, out, err = run(capsys, "constants", "--omega", "120", *extra)
            assert code == 4 and out == "" and err.startswith("salem-error kind=capacity")
            assert _error_detail(err) == ("--omega 120: omega has more digits than the "
                                          "int-to-str limit of 640")


class TestFitCommand:
    def test_deg2_series_is_linear(self, capsys):
        code, out, _ = run(capsys, "fit", "--series", "deg2",
                           "--qgrid", "100,200,400,800,1600")
        assert code == 0
        val = dict(tok.split("=") for tok in out.strip().split("\n")[0].split())
        assert abs(float(val["exponent"]) - 1.0) < 0.02
        assert val["points_used"] == "5"

    def test_plot_data_appended(self, capsys):
        code, out, _ = run(capsys, "fit", "--series", "sr",
                           "--qgrid", "50,100,200", "--plot-data")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "Q,normalized_count"
        assert len(lines) == 5

    @pytest.mark.parametrize("series", list(cli.SERIES))
    def test_series_table_holds_the_library_minimum(self, capsys, series):
        # the least Q of each series is the one its count accepts: fit and the table
        # command's --plot-data take it and refuse the integer below it, with the field
        # flag at its least value, which the library accepts and refuses below
        table, flag, least, qmin = cli.SERIES[series][:4]
        field = (flag, str(least)) if flag else ()
        count = cli._kernel(SimpleNamespace(d=least, field=least), series)[2]
        assert count(qmin) >= 0
        with pytest.raises(DomainError):
            count(qmin - 1)
        for q, code in ((qmin, 0), (qmin - 1, 3)):
            qgrid = f"{q},{q + 1},{q + 2}"
            got, out, err = run(capsys, "fit", "--series", series, *field, "--qgrid", qgrid,
                                "--dry-run")
            assert got == code, (qgrid, err)
            if code:
                assert _error_detail(err) == f"--qgrid must be an integer >= {qmin}, got {q}"
            got, out, err = run(capsys, *table.split(), *field, "--qmax", str(q), "--plot-data")
            assert got == code, (table, q, err)
            if code:
                assert _error_detail(err) == f"--qmax must be an integer >= {qmin}, got {q}"
            else:  # one grid point, Q itself
                assert out.startswith(f"Q,normalized_count\n{q},") and out.count("\n") == 2
        if flag:
            got, out, err = run(capsys, "fit", "--series", series, flag, str(least - 1),
                                "--qgrid", f"{qmin},{qmin + 1},{qmin + 2}", "--dry-run")
            assert got == 3 and _error_detail(err) == (
                f"{flag} must be a square-free integer >= {least}, got {least - 1}")

    def test_series_and_commands_agree(self):
        # each series names a table command that takes --plot-data, and each command but
        # fit that takes --plot-data is the table command of exactly one series
        tables = [row[0] for row in cli.SERIES.values()]
        assert all("--plot-data" in cli.COMMANDS[table].flags for table in tables)
        plotted = [name for name, command in cli.COMMANDS.items()
                   if name != "fit" and "--plot-data" in command.flags]
        assert all(tables.count(name) == 1 for name in plotted)

    def test_bianchi_series_requires_d(self, capsys):
        code, _, err = run(capsys, "fit", "--series", "bianchi",
                           "--qgrid", "100,200,400")
        assert code == 3 and "kind=domain" in err

    @pytest.mark.parametrize("series, qgrid", [("deg4", "10,10,10"), ("deg2", "3,3,4")])
    def test_fewer_than_three_distinct_q_is_3(self, capsys, series, qgrid):
        for extra in ((), ("--dry-run",)):
            code, out, err = run(capsys, "fit", "--series", series, "--qgrid", qgrid, *extra)
            assert code == 3 and out == "" and err.count("\n") == 1
            assert err.startswith("salem-error kind=domain") and "distinct" in err

    def test_a_repeated_q_is_fitted_once(self, capsys):
        # the grid is a set of Q: a repeat changes neither the plan, the fit nor its plot
        for extra, want in (((), "points_used=3\n"), (("--plot-data",), "\n10,"),
                            (("--dry-run",), " qgrid=10,20,40 ")):
            outs = [run(capsys, "fit", "--series", "deg2", "--qgrid", qgrid, *extra)
                    for qgrid in ("10,10,20,40", "10,20,40", "40,20,10,20")]
            assert outs[0][0] == 0 and outs[0][1].count(want) == 1, extra
            assert outs[0] == outs[1] == outs[2], extra


class TestHugeBounds:
    """The integer counts are closed forms, so bounds near 1e18 answer at
    once instead of scanning every row."""

    def test_deg2_count(self, capsys):
        Q = 10**18
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "census", "deg2", "--qmax", str(Q))
        assert time.perf_counter() - t0 < 1.0
        assert code == 0 and out == f"{Q - 2}\n"

    def test_deg4_fit(self, capsys):
        qs = [10**16, 10**17, 10**18]
        t0 = time.perf_counter()
        code, out, _ = run(capsys, "fit", "--series", "deg4",
                           "--qgrid", ",".join(map(str, qs)), "--plot-data")
        assert time.perf_counter() - t0 < 1.0
        assert code == 0
        lines = out.strip().split("\n")
        val = dict(tok.split("=") for tok in lines[0].split())
        assert float(val["constant"]) == pytest.approx(2, rel=1e-9)
        assert float(val["exponent"]) == pytest.approx(2, rel=1e-9)
        assert val["points_used"] == "3"
        assert [ln.split(",")[0] for ln in lines[2:]] == [str(q) for q in qs]
        assert all(float(ln.split(",")[1]) == pytest.approx(2, rel=1e-9) for ln in lines[2:])


class TestInputGuards:
    """Inputs that would hang are refused up front: field parameters above
    1e18 with exit 3, tables whose work is above cli.MAX_ROWS rows and
    count series whose work is above cli.MAX_STEPS steps with exit 4."""

    def _timed(self, capsys, *argv):
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        return code, out, err

    def test_huge_field_refused(self, capsys):
        code, _, err = self._timed(capsys, "cocompact", "--field", "1000000000000000003",
                                   "--qmax", "10", "--dry-run")
        assert code == 3 and "kind=domain" in err and "--field must be <=" in err

    @pytest.mark.parametrize("argv", [
        ("bianchi", "--d", "1000000000000000001", "--qmax", "10"),
        ("constants", "--marklof-c", "1000000000000000001"),
        ("constants", "--c2-bound", "1000000000000000001"),
        ("fit", "--series", "system", "--field", "1000000000000000001",
         "--qgrid", "10,20,40"),
        ("cocompact", "--field", "1000000000000000001", "--qmax", "10"),
        ("fit", "--series", "bianchi", "--d", "1000000000000000001", "--qgrid", "10,20,40"),
    ])
    def test_every_field_flag_is_capped(self, capsys, argv):
        flag = argv[argv.index("1000000000000000001") - 1]
        for extra in ((), ("--dry-run",)):
            code, out, err = self._timed(capsys, *argv, *extra)
            assert code == 3 and out == ""
            assert err == (f'salem-error kind=domain detail="{flag} must be <= '
                           '1000000000000000000, got 1000000000000000001"\n')

    def test_prime_near_limit_accepted(self, capsys):
        p = 999_999_999_999_999_989  # the largest prime below 1e18
        code, out, _ = self._timed(capsys, "cocompact", "--field", str(p), "--qmax", "10",
                                   "--dry-run")
        assert code == 0 and out.startswith(f"plan command=cocompact field={p} ")

    @pytest.mark.parametrize("argv", [("census", "deg4", "--qmax", str(10**2200)),
                                      ("census", "sr", "--qmax", str(10**2900)),
                                      ("cocompact", "--field", "2", "--qmax", str(10**2900))])
    @pytest.mark.parametrize("extra", [(), ("--dry-run",)])
    def test_work_too_long_to_print(self, capsys, argv, extra):
        # a work with more digits than str() prints is given as a power of 2 above it
        code, out, err = self._timed(capsys, *argv, *extra)
        assert code == 4 and out == "" and err.count("\n") == 1
        bits = re.fullmatch(r'salem-error kind=capacity detail=".* needs up to 2\^(\d+) rows, '
                            r'above the limit of 100000000"\n', err).group(1)
        Q = int(argv[-1])
        if argv[1] == "deg4":
            assert int(bits) == census.count_salem_deg4(Q).bit_length()

    def test_bianchi_fit_over_budget(self, capsys):
        code, _, err = self._timed(
            capsys, "fit", "--series", "bianchi", "--d", "3",
            "--qgrid", ",".join(str(10**e) for e in (30, 31, 32)))
        assert code == 4 and "kind=capacity" in err and "steps" in err

    def test_bianchi_fit_counts_past_the_trace_budget(self, capsys):
        # 3.6e8 traces at Q = 1e17, but only 20,533 rows
        code, out, _ = run(capsys, "fit", "--series", "bianchi", "--d", "3",
                           "--qgrid", ",".join(str(10**e) for e in (15, 16, 17)))
        assert code == 0 and "points_used=3" in out
        exponent = float(dict(tok.split("=") for tok in out.split())["exponent"])
        assert exponent == pytest.approx(0.5, abs=1e-3)

    def test_bianchi_plot_data_counts_past_the_trace_budget(self, capsys):
        code, out, _ = run(capsys, "bianchi", "--d", "3", "--qmax", str(10**15),
                           "--plot-data")
        assert code == 0 and out.split("\n")[-2].startswith(f"{10**15},")

    @pytest.mark.parametrize("extra", [(), ("--dry-run",)])
    def test_bianchi_over_budget(self, capsys, extra):
        code, _, err = self._timed(capsys, "bianchi", "--d", "3",
                                   "--qmax", str(10**18), *extra)
        assert code == 4 and "kind=capacity" in err and "rows" in err

    @pytest.mark.parametrize("extra", [(), ("--dry-run",)])
    def test_census_table_over_budget(self, capsys, tmp_path, extra):
        # 2 (Q-1)^2 = 2e18 rows
        code, out, err = self._timed(capsys, "census", "deg4", "--qmax", str(10**9),
                                     "--out", str(tmp_path / "big.csv"), *extra)
        assert code == 4 and out == "" and "kind=capacity" in err and "rows" in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("which, count", [("deg4", census.count_salem_deg4),
                                              ("sr", census.count_sr)])
    def test_census_budget_boundary(self, capsys, monkeypatch, which, count):
        monkeypatch.setattr(cli, "MAX_ROWS", count(50))
        code, out, _ = run(capsys, "census", which, "--qmax", "50")
        assert code == 0 and out.count("\n") == count(50) + 1
        code, out, _ = run(capsys, "census", which, "--qmax", "50", "--dry-run")
        assert code == 0 and out == (f"plan command=census-{which} qmax=50 "
                                     f"rows={count(50)} work={count(50)}\n")
        monkeypatch.setattr(cli, "MAX_ROWS", count(50) - 1)
        for extra in ((), ("--dry-run",)):
            code, out, err = run(capsys, "census", which, "--qmax", "50", *extra)
            assert code == 4 and out == "" and "kind=capacity" in err
        # a count series writes no table
        code, out, _ = run(capsys, "census", which, "--qmax", "50", "--plot-data")
        assert code == 0 and out.split("\n")[-2].startswith("50,")

    @pytest.mark.parametrize("argv", [
        ("fit", "--series", "bianchi", "--qgrid", "10,20,40"),
        ("fit", "--series", "bianchi", "--d", "4", "--qgrid", "10,20,40"),
        ("fit", "--series", "system", "--qgrid", "10,20,40"),
        ("fit", "--series", "system", "--field", "9", "--qgrid", "10,20,40"),
        ("fit", "--series", "bianchi", "--d", "3",
         "--qgrid", ",".join(str(10**e) for e in (30, 31, 32))),
    ])
    def test_fit_dry_run_validates_like_the_run(self, capsys, argv):
        results = [self._timed(capsys, *argv, *extra) for extra in ((), ("--dry-run",))]
        assert results[0] == results[1]
        code, out, err = results[0]
        assert code in (3, 4) and out == "" and err.startswith("salem-error kind=")

    @pytest.mark.parametrize("argv, code, detail", [
        (("census", "deg4", "--qmax", str(10**200), "--plot-data"), 4,
         "--qmax: a count or Q^2 overflows a double"),
        (("census", "deg2", "--qmax", str(10**400), "--plot-data"), 4,
         "--qmax: a count or Q^1 overflows a double"),
        (("census", "sr", "--qmax", str(10**2900), "--plot-data"), 4,
         "--qmax: a count or Q^1.5 overflows a double"),
        (("fit", "--series", "deg4", "--qgrid", ",".join(str(10**e) for e in (400, 401, 402))),
         4, "--qgrid: a count or Q^2 overflows a double"),
        (("fit", "--series", "deg2", "--qgrid",
          "100000000000000000,100000000000000001,100000000000000002"), 3,
         "--qgrid needs at least 3 distinct Q as doubles, got 1"),
    ])
    def test_count_series_plan_refuses_what_its_run_refuses(self, capsys, argv, code, detail):
        # a Q whose count or Q^exponent is past a double, and a grid whose Q round to
        # fewer than 3 doubles, are refused by the plan: dry run and run end alike, and the
        # detail names the flag
        results = [self._timed(capsys, *argv, *extra) for extra in ((), ("--dry-run",))]
        assert results[0] == results[1]
        got, out, err = results[0]
        assert got == code and out == "" and _error_detail(err) == detail

    def test_a_zero_count_is_found_by_the_run(self, capsys):
        # only the run counts: its error names the Q whose count is 0
        argv = ("fit", "--series", "bianchi", "--d", "3", "--qgrid", "2,3,4")
        code, out, _ = run(capsys, *argv, "--dry-run")
        assert code == 0 and out.startswith("plan command=fit series=bianchi d=3 qgrid=2,3,4 ")
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert _error_detail(err) == "all points must be positive, got count 0 at Q = 2"

    @pytest.mark.parametrize("argv, flag, series", [
        (("--series", "deg2", "--qgrid", "3,4,5", "--d", "3"), "--d", "bianchi"),
        (("--series", "system", "--field", "2", "--qgrid", "10,20,40", "--d", "3"), "--d",
         "bianchi"),
        (("--series", "sr", "--qgrid", "10,20,40", "--field", "2"), "--field", "system"),
        (("--series", "bianchi", "--d", "3", "--qgrid", "10,20,40", "--field", "2"), "--field",
         "system"),
    ])
    def test_fit_refuses_flags_of_other_series(self, capsys, argv, flag, series):
        # --d and --field are read only by their own series, so elsewhere they are refused
        for extra in ((), ("--dry-run",)):
            code, out, err = self._timed(capsys, "fit", *argv, *extra)
            assert code == 3 and out == ""
            assert _error_detail(err) == f"{flag} is read only by --series {series}"

    def test_bianchi_plot_data_dry_run_plans_the_counts(self, capsys):
        # the table would write up to 1.15e9 rows; the plot counts 56 points
        argv = ("bianchi", "--d", "3", "--qmax", str(10**18), "--plot-data")
        code, out, _ = self._timed(capsys, *argv, "--dry-run")
        qs = cli._plot_grid("bianchi", 10**18)
        work = sum(bianchi.census_bounds(3, q)[1] for q in qs)
        assert code == 0 and out == (f"plan command=bianchi-plot d=3 qmax={10**18} "
                                     f"grid_points={len(qs)} rows={len(qs)} work={work}\n")
        assert work == 5 * 229462 < cli.MAX_STEPS  # 5 steps a row
        code, _, err = self._timed(capsys, "bianchi", "--d", "3", "--qmax", str(10**28),
                                   "--plot-data", "--dry-run")
        assert code == 4 and "kind=capacity" in err and "steps" in err

    def test_bianchi_dry_run_prints_the_guarded_estimate(self, capsys):
        # the exact member count and the O(1) bound that the budget reads
        code, out, _ = run(capsys, "bianchi", "--d", "3", "--qmax", "3000000000", "--dry-run")
        assert code == 0 and out == ("plan command=bianchi d=3 qmax=3000000000 "
                                     "rows=49487 work=63450\n")
        assert bianchi.bianchi_census(3, 3 * 10**9).count == 49487

    @pytest.mark.parametrize("unit, argv", [
        ("rows", ("cocompact", "--field", "2", "--qmax", "100000")),
        ("steps", ("fit", "--series", "system", "--field", "2",
                   "--qgrid", "1000000000000,2000000000000,4000000000000")),
        ("steps", ("cocompact", "--field", "2", "--qmax", "1000000000000", "--plot-data")),
    ])
    @pytest.mark.parametrize("extra", [(), ("--dry-run",)])
    def test_field_counts_over_budget(self, capsys, tmp_path, unit, argv, extra):
        code, out, err = self._timed(capsys, *argv, "--out", str(tmp_path / "f.csv"), *extra)
        assert code == 4 and out == "" and err.startswith("salem-error kind=capacity")
        assert f" {unit}, above the limit" in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("budget, argv", [  # census: test_census_budget_boundary
        ("MAX_ROWS", ("bianchi", "--d", "7", "--qmax", "100000")),
        ("MAX_ROWS", ("cocompact", "--field", "5", "--qmax", "30")),
        ("MAX_STEPS", ("cocompact", "--field", "5", "--qmax", "400", "--plot-data")),
        ("MAX_STEPS", ("fit", "--series", "bianchi", "--d", "2", "--qgrid", "1000,2000,4000")),
    ])
    def test_budget_boundary(self, capsys, monkeypatch, budget, argv):
        code, out, _ = run(capsys, *argv, "--dry-run")
        work = int(out.split(" work=")[1].split()[0])
        monkeypatch.setattr(cli, budget, work)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
        monkeypatch.setattr(cli, budget, work - 1)
        for extra in ((), ("--dry-run",)):
            code, out, err = run(capsys, *argv, *extra)
            assert code == 4 and out == "" and f"needs up to {work} " in err


class TestImportFootprint:
    # (argv, modules it must not load, modules it must load)
    HEAVY = {"dataclasses", "inspect", "fractions", "decimal", "json"}
    FIELDS = {"salemcensus.bianchi", "salemcensus.totally_real"}
    # what a census over Z never runs
    Z = HEAVY | FIELDS | {"salemcensus.algebra", "salemcensus.quartics"}
    FOOTPRINTS = [
        (("census", "deg2", "--qmax", "10"), Z | {"salemcensus.asymptotics"}, set()),
        (("census", "sr", "--qmax", "30"), Z, {"salemcensus.census"}),
        (("census", "deg4", "--qmax", "30", "--format", "json"), Z, set()),
        (("fit", "--series", "sr", "--qgrid", "50,100,200"), Z, {"salemcensus.asymptotics"}),
        (("bianchi", "--d", "3", "--qmax", "1000", "--dry-run"), HEAVY,
         {"salemcensus.bianchi"}),
        (("bianchi", "--d", "3", "--qmax", "1000"), HEAVY | {"salemcensus.census"},
         {"salemcensus.bianchi"}),
        (("bianchi", "--d", "3", "--qmax", "1000", "--format", "json"), HEAVY,
         {"salemcensus.bianchi"}),
        (("cocompact", "--field", "5", "--qmax", "20", "--verified"),
         HEAVY | {"salemcensus.census"}, {"salemcensus.totally_real"}),
        (("cocompact", "--field", "5", "--qmax", "20", "--format", "json"), HEAVY,
         {"salemcensus.totally_real"}),
        (("constants", "--omega", "3"), HEAVY, {"salemcensus.asymptotics"}),
        (("constants", "--volume", "2", "1.0", "100"), HEAVY, {"salemcensus.totally_real"}),
        (("report", "multiplicity", "--n", "6", "--ell-max", "5", "--step", "1", "--format",
          "json"), HEAVY | FIELDS, {"salemcensus.asymptotics"}),
    ]

    @pytest.mark.parametrize("argv,absent,present", FOOTPRINTS,
                             ids=[" ".join(argv) for argv, _, _ in FOOTPRINTS])
    def test_each_command_loads_only_what_it_runs(self, argv, absent, present):
        # what a fresh interpreter adds to sys.modules running the command, not how long it
        # takes; numpy is blocked, so that a command importing it fails
        env = dict(os.environ, PYTHONPATH=str(Path(salemcensus.__file__).parents[1]))
        script = ("import sys\nsys.modules['numpy'] = None\nbefore = set(sys.modules)\n"
                  "from salemcensus.cli import main\ncode = main(sys.argv[1:])\n"
                  "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))\n"
                  "sys.exit(code)")
        loaded = set(subprocess.run([sys.executable, "-c", script, *argv, "--out", os.devnull],
                                    env=env, capture_output=True, text=True,
                                    check=True).stderr.split())
        assert not loaded & absent
        assert present <= loaded

    def test_the_census_records_load_neither_algebra_nor_quartics(self):
        # enumerate_sr and enumerate_salem_deg4 read the census table's blocks, k and
        # lambda included, so a fresh interpreter that lists them loads neither module
        env = dict(os.environ, PYTHONPATH=str(Path(salemcensus.__file__).parents[1]))
        script = ("import sys\nfrom salemcensus.census import enumerate_salem_deg4, enumerate_sr\n"
                  "print(len(list(enumerate_sr(30))), len(list(enumerate_salem_deg4(10))))\n"
                  "print(*sorted(m for m in sys.modules if m.startswith('salemcensus')))")
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        counts, loaded = proc.stdout.splitlines()
        assert counts == f"{census.count_sr(30)} {census.count_salem_deg4(10)}"
        assert "salemcensus.census" in loaded.split()
        assert not {"salemcensus.algebra", "salemcensus.quartics"} & set(loaded.split())

    def test_no_command_loads_argparse(self, tmp_path):
        # the dry run of each benchmark argv, one run of every command, help and a usage
        # error, in one fresh interpreter: none of them loads argparse or what its help
        # strings load, whether or not the interpreter's start did
        bench = [" ".join(argv) + " --dry-run" for argv in _benchmark_argvs(str(tmp_path))]
        runs = [" ".join(argv) + f" --out {os.devnull}" for argv, _, _ in self.FOOTPRINTS]
        lines = [*bench, *runs, "--help", "census sr --help", "census sr --q 10"]
        assert len(bench) == 8
        assert {cli._command_words(line.split()) for line in runs} == set(cli.COMMANDS)
        env = dict(os.environ, PYTHONPATH=str(Path(salemcensus.__file__).parents[1]))
        script = ("import sys\nfrom salemcensus.cli import main\n"
                  "codes = [main(line.split()) for line in sys.argv[1:]]\n"
                  "print(*codes, *sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", script, *lines], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[-1].split() == [*"0" * (len(lines) - 1), "2"]


class TestReportCommand:
    def test_multiplicity_csv(self, capsys):
        code, out, _ = run(capsys, "report", "multiplicity", "--n", "4",
                           "--ell-max", "6", "--step", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "ell,geodesic_count,salem_bound,mean_mult_lower"
        assert len(lines) == 4

    def test_multiplicity_json(self, capsys):
        code, out, _ = run(capsys, "report", "multiplicity", "--n", "6",
                           "--ell-max", "4", "--step", "1", "--format", "json")
        objs = json.loads(out)
        assert code == 0 and len(objs) == 4
        assert all(o["mean_mult_lower"] > 0 for o in objs)

    def test_multiplicity_json_bytes(self, capsys):
        # the rows' fields are the JSON keys, in field order
        code, out, _ = run(capsys, "report", "multiplicity", "--n", "4", "--ell-max", "12",
                           "--step", "1", "--format", "json")
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == (
            "1684f15aef3b21e310673bb7fd196d76b98b925f56951fe8f8bc8d7ee648ca30")

    @pytest.mark.parametrize("n, ell_max, step", [
        (4, "12", "1"), (4, "236", "1"), (6, "30", "2.5"), (10, "20", "1.5"), (200, "3.5", "1"),
        (710, "1", "1"), (4, "1e300", "1")])
    def test_multiplicity_bytes_equal_the_row_writer(self, capsys, monkeypatch, n, ell_max, step):
        # the % templates against the oracles' f-string and json.dumps of _asdict, chunked
        # or not; (4, 236) writes the last rows before the geodesic term overflows, and
        # 1e300 overflows at ell = 237, so it writes nothing and exits 4
        try:
            rows = asymptotics.multiplicity_report(n, float(ell_max), float(step))
        except CapacityError:
            rows = None
        for block_rows in (1024, 7):
            monkeypatch.setattr(cli, "BLOCK_ROWS", block_rows)
            for fmt in ("csv", "json"):
                code, out, _ = run(capsys, "report", "multiplicity", "--n", str(n), "--ell-max",
                                   ell_max, "--step", step, "--format", fmt)
                if rows is None:
                    assert code == 4 and out == ""
                    continue
                want = (json.dumps([r._asdict() for r in rows], indent=2) + "\n" if fmt == "json"
                        else "\n".join([asymptotics.MULTIPLICITY_CSV_HEADER,
                                        *map(multiplicity_csv_row, rows)]) + "\n")
                assert code == 0 and out == want, (block_rows, fmt)

    def test_large_n_exits_at_once(self, capsys):
        # (n - 1) ell > 709 overflows the geodesic term of the first row
        for n in ("712", "1000000"):
            t0 = time.perf_counter()
            code, out, err = run(capsys, "report", "multiplicity", "--n", n,
                                 "--ell-max", "2", "--step", "1")
            assert time.perf_counter() - t0 < 1.0
            assert code == 4 and out == "" and err.startswith("salem-error kind=capacity")

    # the detail of each refused set of flags (after --n 4): the plan makes the library's
    # check, named by the flags
    DETAILS = {
        ("--ell-max", "6", "--step", "0"):
            "need 1 <= --step <= --ell-max, both finite, got --step=0.0, --ell-max=6.0",
        ("--ell-max", "nan", "--step", "1"):
            "need 1 <= --step <= --ell-max, both finite, got --step=1.0, --ell-max=nan",
        ("--n", "5", "--ell-max", "6", "--step", "2"): "--n must be an even integer >= 4, got 5",
        ("--ell-max", "inf", "--step", "inf"):
            "need 1 <= --step <= --ell-max, both finite, got --step=inf, --ell-max=inf",
        ("--ell-max", "inf", "--step", "1"):
            "need 1 <= --step <= --ell-max, both finite, got --step=1.0, --ell-max=inf",
    }

    @pytest.mark.parametrize("flags", list(DETAILS))
    def test_dry_run_validates_like_the_run(self, capsys, flags):
        for extra in ((), ("--dry-run",)):
            code, out, err = run(capsys, "report", "multiplicity", "--n", "4", *flags, *extra)
            assert code == 3 and out == "" and err.startswith("salem-error kind=domain")
            assert _error_detail(err) == self.DETAILS[flags]

    def test_dry_run_counts_the_rows_of_the_run(self, capsys):
        code, out, _ = run(capsys, "report", "multiplicity", "--n", "4",
                           "--ell-max", "7", "--step", "2", "--dry-run")
        assert code == 0 and out == "plan command=report-multiplicity n=4 rows=3 work=8\n"
        # the run overflows after 236 rows: so does its plan, with the same message
        argv = ("report", "multiplicity", "--n", "4", "--ell-max", "1e300", "--step", "1")
        results = [run(capsys, *argv, *extra) for extra in ((), ("--dry-run",))]
        assert results[0] == results[1]
        code, out, err = results[0]
        assert code == 4 and out == "" and "exp overflow at ell=237" in err


class TestDeterminism:
    def test_byte_identical_files_across_workers(self, capsys, tmp_path):
        f1, f2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert main(["census", "sr", "--qmax", "200", "--out", str(f1),
                     "--workers", "1"]) == 0
        assert main(["census", "sr", "--qmax", "200", "--out", str(f2),
                     "--workers", "3"]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_out_files_are_lf_utf8(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        assert main(["census", "deg4", "--qmax", "5", "--out", str(path)]) == 0
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n")


class TestTableWriter:
    """Tables are formatted cli.BLOCK_ROWS rows at a time by the module that
    owns their rows, framed by cli._table and written chunk by chunk by
    cli._write, with the bytes of the whole-table json.dumps and join; an
    --out file appears only when complete."""

    # a row (i, s, x) as a CSV line and as its object {"i": str(i), "s": s, "x": x,
    # "none": None} in an indent-2 JSON list, one % a chunk as the table modules do
    CSV_ROW = "%d,%s,%.12g\n"
    JSON_OBJECT = '  {\n    "i": "%d",\n    "s": "%s",\n    "x": %r,\n    "none": null\n  }'

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("n", [0, 1, cli.BLOCK_ROWS - 1, cli.BLOCK_ROWS,
                                   cli.BLOCK_ROWS + 1])
    def test_bytes_equal_the_whole_table(self, capsys, tmp_path, fmt, n):
        rows = [(i, f"r{i}", i / 7) for i in range(n)]
        if fmt == "json":
            expected = json.dumps([{"i": str(i), "s": s, "x": x, "none": None}
                                   for i, s, x in rows], indent=2) + "\n"
        else:
            expected = "\n".join(["h1,h2,h3"] + [f"{i},{s},{x:.12g}" for i, s, x in rows]) + "\n"
        row, sep = (self.JSON_OBJECT, ",\n") if fmt == "json" else (self.CSV_ROW, "")
        path = tmp_path / "t"
        # 0 chunks when n = 0, 1 chunk a block up to BLOCK_ROWS rows, and several chunks
        for size in (cli.BLOCK_ROWS, 7):
            blocks = [rows[i:i + size] for i in range(0, n, size)]
            for out in (None, str(path)):
                chunks = (sep.join([row] * len(b)) % tuple(v for r in b for v in r)
                          for b in blocks)
                cli._write(out, cli._table(SimpleNamespace(format=fmt),
                                           lambda json, block: ("h1,h2,h3", chunks)))
            assert capsys.readouterr().out == expected
            assert path.read_bytes() == expected.encode()

    # an OSError of the row producer is not a write error: it passes unchanged
    @pytest.mark.parametrize("exc", [CapacityError("injected"), RuntimeError("injected"),
                                     OSError(24, "injected")])
    def test_failure_keeps_the_old_out_file(self, capsys, tmp_path, monkeypatch, exc):
        path = tmp_path / "sr.csv"
        path.write_bytes(b"old contents\n")
        real = census._census_rows

        def failing(which, Q):
            for i, row in enumerate(real(which, Q)):
                if i == 300:  # some chunks are already written
                    raise exc
                yield row

        monkeypatch.setattr(census, "_census_rows", failing)
        argv = ["census", "sr", "--qmax", "500", "--out", str(path)]
        if isinstance(exc, CapacityError):
            assert main(argv) == 4
        else:
            with pytest.raises(type(exc), match="injected"):
                main(argv)
        assert path.read_bytes() == b"old contents\n"
        assert os.listdir(tmp_path) == ["sr.csv"]

    def test_sigterm_removes_the_temporary_file(self, tmp_path):
        # about 5e7 rows, inside the budget: the run is still writing when stopped
        env = dict(os.environ, PYTHONPATH=str(Path(salemcensus.__file__).parents[1]))
        path = tmp_path / "f.csv"
        proc = subprocess.Popen([sys.executable, "-m", "salemcensus.cli", "census", "deg4",
                                 "--qmax", "5000", "--out", str(path)],
                                env=env, stderr=subprocess.PIPE)
        try:
            deadline = time.monotonic() + 30
            while not list(tmp_path.glob("f.csv.*.tmp")):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(30) == 143
        finally:
            proc.kill()
            proc.wait()
        assert proc.stderr.read() == b""
        assert os.listdir(tmp_path) == []

    def test_only_an_out_run_loads_signal(self):
        # the SIGTERM handler exists to remove the temporary file of --out, so
        # the entry point installs it only when argv has one; the entry point ends
        # in os._exit, which reports the code and the modules before it exits
        env = dict(os.environ, PYTHONPATH=str(Path(salemcensus.__file__).parents[1]))
        script = ("import os, runpy, sys\nsys.argv[0] = 'salem'\nreal_exit = os._exit\n"
                  "def _exit(code):\n"
                  "    print(code, 'signal' in sys.modules, file=sys.stderr, flush=True)\n"
                  "    real_exit(code)\n"
                  "os._exit = _exit\n"
                  "runpy.run_module('salemcensus.cli', run_name='__main__')")
        for extra, want in (((), "0 False\n"), (("--out", os.devnull), "0 True\n"),
                            ((f"--out={os.devnull}",), "0 True\n")):
            proc = subprocess.run([sys.executable, "-c", script, "census", "deg2", "--qmax", "10",
                                   *extra], env=env, capture_output=True, text=True)
            assert proc.stderr == want, extra

    def test_unwritable_out_exits_3(self, capsys, tmp_path):
        code, out, err = run(capsys, "census", "sr", "--qmax", "10",
                             "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 3 and out == ""
        assert err.startswith("salem-error kind=domain") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_out_to_a_full_device_exits_3(self, capsys, monkeypatch):
        # a failed write or flush is one domain error, for one line and for tables that
        # fill the write buffer or not, and close does not flush the same bytes again
        for argv in (("census", "deg2", "--qmax", "3"), ("census", "sr", "--qmax", "10"),
                     ("census", "sr", "--qmax", "1000")):
            code, out, err = run(capsys, *argv, "--out", "/dev/full")
            assert code == 3 and out == "", argv
            assert err == ('salem-error kind=domain detail="cannot write --out /dev/full: '
                           'No space left on device"\n'), argv
        # a row producer that fails while the header is still buffered: its error is
        # reported, not that of the flush on closing
        real = census._census_rows

        def failing(which, Q):
            for i, row in enumerate(real(which, Q)):
                if i == 5:
                    raise CapacityError("injected")
                yield row

        with monkeypatch.context() as m:
            m.setattr(census, "_census_rows", failing)
            code, out, err = run(capsys, "census", "sr", "--qmax", "500", "--out", "/dev/full")
        assert code == 4 and out == "" and _error_detail(err) == "injected"
        env = dict(os.environ, PYTHONPATH=str(Path(salemcensus.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "salemcensus.cli", "census", "sr", "--qmax",
                               "1000", "--out", "/dev/full"], env=env, capture_output=True)
        assert proc.returncode == 3 and proc.stdout == b""
        assert proc.stderr.startswith(b"salem-error kind=domain ")
        assert proc.stderr.count(b"\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_stdout_on_a_full_device_exits_3(self):
        # stdout goes through the writer of --out, buffered as when PYTHONUNBUFFERED is
        # unset: the bytes of a failed flush must not fail again at exit, which printed
        # "Exception ignored" and exited 120; a table cut short by an error of its rows
        # leaves rows buffered, and its own error is the one line
        env = dict(os.environ, PYTHONPATH=str(Path(salemcensus.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        full = 'salem-error kind=domain detail="cannot write stdout: No space left on device"\n'
        failing = FAILING_ROWS + "census._census_rows = failing\ncli.entrypoint()\n"
        for argv, code, err in (
                (("-m", "salemcensus.cli", "census", "deg2", "--qmax", "3"), 3, full),
                (("-m", "salemcensus.cli", "census", "sr", "--qmax", "1000"), 3, full),
                (("-m", "salemcensus.cli", "census", "sr", "--qmax", "10", "--dry-run"), 3, full),
                (("-m", "salemcensus.cli", "--help"), 3, full),
                (("-c", failing, "census", "sr", "--qmax", "500"), 4,
                 'salem-error kind=capacity detail="injected"\n')):
            with open("/dev/full", "wb") as stdout:
                proc = subprocess.run([sys.executable, *argv], env=env, stdout=stdout,
                                      stderr=subprocess.PIPE, text=True)
            assert (proc.returncode, proc.stderr) == (code, err), argv[1:]

    @pytest.mark.parametrize("failing, argv", [
        (False, ("census", "sr", "--qmax", "1000")),
        (False, ("census", "deg4", "--qmax", "60", "--format", "json")),
        (False, ("--help",)), (False, ("census", "sr", "--qmax", "10", "--dry-run")),
        (False, ("census", "sr", "--q", "10")), (False, ("census", "sr", "--qmax", "1")),
        (False, ("cocompact", "--field", "2", "--qmax", "100000")),
        (True, ("census", "sr", "--qmax", "500"))])
    def test_the_entry_point_writes_what_main_writes(self, capsys, monkeypatch, failing, argv):
        # entrypoint leaves by os._exit, which flushes nothing: through a buffered pipe it
        # prints the bytes and the code of main, on success, help, a dry run, each error
        # kind (2, 3 and 4) and a table whose rows fail while some are still buffered
        env = dict(os.environ, PYTHONPATH=str(Path(salemcensus.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        script = ["-m", "salemcensus.cli"]
        if failing:
            script = ["-c", FAILING_ROWS + "census._census_rows = failing\ncli.entrypoint()\n"]
            rows = {}
            exec(FAILING_ROWS, rows)
            monkeypatch.setattr(census, "_census_rows", rows["failing"])
        proc = subprocess.run([sys.executable, *script, *argv], env=env,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)

    @pytest.mark.parametrize("argv", [
        ("census", "deg2", "--qmax", "3"), ("census", "sr", "--qmax", "1000"), ("--help",),
        ("census", "sr", "--qmax", "10", "--dry-run")])
    def test_a_closed_stdout_exits_3(self, argv):
        # a shell's >&- leaves sys.stdout None: one domain error, not a traceback
        env = dict(os.environ, PYTHONPATH=str(Path(salemcensus.__file__).parents[1]))
        proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m",
                               "salemcensus.cli", *argv], env=env, stderr=subprocess.PIPE,
                              text=True)
        assert (proc.returncode, proc.stderr) == (
            3, 'salem-error kind=domain detail="cannot write stdout: it is closed"\n')

    def test_a_closed_pipe_ends_the_run(self, capsys, tmp_path):
        # a reader that stops early, as head does: stdout exits 1 with nothing on
        # stderr, buffered or not, and an --out FIFO is a domain error
        env = dict(os.environ, PYTHONPATH=str(Path(salemcensus.__file__).parents[1]))
        argv = [sys.executable, "-m", "salemcensus.cli", "census", "sr", "--qmax", "3000"]
        for unbuffered in ("1", None):
            if unbuffered is None:
                env.pop("PYTHONUNBUFFERED", None)
            else:
                env["PYTHONUNBUFFERED"] = unbuffered
            proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)
            try:
                assert proc.stdout.read(10) == census.CENSUS_CSV_HEADER.encode()[:10]
                proc.stdout.close()
                assert proc.wait(60) == 1
                assert proc.stderr.read() == b"", unbuffered
            finally:
                proc.kill()
                proc.wait()
                proc.stderr.close()
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)

        def read_some():
            with open(fifo, "rb") as fh:
                fh.read(10)

        reader = threading.Thread(target=read_some, daemon=True)
        reader.start()
        code, out, err = run(capsys, *argv[3:], "--out", str(fifo))
        reader.join(10)
        assert code == 3 and out == ""
        assert err.startswith(f'salem-error kind=domain detail="cannot write --out {fifo}: ')

    def test_out_through_a_symlink_keeps_the_link(self, capsys, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_bytes(b"old contents\n")
        real.chmod(0o640)
        link.symlink_to(real.name)
        assert main(["census", "sr", "--qmax", "10", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == real.name
        assert real.read_text().startswith(census.CENSUS_CSV_HEADER + "\n")
        assert stat.S_IMODE(real.stat().st_mode) == 0o640
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "real.csv"]

    def test_out_to_a_fifo_and_a_device(self, capsys, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["census", "sr", "--qmax", "10", "--out", str(fifo)]) == 0
        reader.join(10)
        assert got and got[0].startswith(census.CENSUS_CSV_HEADER.encode() + b"\n")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and os.listdir(tmp_path) == ["fifo"]
        assert main(["census", "sr", "--qmax", "10", "--out", os.devnull]) == 0
        assert stat.S_ISCHR(os.lstat(os.devnull).st_mode)
        assert not any(n.startswith("null.") for n in os.listdir(os.path.dirname(os.devnull)))

    def test_out_in_an_unwritable_directory_is_written_in_place(self, capsys, tmp_path,
                                                                monkeypatch):
        # no temporary file can be made beside it, as in a read-only directory
        path = tmp_path / "sr.csv"
        path.write_bytes(b"old contents\n")
        inode = path.stat().st_ino
        monkeypatch.setattr(os, "access", lambda p, mode: False)
        assert main(["census", "sr", "--qmax", "10", "--out", str(path)]) == 0
        assert path.stat().st_ino == inode
        assert path.read_text().startswith(census.CENSUS_CSV_HEADER + "\n")


def _fit_argvs(*flags):
    return [("fit", "--series", series, *extra, "--qgrid", "100,200,400,800", *flags)
            for series, extra in (("deg4", ()), ("sr", ()), ("deg2", ()),
                                  ("bianchi", ("--d", "3")), ("system", ("--field", "2")))]


# The exact plan line of each table command, --plot-data included
TABLE_PLANS = [
    ("census deg2 --qmax 500000", "plan command=census-deg2 qmax=500000 rows=1 work=1"),
    ("census deg2 --qmax 1000 --plot-data",
     "plan command=census-deg2-plot qmax=1000 grid_points=8 rows=8 work=8"),
    ("census deg4 --qmax 1000 --plot-data",
     "plan command=census-deg4-plot qmax=1000 grid_points=7 rows=7 work=7"),
    ("census deg4 --qmax 130 --format json",
     "plan command=census-deg4 qmax=130 rows=33282 work=33282"),
    ("cocompact --field 5 --qmax 60 --verified",
     "plan command=cocompact field=5 qmax=60 rows=8316 work=19840"),
    ("cocompact --field 2 --qmax 100",
     "plan command=cocompact field=2 qmax=100 rows=10860 work=24960"),
    ("bianchi --d 3 --qmax 1000 --plot-data",
     "plan command=bianchi-plot d=3 qmax=1000 grid_points=6 rows=6 work=125"),
]


class TestPlanEqualsRun:
    """The rows of a dry run are the records its run writes: CSV data lines
    (header lines, the given number, not counted) or JSON objects (None)."""

    @pytest.mark.parametrize("argv, headers", [
        *[(("census", which, "--qmax", "30", *fmt), h)
          for which in ("deg4", "sr") for fmt, h in (((), 1), (("--format", "json"), None))],
        (("census", "deg2", "--qmax", "30"), 0),
        *[(("census", which, "--qmax", "300", "--plot-data"), 1) for which in ("deg4", "sr", "deg2")],
        (("bianchi", "--d", "3", "--qmax", "100000"), 1),
        (("bianchi", "--d", "3", "--qmax", "100000", "--format", "json"), None),
        (("bianchi", "--d", "3", "--qmax", "100000", "--plot-data"), 1),
        (("cocompact", "--field", "5", "--qmax", "20"), 2),
        (("cocompact", "--field", "5", "--qmax", "20", "--verified"), 2),
        (("cocompact", "--field", "5", "--qmax", "20", "--verified", "--format", "json"), None),
        (("cocompact", "--field", "5", "--qmax", "200", "--plot-data"), 1),
        (("constants", "--omega", "3"), 0),
        (("constants", "--marklof-c", "3"), 0),
        (("constants", "--c2-bound", "5"), 0),
        (("constants", "--volume", "2", "1.0", "100"), 0),
        *[(argv, 0) for argv in _fit_argvs()],
        *[(argv, 1) for argv in _fit_argvs("--plot-data")],
        (("report", "multiplicity", "--n", "6", "--ell-max", "5", "--step", "1"), 1),
        (("report", "multiplicity", "--n", "6", "--ell-max", "5", "--step", "1",
          "--format", "json"), None),
    ], ids=lambda x: " ".join(x) if isinstance(x, tuple) else str(x))
    def test_rows_are_the_records_written(self, capsys, argv, headers):
        code, plan, _ = run(capsys, *argv, "--dry-run")
        assert code == 0 and plan.startswith("plan command=") and plan.count("\n") == 1
        rows = int(plan.split(" rows=")[1].split()[0])
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert (len(json.loads(out)) if headers is None else out.count("\n") - headers) == rows

    @pytest.mark.parametrize("argv, line", TABLE_PLANS, ids=[argv for argv, _ in TABLE_PLANS])
    def test_each_table_command_prints_its_plan_line(self, capsys, argv, line):
        code, out, _ = run(capsys, *argv.split(), "--dry-run")
        assert code == 0 and out == line + "\n"

    def test_plot_dry_runs_plan_the_series(self, capsys):
        code, out, _ = run(capsys, "census", "sr", "--qmax", "1000", "--plot-data", "--dry-run")
        assert code == 0 and out == ("plan command=census-sr-plot qmax=1000 grid_points=7 "
                                     "rows=7 work=7\n")
        code, out, _ = run(capsys, "cocompact", "--field", "2", "--qmax", "1000",
                           "--plot-data", "--dry-run")
        qs = cli._plot_grid("system", 1000)
        work = sum(totally_real.count_bounds(2, q)[1] for q in qs)
        assert code == 0 and out == (f"plan command=cocompact-plot field=2 qmax=1000 "
                                     f"grid_points=6 rows=6 work={work}\n")
        assert qs == [31, 62, 125, 250, 500, 1000]
