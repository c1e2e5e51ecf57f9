"""Benchmark of the `salem` CLI: three workloads, timed end to end from
outside, with a separate traced run for per-layer numbers.

    python3 salembench/run.py --workload census-enum --seed 1 --seconds 40 --trace 0

Run it from the repository root.  It is a closed loop with one client:
the workload's commands run one at a time, each in a fresh child process
with `--workers 1` and SALEM_WORKERS unset.  One pass runs every command
once; passes repeat for about `--seconds` seconds, and a timing is the
mean over passes of the pass's summed child times, each scaled to a
reference CPU speed.  Every output is checked (checks.py) and then
deleted.

Scaling: the benchmark and its children are pinned to one CPU, and a fixed
pure-Python loop (calibrate()) is timed on it right before and right after
each child.  A child's time is multiplied by CAL_REF_S over the mean of
the two loop times next to it: it is the time the child takes on a CPU
that runs the loop in CAL_REF_S, about the uncontended speed of the host
the benchmark was written on.  On a shared host, other tenants slow a CPU
by up to 2x in spells of seconds to minutes; on a shared 2-vCPU VM the
spread (IQR / median) of ten runs' unscaled mean times reached 0.26, and a
median or minimum over passes did no better; scaled, it stayed under 0.07
in the same hour.  The unscaled mean is printed in the comment lines.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, times scaled:
  wall_s       summed wall time of the pass's child processes
  setup_s      median wall time of `--dry-run`s of the first command, five
               before the first pass and one before each pass
  peak_rss_mb  largest ru_maxrss among the pass's children (os.wait4),
               each command's median over passes
  cpu_s        user plus system CPU time of the pass's children
--trace 1 alternates untraced passes with passes run through tracer.py and
reports the per-layer metrics, medians over traced passes.  For each
command, the layers' self times plus process.import_s and
process.interpreter_s (interpreter start and exit) add up to its traced
wall time.  trace.overhead_s is the traced wall time minus the untraced
one, each taken like wall_s.  Spans go to .bench_out/.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  A command fails when it exits non-zero, times out
or fails its output check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACER = HERE / "tracer.py"
DIGESTS = HERE / "digests.json"

SETUP_RUNS = 5
COMMAND_TIMEOUT_S = 60.0
RUN_LIMIT_S = 170.0  # every child is stopped before the run reaches this age
CAL_LOOPS = 100_000
CAL_REF_S = 0.008  # calibrate() on an uncontended Xeon core of a 2-vCPU VM


@dataclass
class Outcome:
    """One child process: how it ended and what it cost."""

    code: int
    wall: float
    cpu: float
    rss_mb: float
    timed_out: bool = False
    errors: list[str] = field(default_factory=list)
    rows: int = 0
    nbytes: int = 0
    trace: dict | None = None
    cal: float = CAL_REF_S  # mean calibrate() time before and after the child

    @property
    def speed(self) -> float:
        return CAL_REF_S / self.cal


def calibrate() -> float:
    """Median of three timings of a fixed loop: how fast the CPU this
    process is pinned to runs at the moment."""
    def once() -> float:
        t0 = time.perf_counter()
        s = 0
        for i in range(CAL_LOOPS):
            s += i * i % 7
        return time.perf_counter() - t0
    return statistics.median(once() for _ in range(3))


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SALEM_WORKERS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one child at a time and one BLAS thread, so never more threads than CPUs
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], stdout_path: Path, timeout: float, env: dict) -> Outcome:
    """Run argv to completion and read its rusage with os.wait4.

    A SIGALRM kills the child at the timeout; the blocking wait4 then
    returns, so the wall time has no polling error.
    """
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
    timed_out = []

    def on_alarm(signum, frame):
        timed_out.append(True)
        proc.kill()

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:  # interrupted: stop the child before leaving
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                   bool(timed_out))


class Bench:
    def __init__(self, workload: str, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.env = child_env()
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.commands = workloads.build(workload, seed)
        self.prepared = [checks.prepare(c) for c in self.commands]
        self.digests = None
        if seed == workloads.DEFAULT_SEED:
            self.digests = json.loads(DIGESTS.read_text())["workloads"][workload]
        self.attempted = 0
        self.failed = 0
        self.spans: list[dict] = []
        self.setup_runs: list[Outcome] = []
        self.cals: list[float] = []

    def _timeout(self) -> float:
        return min(COMMAND_TIMEOUT_S, self.deadline - time.perf_counter())

    def _launch(self, argv: list[str], stdout_path: Path, traced_to: Path | None) -> Outcome:
        if traced_to is not None:
            full = [sys.executable, str(TRACER), str(traced_to), *argv]
        else:
            full = [sys.executable, "-m", "salemcensus.cli", *argv]
        self.attempted += 1
        before = calibrate()
        res = run_child(full, stdout_path, self._timeout(), self.env)
        res.cal = (before + calibrate()) / 2
        self.cals.append(res.cal)
        if res.timed_out:
            res.errors.append("timed out")
        elif res.code != 0:
            err = stdout_path.with_suffix(".err").read_text(errors="replace").strip()
            res.errors.append(f"exit code {res.code}: {err[-500:]}")
        return res

    def dry_run(self) -> Outcome:
        """Wall time of the first command's --dry-run: interpreter start,
        imports and argument parsing, with no census work."""
        first = self.commands[0]
        argv = first.resolved(str(self.tmp)) + ["--dry-run"]
        res = self._launch(argv, self.tmp / "dry.out", None)
        out = self.tmp / (first.out or "dry.out")
        if not res.errors and not out.read_text().startswith("plan command="):
            res.errors.append("dry run printed no plan")
        self._record(f"dry run {first.key}", res)
        return res

    def setup(self) -> None:
        """One unmeasured dry run, which also fills the bytecode cache, then
        SETUP_RUNS measured ones; measure() adds one before each pass."""
        self.dry_run()
        self.setup_runs += [self.dry_run() for _ in range(SETUP_RUNS)]

    def _record(self, what: str, res: Outcome) -> None:
        if res.errors:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(res.errors[:5])}", file=sys.stderr)

    def run_command(self, idx: int, cmd: workloads.Command, run_id: str,
                    traced: bool) -> Outcome:
        stdout_path = self.tmp / f"cmd{idx}.out"
        spans_path = self.tmp / f"cmd{idx}.spans.json" if traced else None
        res = self._launch(cmd.resolved(str(self.tmp)), stdout_path, spans_path)
        out_path = self.tmp / cmd.out if cmd.out else stdout_path
        if not res.errors:
            data = out_path.read_bytes()
            res.nbytes = len(data)
            rng = random.Random(f"check:{self.seed}:{run_id}")
            try:
                errors, res.rows = checks.check(cmd, data, rng, self.prepared[idx])
            except Exception as exc:  # malformed output fails the command, not the run
                errors = [f"output check raised {exc!r}"]
            res.errors += errors
            if self.digests is not None:
                digest = hashlib.sha256(data).hexdigest()
                if self.digests.get(cmd.key) != digest:
                    res.errors.append(f"sha256 {digest} differs from the recorded digest")
        if traced and not res.errors:
            res.trace = json.loads(spans_path.read_text())
            self.spans.append({"run": run_id, "argv": list(cmd.argv), **res.trace})
        for path in (out_path, stdout_path, stdout_path.with_suffix(".err"), spans_path):
            if path is not None and path.exists():
                path.unlink()
        self._record(f"{run_id} {cmd.key}", res)
        return res

    def run_pass(self, n: int, traced: bool) -> list[Outcome] | None:
        """One pass over the workload, or None when the run limit cut it."""
        outcomes = []
        for idx, cmd in enumerate(self.commands):
            if self._timeout() < 1.0:
                return None
            outcomes.append(self.run_command(idx, cmd, f"{'t' if traced else 'p'}{n}-c{idx}",
                                             traced))
        return outcomes

    def measure(self, seconds: float, traced: bool) -> list[tuple[list, list | None]]:
        """Passes for about `seconds`; with traced, each is an (untraced,
        traced) pair.  At least one pass runs."""
        start = time.perf_counter()
        passes, lengths = [], []
        while True:
            t0 = time.perf_counter()
            self.setup_runs.append(self.dry_run())
            plain = self.run_pass(len(passes), False)
            pair = (plain, self.run_pass(len(passes), True) if traced and plain else None)
            if plain is None or (traced and pair[1] is None):
                break
            passes.append(pair)
            lengths.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.median(lengths) > seconds:
                break
        return passes


# --- metrics -------------------------------------------------------------------


def pass_mean(passes: list[list[Outcome]], attr: str, scaled: bool = True) -> float:
    """Mean over passes of the pass's summed attr, each scaled by its speed."""
    return statistics.fmean(sum(getattr(o, attr) * (o.speed if scaled else 1.0) for o in p)
                            for p in passes)


def end_to_end(passes, setup_s: float) -> dict:
    plain = [p for p, _ in passes]
    rss = [statistics.median(o.rss_mb for o in runs) for runs in zip(*plain)]
    return {"wall_s": pass_mean(plain, "wall"), "setup_s": setup_s,
            "peak_rss_mb": max(rss), "cpu_s": pass_mean(plain, "cpu")}


def self_times(spans: list) -> dict[str, float]:
    """Per span name: busy time minus the busy time of its child spans.
    Calls under one parent run one after another, so the children's busy
    times are the part of the parent's interval they cover."""
    child = [0.0] * len(spans)
    for _, _, _, parent, _, busy in spans:
        if parent is not None:
            child[parent] += busy
    out: dict[str, float] = {}
    for i, (name, _, _, _, _, busy) in enumerate(spans):
        out[name] = out.get(name, 0.0) + busy - child[i]
    return out


TIMED_SPANS = ("census.enumerate", "census.csv_row", "census.count", "quartics.salem_value",
               "bianchi.census", "bianchi.csv_row", "totally_real.enumerate",
               "totally_real.verify", "totally_real.count", "totally_real.csv_row",
               "asymptotics.power_fit")
CALL_COUNTS = {"census.csv_row_calls": "census.csv_row", "census.count_calls": "census.count",
               "quartics.salem_value_calls": "quartics.salem_value",
               "totally_real.verify_calls": "totally_real.verify"}
COUNTERS = ("census.records", "quartics.lift_calls", "bianchi.traces_scanned",
            "bianchi.excluded_real", "bianchi.excluded_imag_axis", "bianchi.excluded_reducible",
            "bianchi.excluded_over_q", "bianchi.members", "totally_real.solutions",
            "totally_real.ring_sqrt_calls", "algebra.realquad_mul_calls",
            "asymptotics.points_used", "asymptotics.points_dropped")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list[Outcome]) -> dict:
    """Per-layer metrics of one traced pass, summed over its commands."""
    m = dict.fromkeys(["process.import_s", "process.interpreter_s", "cli.main_s",
                       "cli.self_s", "cli.rows", "cli.output_bytes"], 0.0)
    m.update(dict.fromkeys([s + "_s" for s in TIMED_SPANS], 0.0))
    m.update(dict.fromkeys(list(CALL_COUNTS) + list(COUNTERS), 0))
    extra = dict.fromkeys(["census.box", "totally_real.verified"], 0)
    for o in traced:
        t = o.trace
        if t is None:  # the command failed and is already counted
            continue
        spans = t["spans"]
        main_busy = sum(s[5] for s in spans if s[0] == "cli.main")
        m["process.import_s"] += t["import_s"]
        m["process.interpreter_s"] += o.wall - t["import_s"] - main_busy
        m["cli.main_s"] += main_busy
        m["cli.rows"] += o.rows
        m["cli.output_bytes"] += o.nbytes
        for name, value in self_times(spans).items():
            m["cli.self_s" if name == "cli.main" else name + "_s"] += value
        for metric, span in CALL_COUNTS.items():
            m[metric] += sum(s[4] for s in spans if s[0] == span)
        for key in COUNTERS:
            m[key] += t["counters"].get(key, 0)
        for key in extra:
            extra[key] += t["counters"].get(key, 0)
    m["census.yield_ratio"] = _ratio(m["census.records"], extra["census.box"])
    m["bianchi.yield_ratio"] = _ratio(m["bianchi.members"], m["bianchi.traces_scanned"])
    m["totally_real.verified_frac"] = _ratio(extra["totally_real.verified"],
                                             m["totally_real.verify_calls"])
    return m


def per_layer(passes) -> dict:
    runs = [layer_metrics(t) for _, t in passes]
    m = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
    m["trace.overhead_s"] = (pass_mean([t for _, t in passes], "wall")
                             - pass_mean([p for p, _ in passes], "wall"))
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # children inherit the affinity, so calibration and children share a CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (ROOT / "src" / "salemcensus" / "cli.py").is_file():
        print(f"salembench: no salemcensus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # SIGTERM unwinds like Ctrl-C, so the child is stopped and files removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    try:
        bench = Bench(args.workload, args.seed, tmp)
        bench.setup()
        passes = bench.measure(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not passes:
        print("salembench: the run limit cut the first pass", file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(passes)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump(bench.spans, fh)
    else:
        values = end_to_end(passes, statistics.median(o.wall * o.speed for o in bench.setup_runs))
    print(f"# workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"commands={len(bench.commands)} "
          f"failed_frac={bench.failed / max(1, bench.attempted):.4g}")
    for cmd in bench.commands:
        print(f"#   salem {cmd.key}")
    for i, (plain, traced) in enumerate(passes):
        walls = [f"{o.wall:.3f}" for o in plain + (traced or [])]
        print(f"# pass {i} command walls (s){', untraced then traced' if traced else ''}: "
              f"{' '.join(walls)}")
    print(f"# median calibrate() {statistics.median(bench.cals)!r} s; unscaled mean pass wall "
          f"{pass_mean([p for p, _ in passes], 'wall', scaled=False)!r} s")
    for spec_m in wanted:
        print(f"# {spec_m['name']:32s} {values[spec_m['name']]!r} {spec_m['unit']}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
