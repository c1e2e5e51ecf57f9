"""Run one `salem` command in-process with timing wrappers at the module
boundaries of salemcensus, then write its spans and counters as JSON.

    python3 salembench/tracer.py SPANS.json census sr --qmax 100 --out x.csv

Functions are wrapped where the calling module looks them up
(`census.enumerate_sr` as `cli` reaches it, `bianchi.salem_value` as
`bianchi` reaches it), so the program's own code is unchanged.  A span
stands for all calls of one wrapped function under one parent span: it
keeps the first start, the last end, the number of calls and the time
spent inside them.  Generators are timed per `next`, so record building in
the caller is not charged to the enumerator.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from functools import wraps

perf = time.perf_counter


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or None, calls, busy seconds]
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._index: dict[tuple[str, int | None], int] = {}

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = self._index.get((name, parent))
        if idx is None:
            idx = self._index[(name, parent)] = len(self.spans)
            self.spans.append([name, None, None, parent, 0, 0.0])
        span = self.spans[idx]
        self._stack.append(idx)
        t0 = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf()
            self._stack.pop()
            if span[1] is None:
                span[1] = t0
            span[2] = t1
            span[4] += 1
            span[5] += t1 - t0

    def timed(self, name, fn, on_result=None):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if on_result:
                on_result(result, *args, **kwargs)
            return result
        return wrapper

    def timed_iter(self, name, fn, items_counter, on_call=None):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call:
                on_call(*args, **kwargs)
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, it)
                except StopIteration:
                    return
                self.counters[items_counter] += 1
                yield item
        return wrapper

    def counted(self, name, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def install(tr: Tracer, enum_sizes: list) -> None:
    """Wrap the public functions at each salemcensus module boundary."""
    from salemcensus import algebra, asymptotics, bianchi, census, totally_real

    c = tr.counters
    for fn_name in ("enumerate_sr", "enumerate_salem_deg4"):
        which = "sr" if fn_name == "enumerate_sr" else "deg4"
        setattr(census, fn_name, tr.timed_iter(
            "census.enumerate", getattr(census, fn_name), "census.records",
            on_call=lambda Q, *_, which=which, **__: enum_sizes.append((which, Q))))
    for fn_name in ("count_salem_deg4", "count_sr", "count_deg2"):
        setattr(census, fn_name, tr.timed("census.count", getattr(census, fn_name)))
    census.census_csv_row = tr.timed("census.csv_row", census.census_csv_row)

    def tally(result, *_, **__):
        for key in ("traces_scanned", "excluded_real", "excluded_imag_axis",
                    "excluded_reducible", "excluded_over_q"):
            c["bianchi." + key] += getattr(result, key)
        c["bianchi.members"] += result.count

    bianchi.bianchi_census = tr.timed("bianchi.census", bianchi.bianchi_census, tally)
    bianchi.bianchi_csv_row = tr.timed("bianchi.csv_row", bianchi.bianchi_csv_row)
    bianchi.salem_value = tr.timed("quartics.salem_value", bianchi.salem_value)
    bianchi.lift_half_power = tr.counted("quartics.lift_calls", bianchi.lift_half_power)

    def verified(ok, *_, **__):
        c["totally_real.verified"] += bool(ok)

    totally_real.enumerate_system = tr.timed_iter(
        "totally_real.enumerate", totally_real.enumerate_system, "totally_real.solutions")
    totally_real.verify_salem_over_L = tr.timed(
        "totally_real.verify", totally_real.verify_salem_over_L, verified)
    totally_real.ring_square_root = tr.counted(
        "totally_real.ring_sqrt_calls", totally_real.ring_square_root)
    totally_real.count_system = tr.timed("totally_real.count", totally_real.count_system)
    totally_real.system_csv_row = tr.timed("totally_real.csv_row", totally_real.system_csv_row)

    RQ = algebra.RealQuadElem
    RQ.__mul__ = tr.counted("algebra.realquad_mul_calls", RQ.__mul__)
    RQ.__rmul__ = tr.counted("algebra.realquad_mul_calls", RQ.__rmul__)

    def points(fit, pts, *_, **__):
        c["asymptotics.points_used"] += fit.points_used
        c["asymptotics.points_dropped"] += len(pts) - fit.points_used

    asymptotics.power_fit = tr.timed("asymptotics.power_fit", asymptotics.power_fit, points)


def main(argv: list[str]) -> int:
    spans_path, cmd = argv[0], argv[1:]
    t0 = perf()
    from salemcensus import census, cli
    import_s = perf() - t0

    tr = Tracer()
    enum_sizes: list[tuple[str, int]] = []
    install(tr, enum_sizes)
    code = tr.call("cli.main", cli.main, cmd)
    sys.stdout.flush()

    # Scan-box sizes for census.yield_ratio, outside every span.
    for which, Q in enum_sizes:
        s_sr, s_deg4 = census.box_sums(Q)
        tr.counters["census.box"] += s_sr if which == "sr" else s_deg4
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "code": code, "spans": tr.spans,
                   "counters": tr.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
