"""Command-line surface: censuses, constants, fits, and reports with
reproducible file output.

Exit codes: 0 success, 2 usage error, 3 domain-validation error,
4 arithmetic capacity failure.  Errors are one machine-parsable line on
stderr.  Identical argv (and seed) produce byte-identical output; --workers
is accepted and validated but runs nothing in parallel.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import signal
import sys
from itertools import chain, islice
from typing import Iterator

from . import asymptotics, bianchi, census, totally_real
from .algebra import is_square_free
from .errors import CapacityError, DomainError

PROG = "salem"

# Field parameters above this are refused before any arithmetic: validating
# one costs O(d^(1/3)) trial divisions, about 5e5 at the limit.
MAX_FIELD_PARAM = 10**18

# Trace budget of one bianchi enumeration, counted over the whole disk
# although only the members of its quadrant w, v > 0 are listed, so it
# bounds the members written.  bianchi --d 3 --qmax 3e10 (628,393 traces,
# 156,770 members) takes about 1.8 s to list and write on a 2-vCPU Xeon
# VM, so the limit stands for about five minutes of work.
MAX_BIANCHI_TRACES = 10**8

# Row budget of the bianchi counts of one series (fit --series bianchi,
# bianchi --plot-data), summed over its grid; a count does O(log Q) exact
# steps per row v.  The count at d=3, Q=1e26 (3,651,483 rows) took 136 s
# on a 2-vCPU Xeon VM, about 37 us a row, so the limit stands for about
# three minutes of work.
MAX_BIANCHI_ROWS = 5 * 10**6

# Row budget of one census deg4|sr table, compared with its exact row count.
# At 1.4-2.2 us a row to format and write (CSV-JSON, 2-vCPU Xeon VM) the limit
# stands for two to four minutes of work and a file of several GB.
MAX_CENSUS_ROWS = 10**8

# Largest M whose omega(M) prints: beyond it the numerator has more digits
# than int-to-str conversion allows.
MAX_OMEGA_M = 120

# Table rows are formatted and written this many at a time.
BLOCK_ROWS = 1024

# Normalizing exponent and smallest grid Q of each --plot-data series.
PLOT_SERIES = {"deg4": (2.0, 8), "sr": (1.5, 8), "deg2": (1.0, 4),
               "bianchi": (0.5, 16), "system": (1.5, 16)}


def _default_workers() -> int:
    env = os.environ.get("SALEM_WORKERS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def _write(out: str | None, chunks) -> None:
    """Write the strings of chunks as they come, to stdout or to out.  A new
    or regular file is written under a temporary name and renamed over out
    when complete; devices and FIFOs are written in place."""
    if out is None:
        sys.stdout.writelines(chunks)
        return
    target = os.path.realpath(out)
    exists = os.path.exists(target)
    atomic = (not exists or os.path.isfile(target)) and os.access(os.path.dirname(target), os.W_OK)
    path = f"{target}.{os.getpid()}.tmp" if atomic else target
    try:
        with _out_errors(out, open, path, "w", encoding="utf-8", newline="\n") as fh:
            if atomic and exists:
                _out_errors(out, os.chmod, path, os.stat(target).st_mode & 0o7777)
            for chunk in chunks:  # errors of the row producers pass unchanged
                _out_errors(out, fh.write, chunk)
            _out_errors(out, fh.flush)
        if atomic:
            _out_errors(out, os.replace, path, target)
    except BaseException:
        if atomic:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise


def _out_errors(out: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), an OSError turned into a DomainError on out."""
    try:
        return fn(*args, **kwargs)
    except OSError as exc:
        raise DomainError(f"cannot write --out {out}: {exc.strerror or exc}") from exc


def _emit(text: str, out: str | None) -> None:
    _write(out, (text, "\n"))


def _blocks(items) -> Iterator[list]:
    it = iter(items)
    while block := list(islice(it, BLOCK_ROWS)):
        yield block


def _json_list(chunks) -> Iterator[str]:
    """The chunks, each some objects of an indent-2 JSON list joined by
    ",\n", framed as json.dumps frames the list ("[]\n" when empty)."""
    sep = "[\n"
    for chunk in chunks:
        yield sep + chunk
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


def _write_chunks(args, header: str, chunks) -> None:
    """Write a table from chunks of formatted rows: CSV lines under header,
    or (--format json) the objects of one JSON list."""
    _write(args.out, _json_list(chunks) if args.format == "json" else
           chain([header + "\n"], chunks))


def _write_table(args, header: str, rows, csv_row, json_obj) -> None:
    """Write rows as the JSON list of json_obj(row) (--format json) or as
    header and the csv_row(row) lines, BLOCK_ROWS rows at a time."""
    if args.format == "json":
        encode = json.JSONEncoder(indent=2).encode
        chunks = (encode(block)[2:-2] for block in _blocks(map(json_obj, rows)))
    else:
        chunks = ("\n".join(block) + "\n" for block in _blocks(map(csv_row, rows)))
    _write_chunks(args, header, chunks)


def _require_qmax(args, minimum: int = 2) -> int:
    if args.qmax < minimum:
        raise DomainError(f"--qmax must be >= {minimum}, got {args.qmax}")
    return args.qmax


def _require_squarefree(value: int, flag: str, minimum: int) -> int:
    if value > MAX_FIELD_PARAM:
        raise DomainError(f"{flag} must be <= {MAX_FIELD_PARAM}, got {value}")
    if value < minimum or not is_square_free(value):
        raise DomainError(f"{flag} must be a square-free integer >= {minimum}, got {value}")
    return value


def _plot_lines(qs, counts, exponent: float) -> list[str]:
    """The CSV series (Q, count / Q^exponent), whatever --format."""
    return ["Q,normalized_count\n", *(f"{q},{c / q**exponent:.12g}\n" for q, c in zip(qs, counts))]


def _plot_grid(series: str, Q: int) -> list[int]:
    """The --plot-data grid ..., Q//4, Q//2, Q of series, ascending."""
    qs = [Q]
    while qs[-1] // 2 >= PLOT_SERIES[series][1]:
        qs.append(qs[-1] // 2)
    return qs[::-1]


def _plot(args, Q: int) -> int:
    """--plot-data: the args.series counts on _plot_grid."""
    qs = _plot_grid(args.series, Q)
    counts = list(map(_series_counter(args, qs), qs))
    _write(args.out, _plot_lines(qs, counts, PLOT_SERIES[args.series][0]))
    return 0


# --- census ------------------------------------------------------------------


def _cmd_census(args) -> int:
    which = args.which
    Q = _require_qmax(args, 3 if which == "deg2" else 2)
    count = (census.count_deg2 if which == "deg2" else
             census.count_sr if which == "sr" else census.count_salem_deg4)(Q)
    if which != "deg2" and not args.plot_data and count > MAX_CENSUS_ROWS:
        raise CapacityError(f"census {which} at qmax={Q} would write {count} rows, "
                            f"above the limit of {MAX_CENSUS_ROWS}")
    if args.dry_run:
        _emit(
            f"plan command=census-{which} qmax={Q} a_scan=[-{Q + 2},-1] "
            f"est_items={count} workers={args.workers}",
            args.out,
        )
        return 0
    if args.plot_data:
        return _plot(args, Q)
    if which == "deg2":
        _emit(str(count), args.out)
        return 0
    _write_chunks(args, census.CENSUS_CSV_HEADER,
                  _census_chunks(which, Q, args.format == "json"))
    return 0


def _census_chunks(which: str, Q: int, json_out: bool) -> Iterator[str]:
    """census deg4|sr formatted straight from the row intervals of
    census._deg4_rows / census._sr_rows, at most BLOCK_ROWS members to a
    chunk, with the bytes of census_csv_row or json.dumps(indent=2) on their
    records.  lambda repeats quartics._salem_value_ab's float steps on the
    same integer a^2 - 4b + 8 = n^2 + 8 - 4b; k is the root of a square
    p(-1) = b + 2n + 2."""
    sqrt, isqrt = math.sqrt, math.isqrt
    none = "null" if json_out else ""
    for n, lo, hi, skip in (census._sr_rows if which == "sr" else census._deg4_rows)(Q):
        c, b0 = n * n + 8, -2 * n - 2
        for start in range(lo, hi, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, hi)
            if which == "sr":  # the range is over k
                bks = [(k * k + b0, f'"{k}"' if json_out else k)
                       for k in range(start, stop) if k not in skip]
            else:  # over b, where p(-1) = b - b0 >= 1
                ks = {k * k + b0: f'"{k}"' if json_out else k
                      for k in range(isqrt(start - b0 - 1) + 1, isqrt(stop - 1 - b0) + 1)}
                bks = [(b, ks.get(b, none)) for b in range(start, stop) if b not in skip]
            if not bks:
                continue
            if json_out:
                yield ",\n".join([
                    f'  {{\n    "a": "-{n}",\n    "b": "{b}",\n    "k": {k},\n    '
                    f'"lambda": {(y + sqrt(y * y - 4.0)) / 2.0!r},\n    "source": "direct"\n  }}'
                    for b, k in bks for y in [(n + sqrt(c - 4 * b)) / 2.0]])
            else:
                yield "".join([f"-{n},{b},{k},{(y + sqrt(y * y - 4.0)) / 2.0:.12g},direct\n"
                               for b, k in bks for y in [(n + sqrt(c - 4 * b)) / 2.0]])


# --- bianchi -----------------------------------------------------------------


def _require_trace_budget(D: int, Q: int) -> int:
    traces = bianchi.estimated_traces(D, Q)
    if traces > MAX_BIANCHI_TRACES:
        raise CapacityError(
            f"bianchi at d={D} qmax={Q} would scan about {traces} traces, "
            f"above the limit of {MAX_BIANCHI_TRACES}"
        )
    return traces


def _require_row_budget(D: int, qs: list[int]) -> int:
    rows = sum(bianchi.row_count(D, q) for q in qs)
    if rows > MAX_BIANCHI_ROWS:
        raise CapacityError(
            f"bianchi counts at d={D} up to qmax={qs[-1]} would read {rows} rows, "
            f"above the limit of {MAX_BIANCHI_ROWS}"
        )
    return rows


def _cmd_bianchi(args) -> int:
    D = _require_squarefree(args.d, "--d", 1)
    Q = _require_qmax(args)
    if args.plot_data:
        if not args.dry_run:
            return _plot(args, Q)
        qs = _plot_grid("bianchi", Q)
        _emit(f"plan command=bianchi-plot d={D} qmax={Q} grid_points={len(qs)} "
              f"rows={_require_row_budget(D, qs)} workers={args.workers}", args.out)
        return 0
    traces = _require_trace_budget(D, Q)
    if args.dry_run:
        R = math.isqrt(Q) + 3
        est = int(bianchi.marklof_constant(D) * math.sqrt(Q))
        _emit(
            f"plan command=bianchi d={D} qmax={Q} norm_bound={R} "
            f"est_count={est} est_traces={traces} workers={args.workers}",
            args.out,
        )
        return 0
    _write_table(args, bianchi.BIANCHI_CSV_HEADER, bianchi.bianchi_census(D, Q).members,
                 bianchi.bianchi_csv_row, bianchi.bianchi_json_obj)
    return 0


# --- cocompact (real quadratic fields) ---------------------------------------


def _cmd_cocompact(args) -> int:
    d = _require_squarefree(args.field, "--field", 2)
    Q = _require_qmax(args)
    if args.dry_run:
        disc = d if d % 4 == 1 else 4 * d
        _emit(
            f"plan command=cocompact field={d} qmax={Q} "
            f"est_items={int(64 * Q**1.5 / disc)} workers={args.workers}",
            args.out,
        )
        return 0
    if args.plot_data:
        return _plot(args, Q)
    rows = ((sol, totally_real.verify_salem_over_L(d, sol) if args.verified else None)
            for sol in totally_real.enumerate_system(d, Q))
    _write_table(args, f"# field={d} qmax={Q}\n{totally_real.SYSTEM_CSV_HEADER}", rows,
                 lambda row: totally_real.system_csv_row(*row), _system_json_obj)
    return 0


def _system_json_obj(row) -> dict:
    sol, ver = row
    return {"a_u": str(sol.a.u), "a_v": str(sol.a.v), "k_u": str(sol.k.u),
            "k_v": str(sol.k.v), "b_u": str(sol.b.u), "b_v": str(sol.b.v),
            "branch": sol.branch, "verified": ver}


# --- constants ---------------------------------------------------------------


def _cmd_constants(args) -> int:
    chosen = [x is not None for x in (args.omega, args.marklof_c, args.c2_bound, args.volume)]
    if sum(chosen) != 1:
        raise DomainError("pick exactly one of --omega/--marklof-c/--c2-bound/--volume")
    if args.omega is not None and args.omega > MAX_OMEGA_M:
        raise CapacityError(f"--omega must be <= {MAX_OMEGA_M}, got {args.omega}")
    if args.dry_run:
        which = ("omega" if args.omega is not None else
                 "marklof-c" if args.marklof_c is not None else
                 "c2-bound" if args.c2_bound is not None else "volume")
        _emit(f"plan command=constants which={which}", args.out)
        return 0
    if args.omega is not None:
        val = asymptotics.omega(args.omega)
        _emit(f"{val.numerator}/{val.denominator}", args.out)
        return 0
    if args.marklof_c is not None:
        D = _require_squarefree(args.marklof_c, "--marklof-c", 1)
        _emit(f"{bianchi.marklof_constant(D):.12g}", args.out)
        return 0
    if args.c2_bound is not None:
        d = _require_squarefree(args.c2_bound, "--c2-bound", 2)
        _emit(f"{totally_real.c2_upper_bound(d):.12g}", args.out)
        return 0
    try:
        h, delta, q = int(args.volume[0]), float(args.volume[1]), int(args.volume[2])
    except ValueError as exc:
        raise DomainError(f"--volume expects H DELTA QMAX, got {args.volume}") from exc
    lines = [f"volume_leading={totally_real.volume_leading(h, delta, q):.12g}"]
    if args.mc_samples:
        est = totally_real.volume_monte_carlo(h, delta, q, samples=args.mc_samples,
                                              seed=args.seed)
        lines.append(f"mc_estimate={est:.12g} samples={args.mc_samples} seed={args.seed}")
    _emit("\n".join(lines), args.out)
    return 0


# --- fit ---------------------------------------------------------------------


def _series_counter(args, qs: list[int]):
    """The count function of args.series on the grid qs, after the checks of
    its flags and, for bianchi, of the row budget over qs."""
    series = args.series
    if series == "deg4":
        return census.count_salem_deg4
    if series == "sr":
        return census.count_sr
    if series == "deg2":
        return census.count_deg2
    if series == "bianchi":
        if args.d is None:
            raise DomainError("--series bianchi requires --d")
        D = _require_squarefree(args.d, "--d", 1)
        _require_row_budget(D, qs)
        return lambda q: bianchi.bianchi_census(D, q).count
    if args.field is None:
        raise DomainError("--series system requires --field")
    d = _require_squarefree(args.field, "--field", 2)
    return lambda q: totally_real.count_system(d, q)


def _cmd_fit(args) -> int:
    try:
        qs = sorted(int(tok) for tok in args.qgrid.split(","))
    except ValueError as exc:
        raise DomainError(f"--qgrid expects comma-separated integers, got {args.qgrid!r}") from exc
    qmin = 3 if args.series == "deg2" else 2
    if len(qs) < 3 or qs[0] < qmin:
        raise DomainError(f"--qgrid needs >= 3 values, all >= {qmin}")
    if args.dry_run:
        _series_counter(args, qs)
        _emit(f"plan command=fit series={args.series} qgrid={','.join(map(str, qs))} "
              f"workers={args.workers}", args.out)
        return 0
    counts = list(map(_series_counter(args, qs), qs))
    fit = asymptotics.power_fit(list(zip(qs, counts)))
    line = (f"constant={fit.constant:.12g} exponent={fit.exponent:.12g} "
            f"residual={fit.residual:.12g} points_used={fit.points_used}")
    plot = _plot_lines(qs, counts, fit.exponent) if args.plot_data else []
    _write(args.out, [line + "\n", *plot])
    return 0


# --- report ------------------------------------------------------------------


def _cmd_report(args) -> int:
    if args.which != "multiplicity":
        raise DomainError(f"unknown report {args.which!r}")
    asymptotics._check_multiplicity_args(args.n, args.ell_max, args.step)
    if args.dry_run:
        n_rows = len(asymptotics._geodesic_terms(args.n, args.ell_max, args.step))
        _emit(f"plan command=report-multiplicity n={args.n} rows={n_rows}", args.out)
        return 0
    _write_table(args, asymptotics.MULTIPLICITY_CSV_HEADER,
                 asymptotics.multiplicity_report(args.n, args.ell_max, args.step),
                 asymptotics.multiplicity_csv_row, vars)  # its fields are the JSON keys
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to this path instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--workers", type=int, default=_default_workers(),
                        help="accepted for compatibility and validated (>= 1), but "
                             "every command runs in one process (default: SALEM_WORKERS or 1)")
    common.add_argument("--seed", type=int, default=0, help="seed for Monte Carlo checks")
    common.add_argument("--plot-data", action="store_true",
                        help="emit a two-column (Q, normalized count) series")
    common.add_argument("--dry-run", action="store_true",
                        help="print the validated plan without enumerating")

    p = argparse.ArgumentParser(prog=PROG, description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    p_census = sub.add_parser("census", help="integer censuses", parents=[])
    census_sub = p_census.add_subparsers(dest="which", required=True)
    for which, blurb in (("deg4", "all degree-4 Salem numbers <= Q"),
                         ("sr", "square-rootable degree-4 Salem numbers <= Q"),
                         ("deg2", "degree-2 Salem numbers <= Q")):
        sp = census_sub.add_parser(which, parents=[common], help=blurb)
        sp.add_argument("--qmax", type=int, required=True)
        sp.set_defaults(func=_cmd_census, series=which)

    p_b = sub.add_parser("bianchi", parents=[common],
                         help="Salem numbers generated by PSL(2, o_K), K = Q(sqrt(-D))")
    p_b.add_argument("--d", type=int, required=True, help="square-free D >= 1")
    p_b.add_argument("--qmax", type=int, required=True)
    p_b.set_defaults(func=_cmd_bianchi, series="bianchi")

    p_c = sub.add_parser("cocompact", parents=[common],
                         help="system solutions over the real quadratic field Q(sqrt(d))")
    p_c.add_argument("--field", type=int, required=True, help="square-free d >= 2")
    p_c.add_argument("--qmax", type=int, required=True)
    p_c.add_argument("--verified", action="store_true",
                     help="verify the Salem-over-L property per solution")
    p_c.set_defaults(func=_cmd_cocompact, series="system")

    p_k = sub.add_parser("constants", parents=[common], help="closed-form constants")
    p_k.add_argument("--omega", type=int, default=None, metavar="M")
    p_k.add_argument("--marklof-c", type=int, default=None, metavar="D")
    p_k.add_argument("--c2-bound", type=int, default=None, metavar="D_FIELD")
    p_k.add_argument("--volume", nargs=3, default=None, metavar=("H", "DELTA", "QMAX"))
    p_k.add_argument("--mc-samples", type=int, default=0,
                     help="also Monte Carlo the exact volume with this many samples")
    p_k.set_defaults(func=_cmd_constants)

    p_f = sub.add_parser("fit", parents=[common], help="power-law fit of a count series")
    p_f.add_argument("--series", choices=("deg4", "sr", "deg2", "bianchi", "system"),
                     required=True)
    p_f.add_argument("--qgrid", required=True, help="comma-separated Q values")
    p_f.add_argument("--d", type=int, default=None)
    p_f.add_argument("--field", type=int, default=None)
    p_f.set_defaults(func=_cmd_fit)

    p_r = sub.add_parser("report", help="derived reports")
    report_sub = p_r.add_subparsers(dest="which", required=True)
    sp = report_sub.add_parser("multiplicity", parents=[common],
                               help="mean-multiplicity lower bounds")
    sp.add_argument("--n", type=int, required=True, help="even orbifold dimension >= 4")
    sp.add_argument("--ell-max", type=float, required=True)
    sp.add_argument("--step", type=float, required=True)
    sp.set_defaults(func=_cmd_report, which="multiplicity")
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        print(f"{PROG}-error kind=domain detail=\"--workers must be >= 1\"", file=sys.stderr)
        return 3
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"{PROG}-error kind=domain detail=\"{exc}\"", file=sys.stderr)
        return 3
    except (CapacityError, OverflowError) as exc:
        print(f"{PROG}-error kind=capacity detail=\"{exc}\"", file=sys.stderr)
        return 4


def entrypoint() -> None:
    # SIGTERM unwinds like an exception, so _write removes its temporary file
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
