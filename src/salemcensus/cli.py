"""Command-line surface: censuses, constants, fits, and reports with
reproducible file output.

Every subcommand is first planned (Plan): its arguments are validated as
the run validates them, and its work, an exact upper bound on its kernel
steps, is computed in O(1) per grid point before any kernel runs.  main
exits 4 before any output when the work is above the budget of its unit,
MAX_ROWS (records written) or MAX_STEPS (count steps), and --dry-run
prints one line instead of running:

    plan command=<cmd> <validated params> rows=R work=W

where R is the exact number of records (CSV data lines or JSON objects)
the run writes.

Exit codes: 0 success, 2 usage error, 3 domain-validation error,
4 arithmetic capacity failure.  Errors are one machine-parsable line on
stderr, a " or backslash in its detail="..." escaped by a backslash.  Each
command accepts only the flags it reads.  Identical argv produce
byte-identical output; --workers is validated but runs nothing in parallel.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import signal
import sys
from collections.abc import Callable, Iterator
from itertools import chain
from typing import NamedTuple

# census, bianchi, totally_real and asymptotics are imported by the plans
# that use them, so that a command loads only the modules it runs.
from .algebra import require_square_free
from .errors import CapacityError, DomainError

PROG = "salem"

# Field parameters above this are refused before any arithmetic: validating
# one costs O(d^(1/3)) trial divisions, about 5e5 at the limit.
MAX_FIELD_PARAM = 10**18

# Budget of the work of a table (census deg4|sr, bianchi, cocompact): an
# upper bound on the records it writes, so a file of at most several GB.
# To /dev/null on a 2-vCPU Xeon VM, at mid sizes, a census row takes about
# 1.3 us (census sr --qmax 20000, deg4 --qmax 2000), a cocompact row 2.7 us,
# 3.9 us with --verified (--field 2 --qmax 1000 and 4000), 2.5 us as JSON
# (--field 2 --qmax 1000, 335,716 rows in 0.85 s, against 1.9-2.1 us as CSV
# in the same runs), and a bianchi
# member 5.3-6 us (--d 3 --qmax 1e12, 906,100 members in 4.8-5.5 s: 1.1-1.3
# us of band-sorted member stream, the rest mostly bianchi_csv_row).  So
# just under it a census table takes about 2 minutes, cocompact --field 2
# --qmax 33470 (65M rows) 3 minutes, 4 with --verified, and bianchi --d 3
# --qmax 7.5e15 (78.5M members) about 7 minutes.
MAX_ROWS = 10**8

# Budget of the work of every other command, above all the count series of
# fit and --plot-data: an upper bound on its count steps, 1 a closed form or
# an exact floor of count_system (at most 1 + 2 r of them a k, 9 at d = 2),
# and 5 a bianchi row (its cut and its reducible w).  On a 2-vCPU Xeon VM,
# fit --series system --field 2 on Q/4, Q/2, Q = 1.93e11 takes 63 s, 1.3 us
# a step, and fit --series bianchi --d 3 on Q/100, Q/10, Q = 2.82e29 (5e7
# rows) 5.3 minutes, 6.4 us a row.  So a row is priced at 5 steps, and just
# under the budget the bianchi fit on Q/100, Q/10, Q = 4.5e26 takes about as
# long as the system fit.
MAX_STEPS = 5 * 10**7

# Largest M whose omega(M) prints: beyond it the numerator has more digits
# than int-to-str conversion allows.
MAX_OMEGA_M = 120

# Table rows are formatted and written this many at a time: the census,
# bianchi, totally_real and asymptotics modules format their own tables.
BLOCK_ROWS = 1024

# Normalizing exponent and smallest grid Q of each --plot-data series.
PLOT_SERIES = {"deg4": (2.0, 8), "sr": (1.5, 8), "deg2": (1.0, 4),
               "bianchi": (0.5, 16), "system": (1.5, 16)}


class Plan(NamedTuple):
    """A validated command: what names it and its parameters, work bounds
    its kernel steps in unit ("rows" or "steps"), rows() counts the records
    it writes, and run() writes them.  main calls one of rows() and run()."""

    what: str
    work: int
    unit: str
    rows: Callable[[], int]
    run: Callable[[], None]


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


def _json_list(chunks) -> Iterator[str]:
    """The chunks, each some objects of an indent-2 JSON list joined by
    ",\n", framed as json.dumps frames the list ("[]\n" when empty)."""
    sep = "[\n"
    for chunk in chunks:
        yield sep + chunk
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


def _write_chunks(args, header: str, chunks) -> None:
    """Write a table from the (header, chunks) of the module that owns its
    rows, each chunk at most BLOCK_ROWS records and never empty: CSV lines
    under header, or (--format json) the objects of one JSON list."""
    _write(args.out, _json_list(chunks) if args.format == "json" else
           chain([header + "\n"], chunks))


def _require_qmax(args, minimum: int = 2) -> int:
    if args.qmax < minimum:
        raise DomainError(f"--qmax must be >= {minimum}, got {args.qmax}")
    return args.qmax


def _require_squarefree(value: int, flag: str, minimum: int) -> int:
    if value > MAX_FIELD_PARAM:
        raise DomainError(f"{flag} must be <= {MAX_FIELD_PARAM}, got {value}")
    return require_square_free(value, minimum, flag)


def _plot_lines(qs, counts, exponent: float) -> list[str]:
    """The CSV series (Q, count / Q^exponent), whatever --format."""
    return ["Q,normalized_count\n", *(f"{q},{c / q**exponent:.12g}\n" for q, c in zip(qs, counts))]


def _plot_grid(series: str, Q: int) -> list[int]:
    """The --plot-data grid ..., Q//4, Q//2, Q of series, ascending."""
    qs = [Q]
    while qs[-1] // 2 >= PLOT_SERIES[series][1]:
        qs.append(qs[-1] // 2)
    return qs[::-1]


def _plot_plan(args, command: str, Q: int) -> Plan:
    """--plot-data: the plan of the args.series counts on _plot_grid."""
    qs = _plot_grid(args.series, Q)
    params, work, count = _series(args, qs)
    return Plan(f"{command}-plot {params}qmax={Q} grid_points={len(qs)}", work, "steps",
                lambda: len(qs), lambda: _write(args.out, _plot_lines(
                    qs, list(map(count, qs)), PLOT_SERIES[args.series][0])))


# --- census ------------------------------------------------------------------


def _plan_census(args) -> Plan:
    from . import census

    which = args.which
    Q = _require_qmax(args, 3 if which == "deg2" else 2)
    if args.plot_data:
        return _plot_plan(args, f"census-{which}", Q)
    what = f"census-{which} qmax={Q}"
    if which == "deg2":
        return Plan(what, 1, "steps", lambda: 1,
                    lambda: _emit(str(census.count_deg2(Q)), args.out))
    count = (census.count_sr if which == "sr" else census.count_salem_deg4)(Q)
    return Plan(what, count, "rows", lambda: count, lambda: _write_chunks(
        args, *census.census_table(which, Q, args.format == "json", BLOCK_ROWS)))


# --- bianchi -----------------------------------------------------------------


def _plan_bianchi(args) -> Plan:
    from . import bianchi

    D = _require_squarefree(args.d, "--d", 1)
    Q = _require_qmax(args)
    if args.plot_data:
        return _plot_plan(args, "bianchi", Q)

    return Plan(f"bianchi d={D} qmax={Q}", bianchi.census_bounds(D, Q)[0], "rows",
                lambda: bianchi.bianchi_census(D, Q).count, lambda: _write_chunks(
                    args, *bianchi.bianchi_table(D, Q, args.format == "json", BLOCK_ROWS)))


# --- cocompact (real quadratic fields) ---------------------------------------


def _plan_cocompact(args) -> Plan:
    from . import totally_real

    d = _require_squarefree(args.field, "--field", 2)
    Q = _require_qmax(args)
    if args.plot_data:
        if args.verified:
            raise DomainError("--verified cannot be combined with --plot-data")
        return _plot_plan(args, "cocompact", Q)

    return Plan(f"cocompact field={d} qmax={Q}", totally_real.count_bounds(d, Q)[0], "rows",
                lambda: totally_real.count_system(d, Q), lambda: _write_chunks(
                    args, *totally_real.system_table(d, Q, args.verified,
                                                     args.format == "json", BLOCK_ROWS)))


# --- constants ---------------------------------------------------------------


def _plan_constants(args) -> Plan:
    from . import asymptotics, bianchi, totally_real

    chosen = [x is not None for x in (args.omega, args.marklof_c, args.c2_bound, args.volume)]
    if sum(chosen) != 1:
        raise DomainError("pick exactly one of --omega/--marklof-c/--c2-bound/--volume")
    if args.omega is not None:
        if args.omega > MAX_OMEGA_M:
            raise CapacityError(f"--omega must be <= {MAX_OMEGA_M}, got {args.omega}")
        which, lines = "omega", ["%d/%d" % asymptotics.omega_series(args.omega)[-1]]
    elif args.marklof_c is not None:
        D = _require_squarefree(args.marklof_c, "--marklof-c", 1)
        which, lines = "marklof-c", [f"{bianchi.marklof_constant(D):.12g}"]
    elif args.c2_bound is not None:
        d = _require_squarefree(args.c2_bound, "--c2-bound", 2)
        which, lines = "c2-bound", [f"{totally_real.c2_upper_bound(d):.12g}"]
    else:
        try:
            h, delta, q = int(args.volume[0]), float(args.volume[1]), int(args.volume[2])
        except ValueError as exc:
            raise DomainError(f"--volume expects H DELTA QMAX, got {args.volume}") from exc
        which, lines = "volume", [
            f"volume_leading={totally_real.volume_leading(h, delta, q):.12g}",
            f"volume_exact={totally_real.volume_exact(h, delta, q):.12g}"]
    return Plan(f"constants which={which}", 1, "steps", lambda: len(lines),
                lambda: _emit("\n".join(lines), args.out))


# --- fit ---------------------------------------------------------------------


def _series(args, qs: list[int]) -> tuple[str, int, Callable[[int], int]]:
    """(params, work, count) of the count series args.series on the grid
    qs, after the checks of its flags: the flags for the plan line, the
    bound on the count steps over qs, one step per closed form, and the
    count of one Q."""
    series = args.series
    if series == "bianchi":
        if args.d is None:
            raise DomainError("--series bianchi requires --d")
        D = _require_squarefree(args.d, "--d", 1)
        from . import bianchi

        return (f"d={D} ", sum(bianchi.census_bounds(D, q)[1] for q in qs),
                lambda q: bianchi.bianchi_census(D, q).count)
    if series == "system":
        if args.field is None:
            raise DomainError("--series system requires --field")
        d = _require_squarefree(args.field, "--field", 2)
        from . import totally_real

        return (f"field={d} ", sum(totally_real.count_bounds(d, q)[1] for q in qs),
                lambda q: totally_real.count_system(d, q))
    from . import census

    return "", len(qs), {"deg4": census.count_salem_deg4, "sr": census.count_sr,
                         "deg2": census.count_deg2}[series]


def _plan_fit(args) -> Plan:
    try:
        qs = sorted(int(tok) for tok in args.qgrid.split(","))
    except ValueError as exc:
        raise DomainError(f"--qgrid expects comma-separated integers, got {args.qgrid!r}") from exc
    qmin = 3 if args.series == "deg2" else 2
    if len(set(qs)) < 3 or qs[0] < qmin:
        raise DomainError(f"--qgrid needs >= 3 distinct values, all >= {qmin}")
    for flag, value, series in (("--d", args.d, "bianchi"), ("--field", args.field, "system")):
        if value is not None and args.series != series:
            raise DomainError(f"{flag} is read only by --series {series}")
    params, work, count = _series(args, qs)

    def run():
        from . import asymptotics

        counts = list(map(count, qs))
        fit = asymptotics.power_fit(list(zip(qs, counts)))
        line = (f"constant={fit.constant:.12g} exponent={fit.exponent:.12g} "
                f"residual={fit.residual:.12g} points_used={fit.points_used}")
        plot = _plot_lines(qs, counts, fit.exponent) if args.plot_data else []
        _write(args.out, [line + "\n", *plot])

    return Plan(f"fit series={args.series} {params}qgrid={','.join(map(str, qs))}", work,
                "steps", lambda: 1 + len(qs) * args.plot_data, run)


# --- report ------------------------------------------------------------------


def _plan_report(args) -> Plan:
    from . import asymptotics

    asymptotics._check_multiplicity_args(args.n, args.ell_max, args.step)
    n_rows = len(asymptotics._geodesic_terms(args.n, args.ell_max, args.step))
    # the omega series and n/2 terms a row
    return Plan(f"report-multiplicity n={args.n}", (n_rows + 1) * (args.n // 2), "steps",
                lambda: n_rows, lambda: _write_chunks(args, *asymptotics.multiplicity_table(
                    args.n, args.ell_max, args.step, args.format == "json", BLOCK_ROWS)))


# --- parser ------------------------------------------------------------------


# The commands and their help lines.  Given a command, build_parser fills
# in only its subtree.
COMMANDS = {
    "census": "integer censuses",
    "bianchi": "Salem numbers generated by PSL(2, o_K), K = Q(sqrt(-D))",
    "cocompact": "system solutions over the real quadratic field Q(sqrt(d))",
    "constants": "closed-form constants",
    "fit": "power-law fit of a count series",
    "report": "derived reports",
}


def _add_flags(p: argparse.ArgumentParser, table: bool = False, plot: bool = False) -> None:
    """Add the flags of every leaf command to p, then --format if table
    and --plot-data if plot."""
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")
    p.add_argument("--workers", type=int, default=1,
                   help="validated (>= 1), but every command runs in one process")
    p.add_argument("--dry-run", action="store_true",
                   help="print the validated plan, its rows and work, instead of running")
    if table:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    if plot:
        p.add_argument("--plot-data", action="store_true",
                       help="emit a two-column (Q, normalized count) series")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or, given a command name, the parser
    whose other commands are bare: the same top-level usage and help, and
    the same parse of every argv that starts with that command."""
    p = argparse.ArgumentParser(prog=PROG, description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    built = {name: sub.add_parser(name, help=blurb, add_help=command in (None, name))
             for name, blurb in COMMANDS.items()}

    if command in (None, "census"):
        census_sub = built["census"].add_subparsers(dest="which", required=True)
        for which, blurb in (("deg4", "all degree-4 Salem numbers <= Q"),
                             ("sr", "square-rootable degree-4 Salem numbers <= Q"),
                             ("deg2", "degree-2 Salem numbers <= Q")):
            sp = census_sub.add_parser(which, help=blurb)
            _add_flags(sp, table=which != "deg2", plot=True)
            sp.add_argument("--qmax", type=int, required=True)
            sp.set_defaults(plan=_plan_census, series=which)

    if command in (None, "bianchi"):
        p_b = built["bianchi"]
        _add_flags(p_b, table=True, plot=True)
        p_b.add_argument("--d", type=int, required=True, help="square-free D >= 1")
        p_b.add_argument("--qmax", type=int, required=True)
        p_b.set_defaults(plan=_plan_bianchi, series="bianchi")

    if command in (None, "cocompact"):
        p_c = built["cocompact"]
        _add_flags(p_c, table=True, plot=True)
        p_c.add_argument("--field", type=int, required=True, help="square-free d >= 2")
        p_c.add_argument("--qmax", type=int, required=True)
        p_c.add_argument("--verified", action="store_true",
                         help="verify the Salem-over-L property per solution")
        p_c.set_defaults(plan=_plan_cocompact, series="system")

    if command in (None, "constants"):
        p_k = built["constants"]
        _add_flags(p_k)
        p_k.add_argument("--omega", type=int, default=None, metavar="M")
        p_k.add_argument("--marklof-c", type=int, default=None, metavar="D")
        p_k.add_argument("--c2-bound", type=int, default=None, metavar="D_FIELD")
        p_k.add_argument("--volume", nargs=3, default=None, metavar=("H", "DELTA", "QMAX"))
        p_k.set_defaults(plan=_plan_constants)

    if command in (None, "fit"):
        p_f = built["fit"]
        _add_flags(p_f, plot=True)
        p_f.add_argument("--series", choices=("deg4", "sr", "deg2", "bianchi", "system"),
                         required=True)
        p_f.add_argument("--qgrid", required=True, help="comma-separated Q values")
        p_f.add_argument("--d", type=int, default=None)
        p_f.add_argument("--field", type=int, default=None)
        p_f.set_defaults(plan=_plan_fit)

    if command in (None, "report"):
        report_sub = built["report"].add_subparsers(dest="which", required=True)
        sp = report_sub.add_parser("multiplicity", help="mean-multiplicity lower bounds")
        _add_flags(sp, table=True)
        sp.add_argument("--n", type=int, required=True, help="even orbifold dimension >= 4")
        sp.add_argument("--ell-max", type=float, required=True)
        sp.add_argument("--step", type=float, required=True)
        sp.set_defaults(plan=_plan_report, which="multiplicity")
    return p


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        if args.workers < 1:
            raise DomainError("--workers must be >= 1")
        plan = args.plan(args)
        budget = MAX_ROWS if plan.unit == "rows" else MAX_STEPS
        if plan.work > budget:
            raise CapacityError(f"{plan.what} needs up to {plan.work} {plan.unit}, "
                                f"above the limit of {budget}")
        if args.dry_run:
            _emit(f"plan command={plan.what} rows={plan.rows()} work={plan.work}", args.out)
        else:
            plan.run()
        return 0
    except (DomainError, CapacityError, OverflowError) as exc:
        kind, code = ("domain", 3) if isinstance(exc, DomainError) else ("capacity", 4)
        detail = str(exc).replace("\\", "\\\\").replace('"', '\\"')
        print(f'{PROG}-error kind={kind} detail="{detail}"', file=sys.stderr)
        return code


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
