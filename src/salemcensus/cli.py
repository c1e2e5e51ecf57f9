"""Command-line surface: censuses, constants, fits, and reports with
reproducible file output.

Every subcommand is first planned (Plan): its arguments are validated by
the library checks that the run makes, called with the flag's name:
errors._check_q for --qmax, errors._check_grid for the doubles of --qgrid,
and algebra.require_square_free, which holds the 1e18 limit, for --d,
--field, --marklof-c and --c2-bound.  A count series also refuses a Q whose
count or Q^exponent is past a double (see _grid_work).  Its work,
an exact upper bound on its kernel steps, is computed in O(1) per grid
point before any kernel runs.  main exits 4 before any output when the
work is above the budget of its unit, MAX_ROWS (records written) or
MAX_STEPS (count steps), and --dry-run prints one line instead of running:

    plan command=<cmd> <validated params> rows=R work=W

where R is the exact number of records (CSV data lines or JSON objects)
the run writes.

One table, COMMANDS, names each leaf command, its plan and the only flags
it accepts, and _parse reads argv from it: flags are named in full, as
--flag value or --flag=value, the last of a repeated flag wins, and a
negative number is a value.  -h or --help prints the help that the table
describes and exits 0.  Another table, SERIES, declares each count series
of fit and --plot-data: the table command that lists it, its field flag,
least Q and plot grid.  One plan, _plan_table, serves the five table
commands, and _kernel names each series' library calls: a new series is
one row of SERIES and its library calls in _kernel.

Exit codes: 0 success, 2 usage error, 3 domain-validation error,
4 arithmetic capacity failure.  Errors are one machine-parsable line on
stderr, salem-error kind=usage|domain|capacity detail="...", a " or
backslash in the detail escaped by a backslash, and nothing on stdout; a
closed stderr loses the line, not the exit code.
Identical argv produce byte-identical output; --workers is validated but
runs nothing in parallel.

A plan's run() returns its output, and main hands it, the dry-run line or
the help to _write, the one writer of stdout and of --out: a write or flush
that fails there, or a closed stdout, is a domain error (exit 3), save a
reader that closes the pipe of stdout (as head does), which ends the run
quietly with exit 1.  Once main returns, entrypoint flushes stdout and
stderr and ends the process with os._exit, skipping the interpreter's
teardown: atexit handlers, and wrappers that report after the module
returns (python -m cProfile, coverage run -m), see nothing.
"""

import contextlib
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import chain
from types import SimpleNamespace

# algebra, census, bianchi, totally_real and asymptotics are imported by the
# plans that use them, so that a command loads only the modules it runs.
from .errors import CapacityError, DomainError, _check_grid, _check_q

PROG = "salem"

# Budget of the work of a table (census deg4|sr, bianchi, cocompact): an
# upper bound on the records it writes, so a file of at most several GB.
# To /dev/null on a 2-vCPU Xeon VM, at mid sizes, a census row takes about
# 1 us (census sr --qmax 20000, 3.76M rows in 4.05-4.16 s; deg4 --qmax
# 2000, 7.99M rows in 6.4-8.2 s), a cocompact row 2.7 us,
# 3.9 us with --verified (--field 2 --qmax 1000 and 4000), 2.5 us as JSON
# (--field 2 --qmax 1000, 335,716 rows in 0.85 s, against 1.9-2.1 us as CSV
# in the same runs), and a bianchi
# member 5.3-6 us (--d 3 --qmax 1e12, 906,100 members in 4.8-5.5 s: 1.1-1.3
# us of band-sorted member stream, the rest mostly bianchi_csv_row).  So
# just under it a census table takes under 2 minutes, cocompact --field 2
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

# Largest M whose omega(M) prints at Python's default int-to-str limit of
# 4300 digits: omega(120)'s denominator, the longer number, has 4285.
MAX_OMEGA_M = 120

# Table rows are formatted and written this many at a time: the census,
# bianchi, totally_real and asymptotics modules format their own tables.
BLOCK_ROWS = 1024

# Each count series of fit and --plot-data, which the plans read here alone:
# the words of the table command that lists it, the flag of its field and
# that flag's least value (None over Z), the least Q it counts, and the
# normalizing exponent and smallest grid Q of its --plot-data.  A new series
# is one row here and its library calls in _kernel.
SERIES = {"deg4": ("census deg4", None, None, 2, 2.0, 8),
          "sr": ("census sr", None, None, 2, 1.5, 8),
          "deg2": ("census deg2", None, None, 3, 1.0, 4),
          "bianchi": ("bianchi", "--d", 1, 2, 0.5, 16),
          "system": ("cocompact", "--field", 2, 2, 1.5, 16)}


# Plan, Flag and Command are plain classes: creating a NamedTuple class costs
# about 0.3 ms, at every start.


class Plan:
    """A validated command: what names it and its parameters, work bounds
    its kernel steps in unit ("rows" or "steps"), rows() counts the records
    it writes, and run() returns them as strings to write.  main calls one
    of rows() and run()."""

    __slots__ = ("what", "work", "unit", "rows", "run")

    def __init__(self, what: str, work: int, unit: str, rows: Callable[[], int],
                 run: Callable[[], Iterable[str]]):
        self.what, self.work, self.unit, self.rows, self.run = what, work, unit, rows, run


def _write(out: str | None, chunks: Iterable[str]) -> None:
    """Write the strings of chunks as they come to out, or to stdout when out
    is None.  A new or regular file is written under a temporary name and
    renamed over out when complete; stdout, devices and FIFOs are written in
    place.  A failed write, flush or close raises DomainError, and so does
    a stdout that is closed (None)."""
    if out is None:
        if sys.stdout is None:
            raise DomainError("cannot write stdout: it is closed")
        _drain(None, sys.stdout, chunks, sys.stdout.flush)
        return
    target = os.path.realpath(out)
    exists = os.path.exists(target)
    atomic = (not exists or os.path.isfile(target)) and os.access(os.path.dirname(target), os.W_OK)
    path = f"{target}.{os.getpid()}.tmp" if atomic else target
    try:
        fh = _out_errors(out, open, path, "w", encoding="utf-8", newline="\n")
        try:
            if atomic and exists:
                _out_errors(out, os.chmod, path, os.stat(target).st_mode & 0o7777)
            _drain(out, fh, chunks, fh.close)
        finally:
            # after a failed write or row producer, closing flushes what is still
            # buffered, which fails again on a full device: the file is closed all
            # the same, and the first error is the one reported
            with contextlib.suppress(OSError):
                fh.close()
        if atomic:
            _out_errors(out, os.replace, path, target)
    except BaseException:
        if atomic:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise


def _drain(out: str | None, fh, chunks: Iterable[str], end: Callable[[], None]) -> None:
    """Write chunks to fh, the stream of out, then end(): a flush or a close,
    where a full disk or device fails."""
    for chunk in chunks:  # errors of the row producers pass unchanged
        _out_errors(out, fh.write, chunk)
    _out_errors(out, end)


def _out_errors(out: str | None, fn, *args, **kwargs):
    """fn(*args, **kwargs), an OSError turned into a DomainError on out, or
    on stdout when out is None, save a BrokenPipeError of stdout, which
    passes for entrypoint."""
    try:
        return fn(*args, **kwargs)
    except OSError as exc:
        if out is None and isinstance(exc, BrokenPipeError):
            raise
        where = "stdout" if out is None else f"--out {out}"
        raise DomainError(f"cannot write {where}: {exc.strerror or exc}") from exc


def _json_list(chunks) -> Iterator[str]:
    """The chunks, each some objects of an indent-2 JSON list joined by
    ",\n", framed as json.dumps frames the list ("[]\n" when empty)."""
    sep = "[\n"
    for chunk in chunks:
        yield sep + chunk
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


def _table(args, table: Callable, *params) -> Iterable[str]:
    """The output of the table that table(*params, json, BLOCK_ROWS) gives as
    (header, chunks) from the module that owns its rows, each chunk at most
    BLOCK_ROWS records and never empty: CSV lines under header, or (--format
    json) the objects of one JSON list."""
    json = args.format == "json"
    header, chunks = table(*params, json, BLOCK_ROWS)
    return _json_list(chunks) if json else chain([header + "\n"], chunks)


def _plot_lines(qs, counts, exponent: float) -> list[str]:
    """The CSV series (Q, count / Q^exponent), whatever --format."""
    return ["Q,normalized_count\n", *(f"{q},{c / q**exponent:.12g}\n" for q, c in zip(qs, counts))]


def _plot_grid(series: str, Q: int) -> list[int]:
    """The --plot-data grid ..., Q//4, Q//2, Q of series, ascending."""
    qs = [Q]
    while qs[-1] // 2 >= SERIES[series][5]:
        qs.append(qs[-1] // 2)
    return qs[::-1]


# --- the table commands: census deg4|sr|deg2, bianchi, cocompact ------------


def _kernel(args, series: str) -> tuple[str, Callable, Callable, Callable | None]:
    """(params, bounds, count, table) of series, after the check of its field
    flag as the library checks it; only fit can leave the flag out, as a
    table command requires it.  params names the field for the plan line,
    bounds(q) is an upper bound on the count of q and its count steps, one
    step a closed form, and table(q) the table function and its parameters
    that _table takes, None for deg2, whose command prints its count.  The
    one place that names a series' library calls."""
    flag, least = SERIES[series][1:3]
    params, field = "", None
    if flag:
        if (field := getattr(args, flag[2:])) is None:
            raise DomainError(f"--series {series} requires {flag}")
        from .algebra import require_square_free

        field = require_square_free(field, least, flag)
        params = f"{flag[2:]}={field} "
    if series == "bianchi":
        from . import bianchi

        return (params, lambda q: bianchi.census_bounds(field, q),
                lambda q: bianchi.bianchi_census(field, q).count,
                lambda q: (bianchi.bianchi_table, field, q))
    if series == "system":
        from . import totally_real

        return (params, lambda q: totally_real.count_bounds(field, q),
                lambda q: totally_real.count_system(field, q),
                lambda q: (totally_real.system_table, field, q, args.verified))
    from . import census

    count = {"deg4": census.count_salem_deg4, "sr": census.count_sr,
             "deg2": census.count_deg2}[series]
    return (params, lambda q: (count(q), 1), count,
            None if series == "deg2" else lambda q: (census.census_table, series, q))


def _grid_work(bounds: Callable, qs: list[int], exponent: float, flag: str) -> int:
    """The count steps of a series on the grid qs, the sum of bounds(q)[1].
    The run's fit and plot lines take each count and Q^exponent as a double,
    so a grid whose largest Q has a count bound or Q^exponent past a double's
    range is a CapacityError on flag, the flag that gave qs; qs ascend."""
    try:  # no count or Q^exponent on the grid is above the largest Q's
        float(bounds(qs[-1])[0]), float(qs[-1]) ** exponent
    except OverflowError:
        raise CapacityError(f"{flag}: a count or Q^{exponent:g} overflows a double") from None
    return sum(bounds(q)[1] for q in qs)


def _plan_table(args) -> Plan:
    """The plan of a table command, whose words name its series in SERIES:
    the series' table, or the count that census deg2 prints.  --plot-data
    plans the counts on _plot_grid instead; it writes no table, so it
    refuses the flags that only a table reads."""
    name = " ".join(filter(None, (args.command, getattr(args, "which", None))))
    series = next(s for s, row in SERIES.items() if row[0] == name)
    params, bounds, count, table = _kernel(args, series)
    Q = _check_q(args.qmax, SERIES[series][3], "--qmax")
    what = f"{name.replace(' ', '-')}{'-plot' * args.plot_data} {params}qmax={Q}"
    if args.plot_data:
        for flag, given in (("--verified", getattr(args, "verified", False)),
                            ("--format json", getattr(args, "format", "csv") == "json")):
            if given:
                raise DomainError(f"{flag} cannot be combined with --plot-data")
        qs, exponent = _plot_grid(series, Q), SERIES[series][4]
        return Plan(f"{what} grid_points={len(qs)}", _grid_work(bounds, qs, exponent, "--qmax"),
                    "steps", lambda: len(qs), lambda: _plot_lines(qs, map(count, qs), exponent))
    if table is None:
        return Plan(what, 1, "steps", lambda: 1, lambda: [f"{count(Q)}\n"])
    return Plan(what, bounds(Q)[0], "rows", lambda: count(Q), lambda: _table(args, *table(Q)))


# --- constants ---------------------------------------------------------------


def _plan_constants(args) -> Plan:
    from . import asymptotics, bianchi, totally_real
    from .algebra import require_square_free

    chosen = [x is not None for x in (args.omega, args.marklof_c, args.c2_bound, args.volume)]
    if sum(chosen) != 1:
        raise DomainError("pick exactly one of --omega/--marklof-c/--c2-bound/--volume")
    if args.omega is not None:
        if _check_q(args.omega, 1, "--omega") > MAX_OMEGA_M:
            raise CapacityError(f"--omega must be <= {MAX_OMEGA_M}, got {args.omega}")
        which, pair = "omega", asymptotics.omega_series(args.omega)[-1]
        try:
            lines = ["%d/%d\n" % pair]
        except ValueError as exc:
            raise CapacityError(f"--omega {args.omega}: omega has more digits than the "
                                f"int-to-str limit of {sys.get_int_max_str_digits()}") from exc
    elif args.marklof_c is not None:
        D = require_square_free(args.marklof_c, 1, "--marklof-c")
        which, lines = "marklof-c", [f"{bianchi.marklof_constant(D):.12g}\n"]
    elif args.c2_bound is not None:
        d = require_square_free(args.c2_bound, 2, "--c2-bound")
        which, lines = "c2-bound", [f"{totally_real.c2_upper_bound(d):.12g}\n"]
    else:
        try:
            h, delta, q = int(args.volume[0]), float(args.volume[1]), int(args.volume[2])
        except ValueError as exc:
            raise DomainError(f"--volume expects H DELTA QMAX, got {args.volume}") from exc
        totally_real._check_volume(h, delta, q, ("--volume H", "--volume DELTA", "--volume QMAX"))
        which, lines = "volume", [
            f"volume_leading={totally_real.volume_leading(h, delta, q):.12g}\n",
            f"volume_exact={totally_real.volume_exact(h, delta, q):.12g}\n"]
    return Plan(f"constants which={which}", 1, "steps", lambda: len(lines), lambda: lines)


# --- fit ---------------------------------------------------------------------


def _plan_fit(args) -> Plan:
    try:
        qs = sorted({int(tok) for tok in args.qgrid.split(",")})  # a repeated Q is one point
    except ValueError as exc:
        raise DomainError(f"--qgrid expects comma-separated integers, got {args.qgrid!r}") from exc
    _check_q(qs[0], SERIES[args.series][3], "--qgrid")
    for series, (_, flag, *_) in SERIES.items():
        if flag and series != args.series and getattr(args, flag[2:]) is not None:
            raise DomainError(f"{flag} is read only by --series {series}")
    params, bounds, count, _ = _kernel(args, args.series)
    work = _grid_work(bounds, qs, SERIES[args.series][4], "--qgrid")
    _check_grid(qs, "--qgrid")  # after the range check of _grid_work: it takes each Q as a double

    def run():
        from . import asymptotics

        counts = list(map(count, qs))
        fit = asymptotics.power_fit(list(zip(qs, counts)))
        line = (f"constant={fit.constant:.12g} exponent={fit.exponent:.12g} "
                f"residual={fit.residual:.12g} points_used={fit.points_used}\n")
        return [line, *(_plot_lines(qs, counts, fit.exponent) if args.plot_data else [])]

    return Plan(f"fit series={args.series} {params}qgrid={','.join(map(str, qs))}", work,
                "steps", lambda: 1 + len(qs) * args.plot_data, run)


# --- report ------------------------------------------------------------------


def _plan_report(args) -> Plan:
    from . import asymptotics

    asymptotics._check_multiplicity_args(args.n, args.ell_max, args.step,
                                         ("--n", "--ell-max", "--step"))
    n_rows = len(asymptotics._geodesic_terms(args.n, args.ell_max, args.step))
    # the omega series and n/2 terms a row
    return Plan(f"report-multiplicity n={args.n}", (n_rows + 1) * (args.n // 2), "steps",
                lambda: n_rows, lambda: _table(args, asymptotics.multiplicity_table,
                                               args.n, args.ell_max, args.step))


# --- command table -----------------------------------------------------------


class Flag:
    """A --flag of a command.  It takes nargs values, each passed through
    convert (int, float or str) or checked against a tuple of the values
    allowed, and kept as a list when there are several; a switch (nargs 0)
    sets True.  Its value is default unless given, and a REQUIRED flag
    must be given.  metavar names its values in the help."""

    __slots__ = ("convert", "default", "help", "metavar", "nargs")

    def __init__(self, convert: Callable[[str], object] | tuple[str, ...] | None,
                 default: object = None, help: str = "", metavar: str = "", nargs: int = 1):
        self.convert, self.default, self.help = convert, default, help
        self.metavar, self.nargs = metavar, nargs


class Command:
    """A leaf command: its help line, its plan and its flags."""

    __slots__ = ("help", "plan", "flags")

    def __init__(self, help: str, plan: Callable[..., Plan], flags: dict[str, Flag]):
        self.help, self.plan, self.flags = help, plan, flags


REQUIRED = object()  # the default of a flag that must be given

_EVERY = {
    "--out": Flag(str, None, "write output to this path instead of stdout", "PATH"),
    "--workers": Flag(int, 1, "validated (>= 1), but every command runs in one process", "N"),
    "--dry-run": Flag(None, False, "print the validated plan, its rows and work, instead of "
                      "running", nargs=0),
}
_TABLE = {"--format": Flag(("csv", "json"), "csv")}
_PLOT = {"--plot-data": Flag(None, False, "emit a two-column (Q, normalized count) series",
                             nargs=0)}
_QMAX = {"--qmax": Flag(int, REQUIRED)}

# Each leaf command, named by its words, and the only flags it accepts.
COMMANDS = {
    "census deg4": Command("all degree-4 Salem numbers <= Q", _plan_table,
                           {**_QMAX, **_TABLE, **_PLOT, **_EVERY}),
    "census sr": Command("square-rootable degree-4 Salem numbers <= Q", _plan_table,
                         {**_QMAX, **_TABLE, **_PLOT, **_EVERY}),
    "census deg2": Command("degree-2 Salem numbers <= Q", _plan_table,
                           {**_QMAX, **_PLOT, **_EVERY}),
    "bianchi": Command("Salem numbers generated by PSL(2, o_K), K = Q(sqrt(-D))", _plan_table,
                       {"--d": Flag(int, REQUIRED, "square-free D >= 1"), **_QMAX, **_TABLE,
                        **_PLOT, **_EVERY}),
    "cocompact": Command("system solutions over the real quadratic field Q(sqrt(d))",
                         _plan_table,
                         {"--field": Flag(int, REQUIRED, "square-free d >= 2"), **_QMAX,
                          "--verified": Flag(None, False, "verify the Salem-over-L property "
                                             "per solution", nargs=0),
                          **_TABLE, **_PLOT, **_EVERY}),
    "constants": Command("closed-form constants", _plan_constants,
                         {"--omega": Flag(int, metavar="M"),
                          "--marklof-c": Flag(int, metavar="D"),
                          "--c2-bound": Flag(int, metavar="D_FIELD"),
                          "--volume": Flag(str, metavar="H DELTA QMAX", nargs=3), **_EVERY}),
    "fit": Command("power-law fit of a count series", _plan_fit,
                   {"--series": Flag(tuple(SERIES), REQUIRED),
                    "--qgrid": Flag(str, REQUIRED, "comma-separated Q values"),
                    "--d": Flag(int), "--field": Flag(int), **_PLOT, **_EVERY}),
    "report multiplicity": Command("mean-multiplicity lower bounds", _plan_report,
                                   {"--n": Flag(int, REQUIRED, "even orbifold dimension >= 4"),
                                    "--ell-max": Flag(float, REQUIRED),
                                    "--step": Flag(float, REQUIRED), **_TABLE, **_EVERY}),
}


class UsageError(Exception):
    """An argv that names no command, or a flag or value its command does
    not take."""


def _takes_value(token: str) -> bool:
    """Whether token can be the value of a flag: it does not look like a
    flag, or it is "-", a number that float() parses (-1e5, -inf) or has a
    space."""
    with contextlib.suppress(ValueError):
        float(token)
        return True
    return not token.startswith("-") or token == "-" or " " in token


def _value(flag: str, spec: Flag, values: list[str]):
    """The value of flag given values, its nargs tokens."""
    if not spec.nargs:
        return True
    if isinstance(spec.convert, tuple):
        if values[0] not in spec.convert:
            raise UsageError(f"{flag} must be one of {'|'.join(spec.convert)}, got {values[0]!r}")
        return values[0]
    try:
        converted = [spec.convert(v) for v in values]
    except ValueError:
        raise UsageError(f"invalid {spec.convert.__name__} value for {flag}: "
                         f"{' '.join(values)!r}") from None
    return converted if spec.nargs > 1 else converted[0]


def _command_words(argv: list[str]) -> str:
    """The leaf command that the first one or two words of argv name, or ""."""
    for n in (1, 2):
        name = " ".join(argv[:n])
        if name in COMMANDS and name.split() == argv[:n]:
            return name
    return ""


def _parse(argv: list[str]) -> SimpleNamespace:
    """The namespace of argv: command (and which, the second word of
    census and report), plan and each flag's value (the last given of a
    repeated flag).  Raises UsageError."""
    name = _command_words(argv)
    if not name:
        raise UsageError(f"expected a command ({', '.join(COMMANDS)}), got {' '.join(argv[:2])!r}")
    command = COMMANDS[name]
    given = {}
    rest = argv[len(name.split()):]
    i = 0
    while i < len(rest):
        token = rest[i]
        flag, eq, value = token.partition("=")
        spec = command.flags.get(flag)
        if spec is None:
            raise UsageError(f"{name} does not take {token}")
        if eq:
            if spec.nargs != 1:
                raise UsageError(f"{flag} takes {spec.nargs or 'no'} values: {token}")
            values, i = [value], i + 1
        else:
            values, i = rest[i + 1:i + 1 + spec.nargs], i + 1 + spec.nargs
            if len(values) < spec.nargs or not all(map(_takes_value, values)):
                raise UsageError(f"{flag} needs {spec.nargs} value{'s' * (spec.nargs > 1)}")
        given[flag] = _value(flag, spec, values)
    missing = [flag for flag, spec in command.flags.items()
               if spec.default is REQUIRED and flag not in given]
    if missing:
        raise UsageError(f"{name} requires {' '.join(missing)}")
    return SimpleNamespace(**dict(zip(("command", "which"), name.split())), plan=command.plan,
                           **{flag[2:].replace("-", "_"): given.get(flag, spec.default)
                              for flag, spec in command.flags.items()})


def _synopsis(flag: str, spec: Flag) -> str:
    """flag and the names of its values, as its help shows them."""
    if not spec.nargs:
        return flag
    choices = isinstance(spec.convert, tuple)
    return f"{flag} {spec.metavar or ('|'.join(spec.convert) if choices else flag[2:].upper())}"


# The end of the help of salem, census and report.
_HELP_END = """
'salem <command> --help' lists the flags of a command.  Exit codes: 0 success,
2 usage error, 3 domain error, 4 capacity failure; an error is one line on
stderr, salem-error kind=usage|domain|capacity detail="...".
"""


def _help(argv: list[str]) -> str:
    """The flags of the leaf command that argv's first words name, else the
    commands under argv[0] (census, report) or every command."""
    name = _command_words(argv)
    if name:
        flags = [(_synopsis(flag, spec), spec) for flag, spec in COMMANDS[name].flags.items()]
        usage = [name, *(syn for syn, spec in flags if spec.default is REQUIRED)]
        lines = [COMMANDS[name].help, "", *(f"  {syn:<22} {spec.help}".rstrip()
                                            for syn, spec in flags),
                 "  -h, --help             print this help"]
        end = ""
    else:
        group = argv[0] if argv and any(n.startswith(argv[0] + " ") for n in COMMANDS) else ""
        usage = [group, "<command>"] if group else ["<command>"]
        lines = [f"  {n:<20} {c.help}" for n, c in COMMANDS.items() if n.startswith(group)]
        end = _HELP_END
    return "\n".join([f"usage: {PROG} {' '.join(usage)} [flags]", "", *lines, ""]) + end


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if "-h" in argv or "--help" in argv:
            _write(None, [_help(argv)])
            return 0
        args = _parse(argv)
        if args.workers < 1:
            raise DomainError("--workers must be >= 1")
        plan = args.plan(args)
        budget = MAX_ROWS if plan.unit == "rows" else MAX_STEPS
        if plan.work > budget:
            # str() may refuse 640 digits, so past 2000 bits the bound is a power of 2
            work = plan.work if plan.work.bit_length() <= 2000 else f"2^{plan.work.bit_length()}"
            raise CapacityError(f"{plan.what} needs up to {work} {plan.unit}, "
                                f"above the limit of {budget}")
        _write(args.out, [f"plan command={plan.what} rows={plan.rows()} work={plan.work}\n"]
               if args.dry_run else plan.run())
        return 0
    except (UsageError, DomainError, CapacityError, OverflowError) as exc:
        kind, code = (("usage", 2) if isinstance(exc, UsageError) else
                      ("domain", 3) if isinstance(exc, DomainError) else ("capacity", 4))
        detail = str(exc).replace("\\", "\\\\").replace('"', '\\"')
        # a closed stderr (None, or an fd that fails) drops the line, not the exit code
        if sys.stderr is not None:
            with contextlib.suppress(OSError):
                sys.stderr.write(f'{PROG}-error kind={kind} detail="{detail}"\n')
        return code


def entrypoint() -> None:
    if any(arg.partition("=")[0] == "--out" for arg in sys.argv[1:]):
        # SIGTERM unwinds like an exception, so _write removes its temporary
        # file; a run without --out makes none, and skips the 1 ms that
        # importing signal takes
        import signal

        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        code = main()
    except BrokenPipeError:
        code = 1  # downstream consumer (e.g. head) closed the pipe; exit quietly
    # Leave without the interpreter's teardown (its last GC passes and module
    # cleanup, about 5 ms): _write has closed and renamed --out, and nothing
    # registers an atexit handler, so only the standard streams hold bytes.
    # A flush that fails drops the bytes of a failed write, whose error is
    # reported, or of a closed pipe; a closed stream is None.  An exception
    # out of main, SIGTERM's SystemExit included, still exits the usual way.
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            with contextlib.suppress(OSError):
                stream.flush()
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
