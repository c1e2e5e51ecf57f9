"""Command-line surface: censuses, constants, fits, and reports with
reproducible file output.

Exit codes: 0 success, 2 usage error, 3 domain-validation error,
4 arithmetic capacity failure.  Errors are one machine-parsable line on
stderr.  Identical argv (and seed) produce byte-identical output no matter
how many workers run the enumeration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import asymptotics, bianchi, census, totally_real
from .algebra import is_square_free
from .errors import CapacityError, DomainError

PROG = "salem"

# Field parameters above this are refused before any arithmetic: validating
# one costs O(d^(1/3)) trial divisions, about 5e5 at the limit.
MAX_FIELD_PARAM = 10**18

# Trace budget of one bianchi census.  A trace costs about 5 us to scan and
# write, so the limit stands for several minutes of work.
MAX_BIANCHI_TRACES = 10**8


def _default_workers() -> int:
    env = os.environ.get("SALEM_WORKERS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


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


def _plot_grid(qmax: int, qmin: int) -> list[int]:
    grid = [qmax]
    while grid[-1] // 2 >= qmin:
        grid.append(grid[-1] // 2)
    return sorted(grid)


def _plot_series(qs, counts, exponent: float) -> str:
    lines = ["Q,normalized_count"]
    lines += [f"{q},{c / q**exponent:.12g}" for q, c in zip(qs, counts)]
    return "\n".join(lines)


# --- census ------------------------------------------------------------------


def _cmd_census(args) -> int:
    which = args.which
    qmin = 3 if which == "deg2" else 2
    Q = _require_qmax(args, qmin)
    if args.dry_run:
        est = {"deg4": 2 * Q * Q, "sr": int(4 / 3 * Q**1.5), "deg2": Q - 2}[which]
        _emit(
            f"plan command=census-{which} qmax={Q} a_scan=[-{Q + 2},-1] "
            f"est_items={est} workers={args.workers}",
            args.out,
        )
        return 0
    if which == "deg2":
        if args.plot_data:
            qs = _plot_grid(Q, 4)
            _emit(_plot_series(qs, [census.count_deg2(q) for q in qs], 1.0), args.out)
        else:
            _emit(str(census.count_deg2(Q)), args.out)
        return 0
    enum = census.enumerate_salem_deg4 if which == "deg4" else census.enumerate_sr
    count = census.count_salem_deg4 if which == "deg4" else census.count_sr
    expo = 2.0 if which == "deg4" else 1.5
    if args.plot_data:
        qs = _plot_grid(Q, 8)
        _emit(_plot_series(qs, [count(q) for q in qs], expo), args.out)
        return 0
    records = enum(Q, workers=args.workers)
    if args.format == "json":
        objs = [
            {
                "a": str(r.a),
                "b": str(r.b),
                "k": None if r.k is None else str(r.k),
                "lambda": r.lambda_approx,
                "source": r.source,
            }
            for r in records
        ]
        _emit(json.dumps(objs, indent=2), args.out)
    else:
        lines = [census.CENSUS_CSV_HEADER]
        lines += [census.census_csv_row(r) for r in records]
        _emit("\n".join(lines), args.out)
    return 0


# --- bianchi -----------------------------------------------------------------


def _require_trace_budget(D: int, Q: int) -> int:
    traces = bianchi.estimated_traces(D, Q)
    if traces > MAX_BIANCHI_TRACES:
        raise CapacityError(
            f"bianchi at d={D} qmax={Q} would scan about {traces} traces, "
            f"above the limit of {MAX_BIANCHI_TRACES}"
        )
    return traces


def _cmd_bianchi(args) -> int:
    D = _require_squarefree(args.d, "--d", 1)
    Q = _require_qmax(args)
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
    if args.plot_data:
        qs = _plot_grid(Q, 16)
        counts = [bianchi.bianchi_census(D, q, workers=args.workers).count for q in qs]
        _emit(_plot_series(qs, counts, 0.5), args.out)
        return 0
    result = bianchi.bianchi_census(D, Q, workers=args.workers)
    if args.format == "json":
        _emit(json.dumps([bianchi.bianchi_json_obj(m) for m in result.members], indent=2),
              args.out)
    else:
        lines = [bianchi.BIANCHI_CSV_HEADER]
        lines += [bianchi.bianchi_csv_row(m) for m in result.members]
        _emit("\n".join(lines), args.out)
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
        qs = _plot_grid(Q, 16)
        counts = [totally_real.count_system(d, q, workers=args.workers) for q in qs]
        _emit(_plot_series(qs, counts, 1.5), args.out)
        return 0
    rows = []
    objs = []
    for sol in totally_real.enumerate_system(d, Q, workers=args.workers):
        ver = totally_real.verify_salem_over_L(d, sol) if args.verified else None
        if args.format == "json":
            objs.append(
                {
                    "a_u": str(sol.a.u), "a_v": str(sol.a.v),
                    "k_u": str(sol.k.u), "k_v": str(sol.k.v),
                    "b_u": str(sol.b.u), "b_v": str(sol.b.v),
                    "branch": sol.branch, "verified": ver,
                }
            )
        else:
            rows.append(totally_real.system_csv_row(sol, ver))
    if args.format == "json":
        _emit(json.dumps(objs, indent=2), args.out)
    else:
        header = f"# field={d} qmax={Q}\n{totally_real.SYSTEM_CSV_HEADER}"
        _emit("\n".join([header] + rows), args.out)
    return 0


# --- constants ---------------------------------------------------------------


def _cmd_constants(args) -> int:
    chosen = [x is not None for x in (args.omega, args.marklof_c, args.c2_bound, args.volume)]
    if sum(chosen) != 1:
        raise DomainError("pick exactly one of --omega/--marklof-c/--c2-bound/--volume")
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


def _series_counts(args, qs: list[int]) -> list[int]:
    series = args.series
    if series == "deg4":
        return [census.count_salem_deg4(q) for q in qs]
    if series == "sr":
        return [census.count_sr(q) for q in qs]
    if series == "deg2":
        return [census.count_deg2(q) for q in qs]
    if series == "bianchi":
        if args.d is None:
            raise DomainError("--series bianchi requires --d")
        D = _require_squarefree(args.d, "--d", 1)
        _require_trace_budget(D, qs[-1])
        return [bianchi.bianchi_census(D, q, workers=args.workers).count for q in qs]
    if args.field is None:
        raise DomainError("--series system requires --field")
    d = _require_squarefree(args.field, "--field", 2)
    return [totally_real.count_system(d, q, workers=args.workers) for q in qs]


def _cmd_fit(args) -> int:
    try:
        qs = sorted(int(tok) for tok in args.qgrid.split(","))
    except ValueError as exc:
        raise DomainError(f"--qgrid expects comma-separated integers, got {args.qgrid!r}") from exc
    qmin = 3 if args.series == "deg2" else 2
    if len(qs) < 3 or qs[0] < qmin:
        raise DomainError(f"--qgrid needs >= 3 values, all >= {qmin}")
    if args.dry_run:
        _emit(f"plan command=fit series={args.series} qgrid={','.join(map(str, qs))} "
              f"workers={args.workers}", args.out)
        return 0
    counts = _series_counts(args, qs)
    fit = asymptotics.power_fit(list(zip(qs, counts)))
    lines = [
        f"constant={fit.constant:.12g} exponent={fit.exponent:.12g} "
        f"residual={fit.residual:.12g} points_used={fit.points_used}"
    ]
    if args.plot_data:
        lines.append(_plot_series(qs, counts, fit.exponent))
    _emit("\n".join(lines), args.out)
    return 0


# --- report ------------------------------------------------------------------


def _cmd_report(args) -> int:
    if args.which != "multiplicity":
        raise DomainError(f"unknown report {args.which!r}")
    if args.dry_run:
        n_rows = int(args.ell_max / args.step)
        _emit(f"plan command=report-multiplicity n={args.n} rows={n_rows}", args.out)
        return 0
    rows = asymptotics.multiplicity_report(args.n, args.ell_max, args.step)
    if args.format == "json":
        objs = [
            {
                "ell": r.ell,
                "geodesic_count": r.geodesic_count,
                "salem_bound": r.salem_bound,
                "mean_mult_lower": r.mean_mult_lower,
            }
            for r in rows
        ]
        _emit(json.dumps(objs, indent=2), args.out)
    else:
        lines = [asymptotics.MULTIPLICITY_CSV_HEADER]
        lines += [asymptotics.multiplicity_csv_row(r) for r in rows]
        _emit("\n".join(lines), args.out)
    return 0


# --- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write output to this path instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--workers", type=int, default=_default_workers(),
                        help="parallel workers for enumeration, bianchi and cocompact "
                             "(default: SALEM_WORKERS or 1)")
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
        sp.set_defaults(func=_cmd_census)

    p_b = sub.add_parser("bianchi", parents=[common],
                         help="Salem numbers generated by PSL(2, o_K), K = Q(sqrt(-D))")
    p_b.add_argument("--d", type=int, required=True, help="square-free D >= 1")
    p_b.add_argument("--qmax", type=int, required=True)
    p_b.set_defaults(func=_cmd_bianchi)

    p_c = sub.add_parser("cocompact", parents=[common],
                         help="system solutions over the real quadratic field Q(sqrt(d))")
    p_c.add_argument("--field", type=int, required=True, help="square-free d >= 2")
    p_c.add_argument("--qmax", type=int, required=True)
    p_c.add_argument("--verified", action="store_true",
                     help="verify the Salem-over-L property per solution")
    p_c.set_defaults(func=_cmd_cocompact)

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
