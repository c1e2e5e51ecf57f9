"""Closed-form counting constants, power-law fits of census series, and
the mean-multiplicity lower-bound report for even-dimensional orbifolds.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import chain
from typing import NamedTuple

from .errors import CapacityError, DomainError

__all__ = [
    "FitResult",
    "MultiplicityRow",
    "omega_series",
    "power_fit",
    "multiplicity_report",
    "MULTIPLICITY_CSV_HEADER",
    "multiplicity_table",
]

MULTIPLICITY_CSV_HEADER = "ell,geodesic_count,salem_bound,mean_mult_lower"

# A MultiplicityRow's CSV line, and its JSON object as json.dumps(indent=2)
# writes its _asdict() in a list
_CSV_ROW = "%.5e,%.5e,%.5e,%.5e\n"
_JSON_OBJECT = ('  {\n    "ell": %r,\n    "geodesic_count": %r,\n    "salem_bound": %r,\n'
                '    "mean_mult_lower": %r\n  }')

# power_fit drops small-Q points while the RMS log residual is above this.
RESIDUAL_THRESHOLD = 0.05


class FitResult(NamedTuple):
    """Fitted count ~ constant * Q^exponent; residual is the RMS of the
    log-space residuals over the points actually used."""

    constant: float
    exponent: float
    residual: float
    points_used: int


class MultiplicityRow(NamedTuple):
    ell: float
    geodesic_count: float
    salem_bound: float
    mean_mult_lower: float


def omega_series(M: int) -> list[tuple[int, int]]:
    """[omega(1), ..., omega(M)] as (numerator, denominator) pairs in
    lowest terms, where omega(m) = 2^(m(m+1))/(m+1) *
    prod_{k=0}^{m-1} k!^2 / (2k+1)! is the leading constant of the
    degree-2(m+1) Salem count, by one running product of O(M) integer steps:
    omega(m + 1) / omega(m) = 4^(m+1) (m+1) m!^2 / ((m+2) (2m+1)!) and
    m!^2 / (2m+1)! = 1 / ((2m+1) C(2m, m))."""
    if not isinstance(M, int) or M < 1:
        raise DomainError(f"m must be a positive integer, got {M}")
    out = []
    num, den = 2, 1
    for m in range(1, M + 1):
        out.append((num, den))
        num *= 4 ** (m + 1) * (m + 1)
        den *= (m + 2) * (2 * m + 1) * math.comb(2 * m, m)
        g = math.gcd(num, den)
        num, den = num // g, den // g
    return out


def _ols_loglog(points: list[tuple[float, float]]) -> tuple[float, float, float]:
    xs = [math.log(q) for q, _ in points]
    ys = [math.log(c) for _, c in points]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    rms = math.sqrt(sum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys)) / n)
    return math.exp(intercept), slope, rms


def power_fit(points) -> FitResult:
    """Least squares of log(count) against log(Q).

    While the RMS residual exceeds RESIDUAL_THRESHOLD and more than three
    distinct Q remain, the smallest-Q point is dropped (lower-order terms
    contaminate the small side); points_used tells how many are left.
    Deterministic.
    """
    pts = sorted((float(q), float(c)) for q, c in points)
    if len({q for q, _ in pts}) < 3:
        raise DomainError(f"need at least 3 distinct Q, got {len({q for q, _ in pts})}")
    if any(q <= 0 or c <= 0 for q, c in pts):
        raise DomainError("all points must be positive")
    while True:
        constant, exponent, rms = _ols_loglog(pts)
        if rms <= RESIDUAL_THRESHOLD or len({q for q, _ in pts}) <= 3:
            return FitResult(constant, exponent, rms, len(pts))
        pts.pop(0)


def _check_multiplicity_args(n: int, ell_max: float, step: float) -> None:
    """Raise DomainError unless multiplicity_report accepts these arguments."""
    if not isinstance(n, int) or n < 4 or n % 2:
        raise DomainError(f"n must be an even integer >= 4, got {n}")
    if not (1.0 <= step <= ell_max) or ell_max == math.inf:
        raise DomainError(f"need 1 <= step <= ell_max, both finite, "
                          f"got step={step}, ell_max={ell_max}")


def _geodesic_terms(n: int, ell_max: float, step: float) -> list[tuple[float, float]]:
    """(ell, e^((n-1) ell) / ((n-1) ell)) for ell = step, 2 step, ... <= ell_max,
    the rows of multiplicity_report; CapacityError where the term overflows.

    The geodesic term is the largest exponential of a row, since
    m + 2 <= n/2 < n - 1, so it overflows first: rows end there (for every
    ell when n >= 712, as ell >= 1), before any omega is computed.
    """
    out = []
    ell = step
    try:
        while ell <= ell_max * (1 + 1e-12):
            out.append((ell, math.exp((n - 1) * ell) / ((n - 1) * ell)))
            ell += step
    except OverflowError as exc:
        raise CapacityError(f"exp overflow at ell={ell:g} (n={n})") from exc
    return out


def multiplicity_report(n: int, ell_max: float, step: float) -> list[MultiplicityRow]:
    """Mean-multiplicity lower bounds in the length spectrum of a
    non-compact arithmetic orbifold of even dimension n >= 4.

    Closed geodesics of length <= ell number ~ e^((n-1) ell) / ((n-1) ell),
    while each corresponds to a Salem number e^ell of even degree <= n;
    those are bounded by sum_{m=1}^{n/2-1} omega(m) e^((m+1) ell) plus the
    degree-2 count e^ell - 2.  The ratio is the reported lower bound (the
    bound's constant instantiates the leading count constants; it is one
    admissible choice, not canonical).
    """
    _check_multiplicity_args(n, ell_max, step)
    terms = _geodesic_terms(n, ell_max, step)
    consts = [num / den for num, den in omega_series(n // 2 - 1)]
    rows = []
    for ell, geod in terms:
        bound = sum(c * math.exp((m + 2) * ell) for m, c in enumerate(consts))
        bound += math.exp(ell) - 2.0
        rows.append(MultiplicityRow(ell, geod, bound, geod / bound))
    return rows


def multiplicity_table(n: int, ell_max: float, step: float, json_out: bool,
                       block_rows: int) -> tuple[str, Iterator[str]]:
    """(header, chunks) of multiplicity_report(n, ell_max, step): the CSV
    header, and the rows, at most block_rows to a chunk, as CSV lines or
    (json_out) JSON objects.  A chunk is one % on the row template repeated
    once a row.  %.5e and %r of a float run the float formatter of
    format(x, ".5e") and repr(x), which an f-string's :.5e and json.dumps
    call, and every value is finite: the geodesic term, the largest, raises
    CapacityError before it overflows."""
    rows = multiplicity_report(n, ell_max, step)
    row, sep = (_JSON_OBJECT, ",\n") if json_out else (_CSV_ROW, "")
    return MULTIPLICITY_CSV_HEADER, (
        sep.join([row] * len(block)) % tuple(chain.from_iterable(block))
        for block in (rows[i:i + block_rows] for i in range(0, len(rows), block_rows)))
