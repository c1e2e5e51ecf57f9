"""Censuses over Z: degree-4 Salem numbers up to a bound, the
square-rootable subclass, the degree-2 census, and box-sum upper bounds.

The scan region comes from the inequalities forced on Salem coefficients:
0 < -a < Q+3 and 2a < 2+b < -2a, with the exact cut lambda <= Q applied as
p(Q) >= 0.  For fixed a both the lambda cut and the b-inequalities are
interval bounds on b, and (a, b) is reducible exactly when
a^2 - 4b + 8 is a perfect square.  The square-rootable census is
parametrized by (a, k) with b = k^2 + 2a - 2 and 0 < k^2 < -4a, where the
same reshuffle turns the lambda cut into a lower bound on k.

The enumerators walk this region row by row.  The counts do not: the
lambda cut binds only in the top four rows, the reducible points form a
few explicit families, and what remains are closed forms, so every count
is a handful of integer operations in exact arithmetic.  The proofs are in
the docstrings of the count functions.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import NamedTuple

from .algebra import _check_q, is_perfect_square
from .errors import DomainError

__all__ = [
    "CensusRecord",
    "enumerate_salem_deg4",
    "count_salem_deg4",
    "enumerate_sr",
    "count_sr",
    "box_sums",
    "count_deg2",
    "CENSUS_CSV_HEADER",
    "census_csv_row",
    "census_table",
]

CENSUS_CSV_HEADER = "a,b,k,lambda,source"


class CensusRecord(NamedTuple):
    """One enumerated Salem number with provenance."""

    a: int
    b: int
    k: int | None
    lambda_approx: float
    source: str = "direct"


def census_csv_row(rec: CensusRecord) -> str:
    k = "" if rec.k is None else str(rec.k)
    return f"{rec.a},{rec.b},{k},{rec.lambda_approx:.12g},{rec.source}"


def _isqrt_sum(N: int) -> int:
    """sum_{n=1}^{N} isqrt(4n - 1), in O(1).

    isqrt(4n - 1) counts the j >= 1 with floor(j^2/4) < n, so swapping the
    sums gives r N - S(r) with r = isqrt(4N - 1) and
    S(r) = sum_{j=1}^{r} floor(j^2/4) = floor(r (r+2) (2r-1) / 24): the
    product is exactly 24 S(r) for even r and 24 S(r) + 3 for odd r.
    """
    if N <= 0:
        return 0
    r = math.isqrt(4 * N - 1)
    return r * N - r * (r + 2) * (2 * r - 1) // 24


# --- degree-4 census --------------------------------------------------------


def _deg4_lambda_floor(Q: int, na: int) -> int:
    """Smallest b passing lambda <= Q at a = -na, i.e. p(Q) >= 0."""
    return -((Q**4 - na * Q**3 - na * Q + 1) // (Q * Q))


def count_salem_deg4(Q: int) -> int:
    """Number of degree-4 Salem numbers <= Q, which is exactly 2 (Q-1)^2.

    Row n = -a (1 <= n <= Q+2) scans b in [-2n-1, 2n-3], 4n-1 values,
    raised to the lambda floor.  Over that window the discriminant
    n^2 - 4b + 8 runs from (n-4)^2 + 4 up to (n+4)^2 - 4 and keeps the
    parity of n, so the reducible b are the squares s^2 with
    s in {n-2, n, n+2}: three of them for n >= 4, but only {n, n+2} at
    n = 3, {n+2} at n = 2 and none at n = 1.  An uncut row thus keeps
    4(n-1), or 3, 6, 9 for n = 1, 2, 3.

    With n = Q + t the lambda floor is tQ + 1 + ceil((tQ - 1)/Q^2).  For
    t <= -2 it lies below -2n-1 (by (t+2)(Q+2) - 2 < 0 or more), so rows
    n <= Q-2 are uncut and keep 2(Q-2)(Q-3) + 6 in total when Q >= 5.  For
    t = -1, 0, 1, 2 the floor is 1-Q, 1, Q+2, 2Q+2, leaving 3Q-5, 2Q-3,
    Q-2 and 0 values of b; the discriminant then tops out at (n+2)^2 + 4,
    n^2 + 4 and (n-2)^2, dropping 3, 2 and 1 reducible b when Q >= 5.
    The top rows keep 6Q - 16 and the total is
    2(Q-2)(Q-3) + 6 + 6Q - 16 = 2(Q-1)^2.  Q = 2, 3, 4 give 2, 8, 18 by
    direct count, which fit the same formula.
    """
    _check_q(Q)
    return 2 * (Q - 1) ** 2


def _deg4_rows(Q: int) -> Iterator[tuple[int, int, int, tuple[int, int, int]]]:
    """(n, lo, hi, skip) for each row a = -n, n = 1..Q+2: the row's members
    are the b in range(lo, hi), lo raised to the lambda floor, that are not
    in skip, the reducible b = a + 1, 2, 1 - a of the window (the families
    of _SR_REDUCIBLE; see count_salem_deg4)."""
    for n in range(1, Q + 3):
        yield n, max(-2 * n - 1, _deg4_lambda_floor(Q, n)), 2 * n - 2, (1 - n, 2, 1 + n)


def enumerate_salem_deg4(Q: int) -> Iterator[CensusRecord]:
    """All degree-4 Salem records with lambda <= Q, ordered by descending a
    then ascending b.  Streams with O(1) memory."""
    from .quartics import salem_value  # here, so that no census command loads quartics

    _check_q(Q)
    for n, lo, hi, skip in _deg4_rows(Q):
        a = -n
        for b in range(lo, hi):
            if b not in skip:
                k = is_perfect_square(2 + b + 2 * n)
                yield CensusRecord(a, b, k, salem_value((a, b)), "direct")


# --- square-rootable census -------------------------------------------------


def _sr_k_floor(Q: int, na: int) -> int:
    """Smallest k >= 1 passing lambda <= Q at a = -na, b = k^2 + 2a - 2.

    p(Q) >= 0 is k^2 >= m with m = ceil(N / Q^2) for
    N = -Q^4 + na Q^3 + (2na + 2) Q^2 + na Q - 1.
    """
    Q2 = Q * Q
    m = (-Q2 + na * Q + 2 * na + 2) + (na * Q - 1 + Q2 - 1) // Q2
    if m <= 1:
        return 1
    return math.isqrt(m - 1) + 1


def _sr_row(Q: int, n: int) -> tuple[int, int, set[int]]:
    """(lo, hi, skip) of row a = -n: its members are the k in range(lo, hi),
    lo = _sr_k_floor and hi = isqrt(4n - 1) + 1, with b = k^2 - 2n - 2, that
    are not in skip, the integer k with k^2 = i (n + 4 - i), i = 1, 2, 3:
    the row's reducible points where they fall in the range (see count_sr)."""
    skip = {is_perfect_square(i * (n + 4 - i)) for i, _ in _SR_REDUCIBLE} - {None}
    return _sr_k_floor(Q, n), math.isqrt(4 * n - 1) + 1, skip


def _sr_rows(Q: int) -> Iterator[tuple[int, int, int, set[int]]]:
    """(n, lo, hi, skip) for each row a = -n, n = 1..Q+2 (see _sr_row)."""
    for n in range(1, Q + 3):
        yield n, *_sr_row(Q, n)


# The reducible square-rootable points, one family per (i, m0):
# k = i m and -a = i m^2 - (4 - i) for m >= m0, i.e. k^2 = i (-a + 4 - i).
# They are b = a + 1, b = 2 and a + b = 1 (see count_sr).
_SR_REDUCIBLE = ((1, 3), (2, 2), (3, 2))


def count_sr(Q: int) -> int:
    """Number of degree-4 Salem numbers <= Q square-rootable over Q.

    Row n = -a (1 <= n <= Q+2) holds the k in [klo(n), isqrt(4n - 1)],
    klo = _sr_k_floor, less the reducible ones (_sr_row).

    Lambda cut: for n <= Q-2 the bound m in _sr_k_floor is at most
    -Q^2 + (Q-2)(Q+2) + 2 + 1 = -1, so klo = 1 and those rows hold
    _isqrt_sum(Q-2) points.  The top rows n = Q-1, ..., Q+2 are summed one
    by one.

    Reducible points: the discriminant is (n+4)^2 - 4k^2 = s^2, s >= 0.
    Put c = n + 4.  Then (c - s)(c + s) = 4k^2 makes j = c - s even,
    j = 2i, and j <= 4k^2/c < 16 because k^2 < 4n < 4c, so i <= 7.  It
    follows that k^2 = i (c - i).  With s = c - 2i >= 0, the bound
    k^2 < 4n = 4c - 16 reads (i - 4)(c - i - 4) < 0, which fails for
    i >= 4 and leaves i in {1, 2, 3} with c > i + 4.  Then
    k = i m and n = i m^2 - (4 - i), and k^2 < 4n holds exactly for
    m >= 3, 2, 2.  Each (n, k) has one s and hence one i, so the three
    families are disjoint.  In the uncut rows a family has
    isqrt((Q + 2 - i) // i) - m0 + 1 members (or none).

    Second-order term: count_sr(Q) = (4/3) Q^(3/2) - Q/2 + O(Q^(1/2)).  The
    three families and the four top rows (k < 2 (Q + 3)^(1/2)) hold
    O(Q^(1/2)) points, so the count is _isqrt_sum(N) + O(Q^(1/2)), N = Q - 2.
    There r = isqrt(4N - 1) = 2 N^(1/2) - delta with
    0 < delta < 1 + N^(-1/2)/2, and _isqrt_sum(N) = g(r) + O(r) with
    g(r) = r N - r^3/12 - r^2/8.  At r0 = 2 N^(1/2), g(r0) =
    (4/3) N^(3/2) - N/2 and g'(r0) = N - r0^2/4 - r0/4 = -N^(1/2)/2, and
    |g''| = r/2 + 1/4 <= r0, so g(r) = g(r0) + delta N^(1/2)/2 + O(N^(1/2))
    = (4/3) N^(3/2) - N/2 + O(N^(1/2)).  Last, (4/3) (Q - 2)^(3/2) =
    (4/3) Q^(3/2) - 4 Q^(1/2) + O(Q^(-1/2)) and N/2 = Q/2 - 1.
    """
    _check_q(Q)
    N = Q - 2
    total = _isqrt_sum(N)
    for i, m0 in _SR_REDUCIBLE:
        total -= max(0, math.isqrt((N + 4 - i) // i) - m0 + 1)
    for n in range(Q - 1, Q + 3):
        lo, hi, skip = _sr_row(Q, n)
        total += max(0, hi - lo) - sum(lo <= k < hi for k in skip)
    return total


def enumerate_sr(Q: int) -> Iterator[CensusRecord]:
    """Square-rootable census records with lambda <= Q, same order as
    enumerate_salem_deg4."""
    from .quartics import salem_value  # here, so that no census command loads quartics

    _check_q(Q)
    for n, lo, hi, skip in _sr_rows(Q):
        for k in range(lo, hi):
            if k not in skip:
                a, b = -n, k * k - 2 * n - 2
                yield CensusRecord(a, b, k, salem_value((a, b)), "direct")


# --- closed box sums and the degree-2 census --------------------------------


def box_sums(Q: int) -> tuple[int, int]:
    """(S_sr, S_deg4): sizes of the two scan boxes before the exact lambda
    cut and the reducibility filter.

    S_sr = sum_{j=1}^{Q+2} (ceil(sqrt(4j)) - 1) counts the (a, k) box and
    S_deg4 = sum_{j=1}^{Q+2} (4j - 1) = (Q+2)(2Q+5) counts the (a, b) box.
    Both over-count the censuses; useful as estimates and sanity bounds.
    As ceil(sqrt(4j)) - 1 = isqrt(4j - 1) for j >= 1, S_sr is
    _isqrt_sum(Q + 2).
    """
    if Q < 0:
        raise DomainError(f"Q must be >= 0, got {Q}")
    return _isqrt_sum(Q + 2), (Q + 2) * (2 * Q + 5)


def count_deg2(Q: int) -> int:
    """Number of degree-2 Salem numbers <= Q, which is exactly Q - 2.

    The candidates are x^2 + ax + 1 with n = -a.  n = 1 has no real roots
    and n = 2 gives the root 1 exactly.  For n >= 3 the discriminant
    n^2 - 4 sits strictly between (n - 1)^2 and n^2, so the quadratic is
    irreducible with largest root lambda > 1.  The cut lambda <= Q is
    Q^2 - nQ + 1 >= 0, i.e. n <= Q + 1/Q, i.e. n <= Q.  That leaves
    n = 3, ..., Q.
    """
    if not isinstance(Q, int) or Q < 3:
        raise DomainError(f"Q must be an integer >= 3, got {Q}")
    return Q - 2


# --- the census table -------------------------------------------------------


def census_table(which: str, Q: int, json_out: bool, block_rows: int) -> tuple[str, Iterator[str]]:
    """(header, chunks) of the census deg4|sr table (see _census_chunks):
    the CSV header, and the table's CSV lines or (json_out) the objects of
    its JSON list."""
    return CENSUS_CSV_HEADER, _census_chunks(which, Q, json_out, block_rows)


def _census_chunks(which: str, Q: int, json_out: bool, block_rows: int) -> Iterator[str]:
    """census deg4|sr formatted straight from the row intervals of
    _deg4_rows / _sr_rows, at most block_rows members to a chunk, with the
    bytes of census_csv_row or json.dumps(indent=2) on their records.
    lambda repeats quartics.salem_value's float steps on the same
    integer a^2 - 4b + 8 = n^2 + 8 - 4b, without its exact tests, which the
    row intervals already pass; k is the root of a square p(-1) = b + 2n + 2.

    A chunk is one % on the row template repeated once a member, over the
    flat (b, k, lambda) values of the chunk.  %d of an int is str(int), and
    %.12g and %r of a float run the float formatter of format(x, ".12g")
    and repr(x), which the f-string's :.12g and json.dumps call, so the
    bytes are those of the per-member f-strings."""
    sqrt, isqrt = math.sqrt, math.isqrt
    none = "null" if json_out else ""
    for n, lo, hi, skip in (_sr_rows if which == "sr" else _deg4_rows)(Q):
        c, b0 = n * n + 8, -2 * n - 2
        if json_out:
            row, sep = (f'  {{\n    "a": "-{n}",\n    "b": "%d",\n    "k": %s,\n    '
                        f'"lambda": %r,\n    "source": "direct"\n  }}', ",\n")
        else:
            row, sep = f"-{n},%d,%s,%.12g,direct\n", ""
        for start in range(lo, hi, block_rows):
            stop = min(start + block_rows, hi)
            if which == "sr":  # the range is over k
                ks = [k for k in range(start, stop) if k not in skip]
                bs = [k * k + b0 for k in ks]
                if json_out:
                    ks = [f'"{k}"' for k in ks]
            else:  # over b, where p(-1) = b - b0 >= 1
                squares = {k * k + b0: f'"{k}"' if json_out else k
                           for k in range(isqrt(start - b0 - 1) + 1, isqrt(stop - 1 - b0) + 1)}
                bs = [b for b in range(start, stop) if b not in skip]
                ks = [squares.get(b, none) for b in bs]
            m = len(bs)
            if not m:
                continue
            values = [0] * (3 * m)
            values[0::3], values[1::3] = bs, ks
            values[2::3] = [(y + sqrt(y * y - 4.0)) / 2.0
                            for b in bs for y in [(n + sqrt(c - 4 * b)) / 2.0]]
            yield sep.join([row] * m) % tuple(values)
