"""Censuses over Z: degree-4 Salem numbers up to a bound, the
square-rootable subclass and the degree-2 census.

The scan region comes from the inequalities forced on Salem coefficients:
0 < -a < Q+3 and 2a < 2+b < -2a, with the exact cut lambda <= Q applied as
p(Q) >= 0.  For fixed a both the lambda cut and the b-inequalities are
interval bounds on b, and (a, b) is reducible exactly when
a^2 - 4b + 8 is a perfect square.  The square-rootable census is
parametrized by (a, k) with b = k^2 + 2a - 2 and 0 < k^2 < -4a, where the
same reshuffle turns the lambda cut into a lower bound on k.

One kernel walks this region: _census_rows gives each row as an integer
interval less its reducible points, and _census_blocks cuts the rows into
blocks of members with their b, k column and lambda, each block computed
over its whole interval before its reducible points are deleted.  It has
two readers, which pass it the k column to use: the census table
(census_table) passes each member's line tail, k's text and the rest of
its line, and the records (enumerate_salem_deg4, enumerate_sr) pass k
itself.  The counts do not walk it: the lambda cut binds only in
the top four rows, the reducible points form a few explicit families, and
what remains are closed forms, so every count is a handful of integer
operations in exact arithmetic.  The proofs are in the docstrings of the
count functions.
"""

import math
from collections.abc import Callable, Collection, Iterator
from typing import NamedTuple

from .errors import _check_q

__all__ = [
    "CensusRecord",
    "enumerate_salem_deg4",
    "count_salem_deg4",
    "enumerate_sr",
    "count_sr",
    "count_deg2",
    "CENSUS_CSV_HEADER",
    "census_csv_row",
    "census_table",
]

CENSUS_CSV_HEADER = "a,b,k,lambda,source"

# A census row's CSV line and its JSON object as json.dumps(indent=2) writes
# its record in a list, split at the k field: the head, whose first % fills
# in a = -n a row at a time and leaves b's %d; the format of k's text; the
# text where k is None; and the rest of the line, which leaves lambda's
# format.  A JSON head starts with the ",\n" that joins the list's objects.
_CSV_ROW = ("-%d,%%d,", "%d", "", ",%.12g,direct\n")
_JSON_OBJECT = (',\n  {\n    "a": "-%d",\n    "b": "%%d",\n    "k": ', '"%d"', "null",
                ',\n    "lambda": %r,\n    "source": "direct"\n  }')


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
    return 2 * (_check_q(Q) - 1) ** 2


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
    skip = {k for k2 in (i * (n + 4 - i) for i, _ in _SR_REDUCIBLE)
            for k in [math.isqrt(k2)] if k * k == k2}
    return _sr_k_floor(Q, n), math.isqrt(4 * n - 1) + 1, skip


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
    N = _check_q(Q) - 2
    total = _isqrt_sum(N)
    for i, m0 in _SR_REDUCIBLE:
        total -= max(0, math.isqrt((N + 4 - i) // i) - m0 + 1)
    for n in range(Q - 1, Q + 3):
        lo, hi, skip = _sr_row(Q, n)
        total += max(0, hi - lo) - sum(lo <= k < hi for k in skip)
    return total


# --- the degree-2 census -----------------------------------------------------


def count_deg2(Q: int) -> int:
    """Number of degree-2 Salem numbers <= Q, which is exactly Q - 2.

    The candidates are x^2 + ax + 1 with n = -a.  n = 1 has no real roots
    and n = 2 gives the root 1 exactly.  For n >= 3 the discriminant
    n^2 - 4 sits strictly between (n - 1)^2 and n^2, so the quadratic is
    irreducible with largest root lambda > 1.  The cut lambda <= Q is
    Q^2 - nQ + 1 >= 0, i.e. n <= Q + 1/Q, i.e. n <= Q.  That leaves
    n = 3, ..., Q.
    """
    return _check_q(Q, 3) - 2


# --- the census kernel and its two readers ---------------------------------


def _census_rows(which: str, Q: int) -> Iterator[tuple[int, int, int, Collection[int]]]:
    """(n, lo, hi, skip) for each row a = -n, n = 1..Q+2, of census deg4|sr:
    the row's members are the values in range(lo, hi) that are not in skip.
    For deg4 they are the b of the window [-2n-1, 2n-3], lo raised to the
    lambda floor, less the reducible b = a + 1, 2, 1 - a (the families of
    _SR_REDUCIBLE; see count_salem_deg4); for sr they are the k of
    _sr_row."""
    _check_q(Q)
    for n in range(1, Q + 3):
        yield ((n, *_sr_row(Q, n)) if which == "sr" else
               (n, max(-2 * n - 1, _deg4_lambda_floor(Q, n)), 2 * n - 2, (1 - n, 2, 1 + n)))


def _census_blocks(which: str, Q: int, block_rows: int, k_column: Callable[[int], object],
                   no_k: object) -> Iterator[tuple[int, list, list, list]]:
    """(n, bs, ks, lambdas) for each block of at most block_rows members of a
    row a = -n of _census_rows, in row order, never empty: the members' b,
    their k column, which is k_column(k) for the root k of p(-1) = b + 2n + 2
    where it is a square and no_k elsewhere, and their lambda.

    A block is computed over the whole interval range(start, stop) of its
    row, and then the row's skipped points that fall in it, at most three,
    are deleted.  Two tables indexed by k, of k^2 and of k_column(k), give
    the values: an sr block slices both, as b = k^2 - 2n - 2, and a deg4
    block writes k_column(k) at its O(sqrt Q) squares b = k^2 - 2n - 2.
    The tables grow with the rows up to k = isqrt(4n - 1), the largest k of
    row n, so they hold O(sqrt Q) entries and are first built after the
    first row's Q check.  lambda repeats quartics.salem_value's float steps
    on the same integer a^2 - 4b + 8 = n^2 + 8 - 4b, without its exact
    tests, which the row intervals already pass."""
    sqrt, isqrt = math.sqrt, math.isqrt
    squares, column = [], []
    for n, lo, hi, skip in _census_rows(which, Q):
        for k in range(len(column), isqrt(4 * n - 1) + 1):
            squares.append(k * k)
            column.append(k_column(k))
        c, b0 = n * n + 8, -2 * n - 2
        for start in range(lo, hi, block_rows):
            stop = min(start + block_rows, hi)
            if which == "sr":  # the range is over k; b = k^2 + b0, c - 4b = c - 4 b0 - 4 k^2
                xs, d0, ks = squares[start:stop], c - 4 * b0, column[start:stop]
                bs = [x + b0 for x in xs]
            else:  # over b, where p(-1) = b - b0 >= 1
                xs, d0, ks = range(start, stop), c, [no_k] * (stop - start)
                bs = list(xs)
                for k in range(isqrt(start - b0 - 1) + 1, isqrt(stop - 1 - b0) + 1):
                    ks[squares[k] + b0 - start] = column[k]
            lambdas = [(y + sqrt(y * y - 4.0)) / 2.0
                       for x in xs for y in [(n + sqrt(d0 - 4 * x)) / 2.0]]
            for i in sorted({s - start for s in skip if start <= s < stop}, reverse=True):
                del bs[i], ks[i], lambdas[i]
            if bs:
                yield n, bs, ks, lambdas


def _records(which: str, Q: int) -> Iterator[CensusRecord]:
    """The CensusRecord of each member of _census_blocks, 1024 at a time,
    whose k column is k itself (int(k)) or None."""
    for n, bs, ks, lambdas in _census_blocks(which, Q, 1024, int, None):
        yield from (CensusRecord(-n, *member) for member in zip(bs, ks, lambdas))


def enumerate_salem_deg4(Q: int) -> Iterator[CensusRecord]:
    """All degree-4 Salem records with lambda <= Q, ordered by descending a
    then ascending b.  Streams with O(1) memory."""
    return _records("deg4", Q)


def enumerate_sr(Q: int) -> Iterator[CensusRecord]:
    """Square-rootable census records with lambda <= Q, same order as
    enumerate_salem_deg4."""
    return _records("sr", Q)


def census_table(which: str, Q: int, json_out: bool, block_rows: int) -> tuple[str, Iterator[str]]:
    """(header, chunks) of the census deg4|sr table (see _census_chunks):
    the CSV header, and the table's CSV lines or (json_out) the objects of
    its JSON list."""
    return CENSUS_CSV_HEADER, _census_chunks(which, Q, json_out, block_rows)


def _census_chunks(which: str, Q: int, json_out: bool, block_rows: int) -> Iterator[str]:
    """census deg4|sr formatted from the blocks of _census_blocks, with the
    bytes of census_csv_row or json.dumps(indent=2) on their records.

    The k column of the blocks is each member's line tail: k's text and the
    rest of its CSV line or JSON object, with lambda's format.  A chunk is
    the row's head h, formatted once a block, joined with the tails, and one
    % over the flat (b, lambda) values of the block.  %d of an int is
    str(int), and %.12g and %r of a float run the float formatter of
    format(x, ".12g") and repr(x), which the f-string's :.12g and
    json.dumps call, so the bytes are those of the per-member f-strings."""
    head, k_text, no_k, rest = _JSON_OBJECT if json_out else _CSV_ROW
    first = 2 if json_out else 0  # a chunk's first object has no separator
    for n, bs, tails, lambdas in _census_blocks(which, Q, block_rows,
                                                lambda k: k_text % k + rest, no_k + rest):
        h = head % n
        values = [0] * (2 * len(bs))
        values[0::2], values[1::2] = bs, lambdas
        yield (h[first:] + h.join(tails)) % tuple(values)
