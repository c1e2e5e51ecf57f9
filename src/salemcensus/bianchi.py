"""Degree-4 Salem numbers generated by the length spectrum of
PSL(2, o_K) for an imaginary quadratic field K = Q(sqrt(-D)).

Every t in o_K is the trace of a group element (companion matrix), with
eigenvalues mu, 1/mu satisfying mu + 1/mu = t.  For non-real t the element
is loxodromic and s = mu * conj(mu) > 1 is the exponential of its real
translation length.  The symmetric functions

    y + y' = t * conj(t) = N(t)
    y * y' = Tr(t^2) - 4          (y' = mu/conj(mu) + conj(mu)/mu)

make y = s + 1/s a root of z^2 - N(t) z + (Tr(t^2) - 4), so s has the
palindromic quartic with coefficients A = -N(t), B = Tr(t^2) - 2.  The
square lambda = s^2 is then a degree-4 Salem number square-rootable over Q
whenever y is irrational; its quartic is lift_half_power((A, B)).

Rejections: real traces (v = 0) and the reducible cases Re(t) = 0 or
N^2 - 4 Tr(t^2) + 16 a perfect square all force deg(lambda) <= 2 and are
excluded from the census (they only contribute lower-order terms).

Write t = u + v w_K in the basis w_K^2 = c + h w_K of
algebra.quadratic_basis(-D): w_K = (1 + sqrt(-D))/2 and h = 1 when
D = 3 (mod 4), else w_K = sqrt(-D) and h = 0.  With w = 2 Re(t) = 2u + h v
and E = -(4c + h), which is D or 4D, 4 N(t) = w^2 + E v^2 and
2 Tr(t^2) = w^2 - E v^2, so the key (A, B) fixes w^2 and v^2.  The
traces of a member are therefore exactly its sign orbit (+-w, +-v) with
w, v > 0: the census keeps one member per orbit and lists its four traces
as witnesses (num_witness_traces is always 4).

The quadrant is read row by row, v = 1..vmax with E v^2 <= 4R, so
vmax = O(R^(1/2)) = O(Q^(1/4)); row v holds the w of one parity with
N = (w^2 + E v^2)/4 <= R.  Two facts about a row make its census closed
form, without visiting its w.

At most three w of a row are reducible.  Since w^2 = 4N - E v^2,

    N^2 - 4 Tr(t^2) + 16 = N^2 - 2(w^2 - E v^2) + 16 = (N - 4)^2 + 4 E v^2.

If that is s^2 with s >= 0, then s > |N - 4| and
(s - |N-4|)(s + |N-4|) = 4 E v^2 with both factors even (s = N mod 2, as
s^2 - (N - 4)^2 = 0 mod 4), so they are 2f, 2g with f g = E v^2, f <= g
and |N - 4| = g - f.  When N >= 4,
N = 4 + g - f and w^2 = 4N - f g = (4 - f)(4 + g), which is positive only
if f <= 3; when N < 4, N = 4 - g + f and w^2 = (4 + f)(4 - g), positive
only if g <= 3.  Either way E v^2 = d e with d in {1, 2, 3} (d = f, resp.
d = g), N = 4 + e - d and w^2 = (4 - d)(4 + e); conversely such d, e make
the discriminant (e - d)^2 + 4 d e = (e + d)^2.  So a row holds at most
three reducible w, found without visiting the row: d | E v^2,
(4 - d)(4 + e) a square w^2 and N <= R.  Such a w has the row's parity by
itself (w^2 = -3v^2 = v^2 mod 4 when E = D = 3 mod 4, and w^2 is a
multiple of 4 when E = 4D).

The cut lambda <= Q keeps a prefix of the row.  The roots of
z^2 - N z + (Tr(t^2) - 4) are y = (N + sqrt(disc))/2 and
y' = (N - sqrt(disc))/2 with disc = (N - 4)^2 + 4 E v^2 > (N - 4)^2, so
y' < (N - |N - 4|)/2 <= 2, and y' >= -2 iff disc <= (N + 4)^2 iff
E v^2 <= 4N = w^2 + E v^2.  The lifted quartic p has the y-roots
Y = y^2 - 2 and Y' = y'^2 - 2, with Y' in [-2, 2], so for Q >= 2

    p(Q) = Q^2 (Q + 1/Q - Y) (Q + 1/Q - Y'),

whose second factor is positive: p(Q) >= 0 iff Y <= Q + 1/Q iff
y <= T = Q^(1/2) + Q^(-1/2), for every trace of the row, reducible or
not.

The cut is one exact formula per row.  Tr(t^2) = 2N - E v^2, so y is the
larger root of f(z) = z^2 - N z + 2N - E v^2 - 4, and y <= T iff
f(T) >= 0 and N/2 <= T.  As T^2 - 4 = (Q - 1)^2 / Q and
T - 2 = (Q^(1/2) - 1)^2 / Q^(1/2) > 0, f(T) >= 0 reads

    N <= N*(v) = X / (Q^(1/2) (Q^(1/2) - 1)^2),    X = (Q - 1)^2 - Q E v^2,

and then N/2 <= N*/2 <= (Q - 1)^2 / (2 Q^(1/2) (Q^(1/2) - 1)^2) =
(T + 2)/2 <= T holds by itself.  So the row is empty when X < 0 (as
N >= 1), and otherwise keeps the w with N <= N_max = floor(N*).
Multiplying N* above and below by (Q^(1/2) + 1)^2 gives, for X >= 0,

    N* = (2 Q X + sqrt(X^2 Q (Q + 1)^2)) / (Q (Q - 1)^2),

the positive root of Q (Q - 1)^2 N^2 - 4 Q X N - X^2.  For integers a, b
and c with b >= 0 and c > 0, floor((a + sqrt(b)) / c) = (a + isqrt(b)) // c:
if m is the left side, then m c - a <= sqrt(b) gives m c - a <= isqrt(b),
and a + isqrt(b) <= a + sqrt(b) < (m + 1) c.  So

    N_max = (2 Q X + isqrt(X^2 Q (Q + 1)^2)) // (Q (Q - 1)^2)

exactly, with no float and no fix-up, and the row keeps its w with
w^2 <= 4 N_max - E v^2: one more isqrt.  The sign of X needs no test:
when X < 0 the same formula is the floor of |X| / (Q^(1/2) (Q^(1/2) + 1)^2)
< Q^(1/2) E v^2 / (Q^(1/2) + 1)^2 <= E v^2 / 4, so it keeps no w.  The
kept w are a prefix of the row, since
N* <= (Q - 1)^2 / (Q^(1/2) (Q^(1/2) - 1)^2) = T + 2 < R + 1.  The census
counts in O(Q^(1/4)) exact steps, one a row.  The key
(A, B) = (-N, 2N - E v^2 - 2) orders the members by descending N, so
members() walks N down in bands (N_lo, N_hi]: a row adds its kept w with
w^2 > 4 N_lo - E v^2, found by one isqrt, and each band is sorted on
(A, B, w, v).  No two members share a key, so that is the key order.  A
band is sized to hold about 8 members a row, which keeps the live state
O(Q^(1/4)).

The count is c Q^(1/2) - (1 + D^(-1/2))/2 Q^(1/4) + O(Q^(1/6)), with
c = pi / (2 E^(1/2)) = marklof_constant(D).  The cut N <= N*(v) is linear
in v^2: with K = Q^(1/2) (Q^(1/2) - 1)^2, so that K + 4Q =
Q^(1/2) (Q^(1/2) + 1)^2, it reads K w^2 + (K + 4Q) E v^2 <= 4 (Q - 1)^2,
the ellipse

    w^2 / a^2 + v^2 / b^2 <= 1,   a = 2 (Q^(1/4) + Q^(-1/4)),
                                  b = 2 (Q^(1/4) - Q^(-1/4)) / E^(1/2).

The traces (w, v) form a lattice of covolume 2 (w = v mod 2 when E = D,
w even when E = 4D), symmetric under both sign changes, so if the
ellipse holds P of its points, P_0 of them on the axes, the open quadrant
holds (P - P_0)/4.  The ellipse has area pi a b = 4 pi (Q - 1) / (Q E)^(1/2),
and its shape converges as Q grows, so van der Corput's bound for a
smooth convex region of area A, A / covolume + O(A^(1/3)) lattice points,
gives P/4 = c Q^(1/2) + O(Q^(1/6)).  The axes hold the even w with
|w| <= a, a + O(1) = 2 Q^(1/4) + O(1) of them, and the (0, v) with
|v| <= b: the even v when E = D and every v when E = 4D, in both cases
2 D^(-1/2) Q^(1/4) + O(1) of them.  So P_0/4 = (1 + D^(-1/2))/2 Q^(1/4)
+ O(1).  Last, the count leaves out the reducible quadrant traces, the
solutions of d w^2 - (4 - d) E v^2 = 4 d (4 - d) for d in {1, 2, 3}.  Each
is a Pell-type equation, whose solutions fall in finitely many classes
that grow geometrically (or are finitely many when d (4 - d) E is a
square), so O(log Q) of them have v <= Q^(1/4).
"""

import functools
import math
from collections.abc import Iterator
from itertools import chain, islice
from typing import NamedTuple

from .algebra import quadratic_basis, require_square_free
from .errors import _check_q
from .quartics import lift_half_power, salem_value

__all__ = [
    "BianchiCensus",
    "bianchi_census",
    "marklof_constant",
    "row_count",
    "census_bounds",
    "BIANCHI_CSV_HEADER",
    "bianchi_csv_row",
    "bianchi_json_block",
    "bianchi_table",
]

BIANCHI_CSV_HEADER = "A,B,a_lift,b_lift,k,lambda,num_witness_traces"


class BianchiCensus(NamedTuple):
    """The count of members, one per key, and diagnostic tallies;
    members() lists the members.  traces_scanned, excluded_real,
    excluded_imag_axis and excluded_reducible count traces, while
    excluded_over_q counts keys, as count does: one for each sign orbit
    (+-w, +-v) of four traces.  So traces_scanned == excluded_real +
    excluded_imag_axis + excluded_reducible + 4 (count + excluded_over_q)."""

    D: int
    qmax: int
    count: int = 0
    traces_scanned: int = 0
    excluded_real: int = 0
    excluded_imag_axis: int = 0
    excluded_reducible: int = 0
    excluded_over_q: int = 0

    def members(self) -> Iterator[tuple[int, int, int, int]]:
        """(A, B, w, v) of each member in (A, B) order: its key and its
        quadrant trace, computed again on each call from D and qmax alone,
        which are checked as bianchi_census checks them."""
        return chain.from_iterable(_bands(require_square_free(self.D, 1, "D"), _check_q(self.qmax)))


def _reducible(E_v2: int, R: int) -> tuple[int, ...]:
    """The w > 0 of row v with N = (w^2 + E v^2)/4 <= R whose
    discriminant is a square: w^2 = (4 - d)(4 + e) for E v^2 = d e,
    d in {1, 2, 3}, with N = 4 + e - d (see the module notes)."""
    out = ()
    for d in (1, 2, 3):
        if E_v2 % d == 0:
            e = E_v2 // d
            w2 = (4 - d) * (4 + e)
            w = math.isqrt(w2)
            if w * w == w2 and 4 + e - d <= R:
                out += (w,)
    return out


@functools.cache
def _reducible_residues() -> int:
    """Bit x (0 <= x < 576) is clear when no row with E v^2 = x (mod 576)
    holds a reducible w: for no d in {1, 2, 3} that divides x is
    (4 - d)(4 + E v^2 / d) a square modulo 576 / d, which x fixes it to."""
    squares = {m: {i * i % m for i in range(m)} for m in (576, 288, 192)}
    return sum(1 << x for x in range(576)
               if any(x % d == 0 and (4 - d) * (4 + x // d) % (576 // d) in squares[576 // d]
                      for d in (1, 2, 3)))


def _field(D: int) -> tuple[int, int]:
    """(E, h): minus the discriminant of K = Q(sqrt(-D)), D or 4D, and the h
    of its basis w_K^2 = c + h w_K, 1 or 0."""
    c, h = quadratic_basis(-D)
    return -(4 * c + h), h


def _rows(D: int, Q: int) -> Iterator[tuple[int, int, range, int, tuple[int, ...]]]:
    """(v, E v^2, ws, kept, reducible) for each row v = 1..row_count(D, Q):
    ws are the quadrant's w of row v with N(t) <= R = isqrt(Q) + 3, the
    first kept of them have lambda <= Q, and reducible lists the ws whose
    discriminant is a square.  Only the rows whose E v^2 passes the
    residue test of _reducible_residues are searched for them."""
    R = math.isqrt(Q) + 3
    E, h = _field(D)
    Q1 = (Q - 1) ** 2
    residues = _reducible_residues()
    for v in range(1, row_count(D, Q) + 1):
        E_v2 = E * v * v
        # w = 2u + h v keeps the parity of h v
        ws = range(2 - h * (v % 2), math.isqrt(4 * R - E_v2) + 1, 2)
        X = Q1 - Q * E_v2  # N_max = floor(N*(v)), see the module notes
        N_max = (2 * Q * X + math.isqrt(Q * (X * (Q + 1)) ** 2)) // (Q * Q1)
        kept = len(range(ws.start, math.isqrt(max(4 * N_max - E_v2, 0)) + 1, 2))
        yield v, E_v2, ws, kept, _reducible(E_v2, R) if residues >> E_v2 % 576 & 1 else ()


def _bands(D: int, Q: int) -> Iterator[list[tuple[int, int, int, int]]]:
    """The members (A, B, w, v) of bianchi_census(D, Q) as one sorted list
    a band (N_lo, N_hi] of N = (w^2 + E v^2)/4, bands descending.  A live
    row is [top, v, E v^2, start, reducible]: its w not yet listed are
    start, start + 2, .., top.  The live rows keep kept traces, the
    members and their few reducible w, over about R units of N, so a band
    width of 8 rows R / kept holds about 8 members a row."""
    isqrt = math.isqrt
    live = [[ws.start + 2 * kept - 2, v, E_v2, ws.start, red]
            for v, E_v2, ws, kept, red in _rows(D, Q) if kept]
    if not live:
        return
    kept = sum(top - start for top, _, _, start, _ in live) // 2 + len(live)
    width = 8 * len(live) * (isqrt(Q) + 3) // kept + 1
    N_lo = max((top * top + E_v2) // 4 for top, _, E_v2, _, _ in live)
    while live:
        N_lo -= width
        band = []
        n = 0
        for row in live:
            top, v, E_v2, start, red = row
            t = 4 * N_lo - E_v2  # the band's w have w^2 > t
            lo = max(isqrt(t) + 1, start) if t >= 0 else start
            lo += (lo - start) % 2
            if lo <= top:
                ws = range(lo, top + 2, 2)
                if red:
                    ws = [w for w in ws if w not in red]
                band += [(-N, 2 * N - E_v2 - 2, w, v)
                         for w in ws for N in [(w * w + E_v2) // 4]]
                row[0] = lo - 2
            if lo > start:  # the row keeps w below the band
                live[n] = row
                n += 1
        del live[n:]
        band.sort()
        yield band


def bianchi_census(D: int, Q: int) -> BianchiCensus:
    """All degree-4 square-rootable Salem numbers lambda <= Q arising from
    traces of PSL(2, o_K), one member per (A, B) key.

    Traces are taken over norm(t) <= R = floor(sqrt(Q)) + 3, which covers
    every candidate since N(t) differs from y = lambda^(1/2) + lambda^(-1/2)
    by at most 2; exactness is restored by the p(Q) >= 0 cut on the lifted
    quartic.  A key is one sign orbit (+-w, +-v), so only the quadrant
    w, v > 0 counts; the axes are real or imaginary-axis traces, all
    rejected, and are tallied in closed form.  The count and the tallies
    come from the rows in O(Q^(1/4)) steps (see the module notes);
    members() streams the members by visiting the kept traces again.
    Asymptotically count / sqrt(Q) approaches marklof_constant(D).
    """
    require_square_free(D, 1, "D")
    _check_q(Q)
    R = math.isqrt(Q) + 3
    count = scanned = reducible = red_kept = 0
    for _v, _E_v2, ws, kept, red in _rows(D, Q):
        count += kept
        scanned += len(ws)
        if red:  # each w of red is in ws, and kept iff before ws[kept]
            reducible += len(red)
            red_kept += sum(w < ws.start + 2 * kept for w in red)
    over_q = scanned - count - (reducible - red_kept)
    count -= red_kept
    real = 2 * math.isqrt(R) + 1  # v = 0, 4 N(t) = w^2 <= 4R
    imag_axis = 2 * math.isqrt(R // D)  # w = 0, v != 0
    return BianchiCensus(
        D, Q, count,
        traces_scanned=real + imag_axis + 4 * scanned,
        excluded_real=real,
        excluded_imag_axis=imag_axis,
        excluded_reducible=4 * reducible,
        excluded_over_q=over_q,
    )


def row_count(D: int, Q: int) -> int:
    """The rows v = 1..vmax that bianchi_census(D, Q) reads, vmax =
    isqrt(4R // E) with R = isqrt(Q) + 3 and E = D or 4D."""
    R = math.isqrt(Q) + 3
    return math.isqrt(4 * R // _field(D)[0])


def census_bounds(D: int, Q: int) -> tuple[int, int]:
    """(members, steps), in O(1): an upper bound on
    bianchi_census(D, Q).count and the count's steps, 5 for each of its
    row_count(D, Q) rows, as a row (its cut and its reducible w) takes
    about 5 times as long as an exact floor of count_system (see
    cli.MAX_STEPS).  A row holds at most L = isqrt(4R) // 2 + 1 traces
    (R = isqrt(Q) + 3)."""
    rows = row_count(D, Q)
    return rows * (math.isqrt(4 * (math.isqrt(Q) + 3)) // 2 + 1), 5 * rows


def marklof_constant(D: int) -> float:
    """Leading constant of the distinct-real-length count for PSL(2, o_K):
    pi/(2 sqrt(E)), that is pi/(4 sqrt(D)) when D = 1, 2 (mod 4) and
    pi/(2 sqrt(D)) when D = 3 (mod 4).  sqrt(4D) = 2 sqrt(D) holds in
    floating point too, as scaling by 4 is exact."""
    require_square_free(D, 1, "D")
    return math.pi / (2.0 * math.sqrt(_field(D)[0]))


def bianchi_csv_row(m: tuple[int, int, int, int]) -> str:
    """The CSV row of a member (A, B, w, v); its sign orbit is its four
    witness traces (see the module notes).  lift_half_power and
    salem_value are looked up as module globals on each call, so that
    salembench/tracer.py, which replaces them, counts every call."""
    A, B = m[0], m[1]
    a, b = p = lift_half_power(m[:2])
    return "%d,%d,%d,%d,%d,%.12g,4" % (A, B, a, b, abs(B - 2), salem_value(p))


# A member's JSON object, as json.dumps(indent=2) writes it in a list: its
# key, lift, k and lambda, and its four witness traces [u, v]
_JSON_OBJECT = ('  {\n    "A": "%d",\n    "B": "%d",\n    "a_lift": "%d",\n    "b_lift": "%d",\n'
                '    "k": "%d",\n    "lambda": %r,\n    "witnesses": [\n      '
                + ",\n      ".join(["[\n        %d,\n        %d\n      ]"] * 4) + "\n    ]\n  }")


def bianchi_json_block(D: int, block: list[tuple[int, int, int, int]]) -> str:
    """The JSON objects of the members m of block, with the bytes of
    json.dumps(indent=2) and its separators between them: one % on the
    object template repeated once a member.  %d of an int is str(int), and
    %r of lambda is the float repr that json.dumps writes.  The lift is
    (2B - A^2, B^2 - 2A^2 + 2) and lambda takes salem_value's float steps
    on it.  The witnesses are the traces t = u + v w of the member's sign
    orbit (+-w, +-v), where 2 Re(t) = w = 2u + h v: so
    u = (+-w -+ h v)/2, exact as w = h v mod 2."""
    h = _field(D)[1]
    sqrt = math.sqrt
    values = []
    for A, B, w, v in block:
        a, b = 2 * B - A * A, B * B - 2 * A * A + 2
        y = (-a + sqrt(a * a - 4 * b + 8)) / 2.0
        p, m = (w + h * v) // 2, (w - h * v) // 2
        values += (A, B, a, b, abs(B - 2), (y + sqrt(y * y - 4.0)) / 2.0,
                   -m, -v, p, -v, -p, v, m, v)
    return ",\n".join([_JSON_OBJECT] * len(block)) % tuple(values)


def bianchi_table(D: int, Q: int, json_out: bool, block_rows: int) -> tuple[str, Iterator[str]]:
    """(header, chunks) of the bianchi table: the CSV header, and the
    members of bianchi_census(D, Q), at most block_rows to a chunk, as
    bianchi_csv_row lines or (json_out) bianchi_json_block objects.  Both
    are looked up as module globals, as bianchi_csv_row's callees are."""
    members = bianchi_census(D, Q).members()
    blocks = iter(lambda: list(islice(members, block_rows)), [])
    if json_out:
        return BIANCHI_CSV_HEADER, (bianchi_json_block(D, block) for block in blocks)
    return BIANCHI_CSV_HEADER, ("\n".join(map(bianchi_csv_row, block)) + "\n" for block in blocks)
