"""Degree-4 Salem numbers over a real quadratic field L = Q(sqrt(d)):
the necessary inequality system on (a, k) in o_L^2, full verification of
the Salem-over-L property, and geometry-of-numbers constants.

With sigma the non-identity embedding, the system is

    b = k^2 + 2a - 2                       (so p(-1) = k^2)
    0 < -a < Q + 3                         (identity embedding)
    -4 < sigma(a) < 4
    k^2 < -4a                              (identity embedding)
    (sigma(a)-4)/2 < sigma(k) < 4    or    -4 < sigma(k) < (4-sigma(a))/2

together with the normalization sigma1(k) > 0.  Every inequality is strict
and is decided exactly: each comparison is the sign of an element of o_L,
which vanishes only for the zero element, so integer coordinates settle
all boundary cases, and every search bound is an integer square root.

Coordinates are doubled: sigma1(x) = (A + B sqrt(d))/2 and
sigma2(x) = (A - B sqrt(d))/2 with integers A = B (mod 2); x = u + v w has
(A, B) = (2u + h v, (2 - h) v) for the basis w^2 = c + h w of
algebra.quadratic_basis: (2u, 2v) for w = sqrt(d) and (2u + v, v) for
w = (1 + sqrt(d))/2.
For a fixed a, the k of one v-coordinate fill one interval of W (step 2).
Its window sigma1(k) > 0, |sigma2(k)| < 4 depends only on (d, v) and is
tabulated once per call, and the quadratic cut costs one integer square
root and at most one sign test.  Enumerating walks these intervals: an a
with sigma1(a) near -Q meets O(Q^(1/2)) k-rows, so the O(Q) a take
O(Q^(3/2)) (a, k-row) pairs, the order of the solutions they list.

Counting runs over k instead, in O(Q^(1/2)) exact steps.

The branch never removes a solution.  Its 'plus' and 'minus' tests,
sigma2(2k - a + 4) > 0 and sigma2(2k + a - 4) < 0, both fail only if
sigma2(a) >= 4, so every pair that meets the other inequalities is a
solution.  So the count is the sum over the k of the window
(sigma1(k) > 0, |sigma2(k)| < 4; the rows of _k_rows) of the number of
a with -(Q+3) < sigma1(a) < c = -sigma1(k)^2/4 and |sigma2(a)| < 4
(sigma1(a) < 0 follows, as c < 0).

The a-rows.  Group the a of the strip |sigma2(a)| < 4 by their
v-coordinate, with B = v or 2v (step 1 or 2).  Row B holds the A = B
(mod 2) with B sqrt(d) - 8 < A < B sqrt(d) + 8.  For B != 0 both ends
are irrational, and an open interval of length 16 with irrational ends
holds exactly 8 integers of each parity: the row is lo, lo + 2, ..,
lo + 14, with lo the first A above B sqrt(d) - 8.  Row 0 holds the 7
even A in (-8, 8).  As sigma1(a) = sigma2(a) + B sqrt(d) and sigma2
runs in steps of 1 through (-4, 4), the least sigma1(a) of row B lies in
(B sqrt(d) - 4, B sqrt(d) - 3] and the greatest in
[B sqrt(d) + 3, B sqrt(d) + 4).  Both grow strictly with v, as
sqrt(d) > 1.  So for any cut c, the rows whose every a has sigma1(a) < c
form a prefix, the rows with no such a form a suffix, and each row
between holds an a below c, not all of them: B sqrt(d) lies in
(c - 4, c + 4).

The clipped end rows.  The bounds -(Q+3) < sigma1(a) < 0 clip the rows
at both ends of the system.  The top clip is implied by sigma1(a) < c.
The bottom clip is a subtraction: with v_lo = _va_range(d, Q)[0], below
which no a has sigma1(a) > -(Q+3), let F(c) count the a of the whole
rows v >= v_lo with sigma1(a) < c.  No a of the strip has
sigma1(a) = -(Q+3) (an irrational value unless B = 0, and row 0 has
sigma1(a) = sigma2(a) > -4).  So k adds F(c) - F(-(Q+3)) when
c > -(Q+3) and nothing otherwise, and as F grows with c, it adds
max(0, F(c) - F(-(Q+3))) either way.  F(-(Q+3)) is computed once.
Within a k-row c falls as W grows, so the row ends at its first k that
adds nothing.  Strictness excludes k^2 + 4a = 0 by itself.

One F(c), exact.  Write the cut as A + B sqrt(d) < -(P + G sqrt(d))/8,
that is c = -(P + G sqrt(d))/16, with P = W^2 + V^2 d and G = 2WV for
k = (W, V), and P = 16(Q+3), G = 0 for the floor.  The greatest sigma1
of row B != 0 is below B sqrt(d) + 4, so the row is whole when
B sqrt(d) + 4 <= c, i.e. 16 B sqrt(d) <= -(64 + P) - G sqrt(d), i.e.
B <= B1 = floor((floor(-(64 + P) sqrt(d)) - G d) / (16 d)), exact by
the rule of algebra.floor_root: floor((a + B sqrt(d)) / m) =
(a + floor_root(B, d)) // m for m > 0.  These rows have
B < 0 (as c < 0), so each holds 8 a and the rows v_lo..v1, v1 = B1 // step,
add 8 each.  From v = max(v1 + 1, v_lo) the rows are walked: row B adds
the A = lo + 2j <= top, where top, the greatest A with
8A < -P - (8B + G) sqrt(d), is one exact floor and lo another: by
floor_root's rule the greatest integer below x is -floor(-x) - 1, so
top = (-P - 1 - floor_root(8B + G, d)) // 8, also where 8B + G = 0
and the bound is rational.
That is (top - lo) // 2 + 1 of them, and never more than the row holds:
v > v1 means B sqrt(d) + 4 > c, while lo + 16 has sigma1 above
B sqrt(d) + 4, so top < lo + 16 (and row 0 adds at most 3, as its
A < 2c < 0).  The walk stops at the first row that adds nothing, the
first of the suffix.  Every other walked row has v > v1 and an a below
c, so B sqrt(d) lies in (c - 4, c + 4), which holds at most
floor(8 / (step sqrt(d))) + 1 such rows.  So one F(c) takes
one floor for the seed and two for each of at most
r = floor(8 / (step sqrt(d))) + 2 rows.  No float seeds it: the seed is
a floor of exact integers and the walk fixes it up with exact floors.
There are about 16 (Q / disc)^(1/2) k, so the count takes O(Q^(1/2))
steps in O(1) memory, reading the rows of _k_rows once.

The count to two terms.  Map (a, k) to (sigma1(a), sigma2(a), sigma1(k),
sigma2(k)) in R^4.  o_L has covolume |D_L|^(1/2) under its two
embeddings, so o_L^2 is a lattice of covolume |D_L|, and the solutions
are its points in the region 0 < m = -sigma1(a) < Q + 3, |sigma2(a)| <
4, 0 < t = sigma1(k) < 2 m^(1/2), |sigma2(k)| < 4 (the branch removes
nothing).  The region has volume 8 * 8 * (integral of 2 m^(1/2) over (0,
Q + 3)) = 64 (4/3) (Q + 3)^(3/2) = 64 (4/3) Q^(3/2) + O(Q^(1/2)).  The
count is this volume over |D_L| up to O(Q), by the rows above.  A k with
t = sigma1(k) adds the a of the rows with B sqrt(d) in an interval of
length L = Q + 3 - t^2/4: 8 a a whole row, rows step sqrt(d) apart, and
a bounded number of rows at each end not whole, so 8 L / |D_L|^(1/2) +
O(1) a, as step^2 d = |D_L|.  Likewise each k-row with V sqrt(d) > 4
holds 8 k (a bounded number of rows hold fewer), with t within 4 of V
sqrt(d), and the rows are step sqrt(d) apart.  So over the O(Q^(1/2)) k
the count is the sum of g(t) = 8 (Q + 3 - t^2/4) / |D_L|^(1/2) over 8
points a row, which is 8 / |D_L|^(1/2) times the integral of g over (0,
2 (Q + 3)^(1/2)) up to O(Q), as g <= 8 (Q + 3) and |g'| = O(Q^(1/2)): 64
(4/3) (Q + 3)^(3/2) / |D_L| + O(Q).  So count_system(d, Q) = (256/3)
Q^(3/2) / |D_L| + O(Q).

The Q term is measured, not proved: count_system(d, Q) - (256/3) Q^(3/2)
/ |D_L| + 8 Q / |D_L|^(1/2) stayed within [-5.4, 98.3] Q^(1/2) over 29
fields with |D_L| from 5 to 40028 at Q = 1e3..1e7, over ten of them at
random Q up to 1e8, and for d = 2, 3, 5, 13 at Q = 1e9 and 3e9
(tests/test_totally_real.py pins it).  A reading of the -8 Q /
|D_L|^(1/2), not a proof: the lattice points on the boundary of the
k-window are k = 0 (sigma1(k) = 0) and k = 4 (sigma2(k) = 4), and behind
each lie about 8 Q / |D_L|^(1/2) points a, all excluded by the strict
inequalities, where the volume counts half of each.
"""

import math
from collections.abc import Iterator
from itertools import chain, islice
from typing import NamedTuple

from .algebra import (
    RealQuadElem,
    floor_root,
    is_perfect_square,
    quadratic_basis,
    require_square_free,
)
from .errors import CapacityError, DomainError, _check_q

__all__ = [
    "SystemSolution",
    "LatticeGeometry",
    "enumerate_system",
    "system_rows",
    "count_system",
    "count_bounds",
    "verify_salem_over_L",
    "ring_square_root",
    "lattice_geometry",
    "c2_upper_bound",
    "volume_leading",
    "volume_exact",
    "SYSTEM_CSV_HEADER",
    "system_table",
]

SYSTEM_CSV_HEADER = "a_u,a_v,k_u,k_v,b_u,b_v,branch,verified"


class SystemSolution(NamedTuple):
    """One solution (a, k) with b = k^2 + 2a - 2 and its branch tag
    ('plus', 'minus' or 'both' for the sigma(k) window that held)."""

    a: RealQuadElem
    k: RealQuadElem
    b: RealQuadElem
    branch: str


class LatticeGeometry(NamedTuple):
    """Embedding lattice data of o_L: degree, field discriminant, and twice
    the longer diagonal of the standard-basis fundamental parallelotope."""

    d: int
    h: int
    disc: int
    delta: float


def _disc(d: int) -> int:
    c, h = quadratic_basis(d)
    return 4 * c + h


# --- the system as integer intervals -----------------------------------------


def _va_range(d: int, Q: int) -> tuple[int, int]:
    """[lo, hi) holding the v-coordinate of every admissible a.

    sigma1(a) - sigma2(a) = B sqrt(d) lies in (-(Q+7), 4), and B^2 d is
    v^2 times the field discriminant, so v^2 disc < (Q+7)^2 for v < 0 and
    v^2 disc < 16 for v > 0.
    """
    disc = _disc(d)
    return -math.isqrt(((Q + 7) ** 2 - 1) // disc), math.isqrt(15 // disc) + 1


def _iter_a_coords(d: int, Q: int) -> Iterator[tuple[int, int, int, int]]:
    """(u, v, A, B) of every a in o_L with -(Q+3) < sigma1(a) < 0 and
    -4 < sigma2(a) < 4, in (v, u) order.

    Row B holds the A with -2(Q+3) - B sqrt(d) < A < -B sqrt(d) and
    B sqrt(d) - 8 < A < B sqrt(d) + 8.  With f = floor_root(B, d) and
    B sqrt(d) irrational, floor(-B sqrt(d)) = -f - 1, so by floor_root's
    rule the ends are lo = max(-2(Q+3) - f, f - 7) and
    hi = min(-f - 1, f + 8).  At B = 0 these are -7 and -1, the right ends
    as Q >= 2."""
    h = quadratic_basis(d)[1]
    for v in range(*_va_range(d, Q)):
        B, off = (2 - h) * v, h * v
        f = floor_root(B, d)
        lo = max(-2 * (Q + 3) - f, f - 7)
        hi = min(-f - 1, f + 8)
        lo += (lo - B) % 2
        for A in range(lo, hi + 1, 2):
            yield (A - off) // 2, v, A, B


def _k_rows(d: int, Q: int) -> Iterator[tuple[int, int, int, int, int, int]]:
    """The a-independent part of the k-window, one row (v, off, V, fV, lo, hi)
    per v-coordinate, in v order.

    k = u + v w has doubled coordinates (W, V) with W = 2u + off, and
    fV = floor(V sqrt(d)).  lo..hi (step 2) is the W-range of
    sigma1(k) > 0 and |sigma2(k)| < 4, i.e. of -V sqrt(d) < W,
    V sqrt(d) - 8 < W < V sqrt(d) + 8.  For v < 0 it is empty unless
    v^2 disc < 16.  The rows stop where 2 fV - 8 exceeds floor(2 sqrt(4(Q+3))),
    past which _k_ranges ends for every a.
    """
    h = quadratic_basis(d)[1]
    top = math.isqrt(16 * (Q + 3))
    v = -math.isqrt(15 // _disc(d))
    while True:
        V, off = (2 - h) * v, h * v
        fv = floor_root(V, d)
        if 2 * fv - 8 > top:
            return
        on_axis = int(V == 0)  # V sqrt(d) is rational only for V = 0
        lo = max(on_axis - fv, fv - 7)
        hi = fv + 8 - on_axis
        lo += (lo - V) % 2
        hi -= (hi - V) % 2
        if lo <= hi:
            yield v, off, V, fv, lo, hi
        v += 1


def _k_ranges(
    d: int, rows: list, A: int, B: int
) -> Iterator[tuple[int, int, int, int, int]]:
    """Every k for the a with doubled coordinates (A, B), as one exact
    W-range (v, off, V, lo, hi), lo <= hi step 2, per row that holds any.

    The quadratic cut sigma1(k)^2 < -4 sigma1(a) reads W < X with
    X = 2R - V sqrt(d) and 2R = sqrt(-8(A + B sqrt(d))) (sigma1(k) > 0).
    F = floor(2R) = isqrt(floor(-8(A + B sqrt(d)))), and X lies in
    (F - fV - 1, F - fV + 1).  So the largest W < X of the parity of V is
    c - 1 when c = F - fV has the other parity, and otherwise c or c - 2,
    as the exact sign of sigma1(k^2 + 4a) at W = c says (where sigma1(k)
    <= 0 at W = c, c < lo and the range is empty either way).  A row needs
    V sqrt(d) - 8 < X, so 2 fV - 8 > F ends this row and all later ones.
    """
    f2r = math.isqrt(floor_root(-8 * B, d) - 8 * A)
    for v, off, V, fv, lo, hi in rows:
        if 2 * fv - 8 > f2r:
            return
        c = f2r - fv
        if (c - V) % 2:
            c -= 1
        elif c <= hi and c * c + V * V * d + 8 * A + floor_root(2 * c * V + 8 * B, d) >= 0:
            c -= 2
        hi = min(hi, c)
        if lo <= hi:
            yield v, off, V, lo, hi


def _iter_solutions(d: int, Q: int) -> Iterator[tuple[int, int, int, int, str]]:
    rows = list(_k_rows(d, Q))
    for au, av, A, B in _iter_a_coords(d, Q):
        for v, off, V, lo, hi in _k_ranges(d, rows, A, B):
            # plus:  sigma2(2k - a + 4) > 0  <=>  2W > (A - 8) + (2V - B) sqrt(d)
            # minus: sigma2(2k + a - 4) < 0  <=>  2W < (8 - A) + (2V + B) sqrt(d)
            # Both fail only if sigma2(a) >= 4, so one of them holds.
            plus_from = A - 7 + floor_root(2 * V - B, d)
            minus_to = 7 - A - floor_root(-2 * V - B, d)
            for W in range(lo, hi + 1, 2):
                branch = ("plus" if 2 * W > minus_to else
                          "minus" if 2 * W < plus_from else "both")
                yield au, av, (W - off) // 2, v, branch


def system_rows(
    d: int, Q: int, verified: bool = False
) -> Iterator[tuple[int, int, int, int, int, int, str, bool | None]]:
    """(a_u, a_v, k_u, k_v, b_u, b_v, branch, verified) of every solution,
    in the order of enumerate_system, in integer coordinates with no
    element built: b = k^2 + 2a - 2 by quadratic_basis.  verified is
    verify_salem_over_L's answer when asked for, else None."""
    require_square_free(d, 2, "d")
    _check_q(Q)
    c, h = quadratic_basis(d)
    for au, av, ku, kv, branch in _iter_solutions(d, Q):
        bu = ku * ku + c * kv * kv + 2 * au - 2
        bv = (2 * ku + h * kv) * kv + 2 * av
        yield (au, av, ku, kv, bu, bv, branch,
               (branch == "both" and _salem_over_L(d, au, av, bu, bv)) if verified else None)


def enumerate_system(d: int, Q: int) -> Iterator[SystemSolution]:
    """Every solution of the system with sigma1(k) > 0, in deterministic
    order (a by (v, u), then k by (v, u))."""
    prev = None
    for au, av, ku, kv, bu, bv, branch, _ in system_rows(d, Q):
        if (au, av) != prev:  # consecutive solutions share a
            prev, a = (au, av), RealQuadElem(d, au, av)
        yield SystemSolution(a, a._like(ku, kv), a._like(bu, bv), branch)


def _a_below(d: int, step: int, v_lo: int, P: int, G: int) -> int:
    """F(c) of the module notes: the number of a with v-coordinate >= v_lo,
    |sigma2(a)| < 4 and sigma1(a) < c = -(P + G sqrt(d))/16 < 0, where
    B = step * v.  The rows up to the seed hold 8 a each; the later ones
    are walked, two exact floors a row, up to the first that holds none."""
    v = max((floor_root(-(64 + P), d) - G * d) // (16 * d) // step + 1, v_lo)
    n = 8 * (v - v_lo)
    while True:
        B = step * v
        lo = floor_root(B, d) - 7
        lo += (lo - B) % 2
        top = (-P - 1 - floor_root(8 * B + G, d)) // 8
        got = (top - lo) // 2 + 1
        if got <= 0:
            return n
        n += got
        v += 1


def count_system(d: int, Q: int) -> int:
    """Number of system solutions, summed over k: each k of _k_rows with
    sigma1(k)^2 < 4(Q+3) adds the a with -(Q+3) < sigma1(a) < -sigma1(k)^2/4
    and |sigma2(a)| < 4, as the difference of two _a_below counts."""
    require_square_free(d, 2, "d")
    _check_q(Q)
    v_lo = _va_range(d, Q)[0]
    step = 2 - quadratic_basis(d)[1]
    bottom = _a_below(d, step, v_lo, 16 * (Q + 3), 0)  # the a with sigma1(a) < -(Q+3)
    total = 0
    for _, _, V, _, lo, hi in _k_rows(d, Q):
        for W in range(lo, hi + 1, 2):
            n = _a_below(d, step, v_lo, W * W + V * V * d, 2 * W * V) - bottom
            if n <= 0:  # sigma1(k) grows with W, so the row ends here
                break
            total += n
    return total


def count_bounds(d: int, Q: int) -> tuple[int, int]:
    """(solutions, steps), in O(1): upper bounds on count_system(d, Q) and on
    its exact steps, the floor_root calls it makes.  A v-row of
    _iter_a_coords holds at most 8 a, and a k-row at most 8 k.  _k_rows
    reads the n_k rows up to the last v with floor(V sqrt(d)) <= M =
    (top + 8) // 2, one call each, and one call more.  count_system calls
    _a_below once for the bottom clip and at most once a k, and each call
    takes at most 1 + 2r steps (see the module notes)."""
    lo, hi = _va_range(d, Q)
    n_a = 8 * (hi - lo)
    step = 2 - quadratic_basis(d)[1]
    M = (math.isqrt(16 * (Q + 3)) + 8) // 2
    V = math.isqrt(((M + 1) ** 2 - 1) // d)  # the largest V >= 0 with floor(V sqrt(d)) <= M
    n_k = V // step + math.isqrt(15 // _disc(d)) + 1
    r = math.isqrt(64 // (step * step * d)) + 2
    return 8 * n_a * n_k, n_k + 1 + (8 * n_k + 1) * (1 + 2 * r)


# --- verification ------------------------------------------------------------


def ring_square_root(d: int, u: int, v: int) -> tuple[int, int] | None:
    """(u', v') with (u' + v' w)^2 = u + v w, a square root of x = u + v w
    in o_L, if one exists, else None.

    With w^2 = c + h w (quadratic_basis), x has trace 2u + h v and norm
    u^2 + h u v - c v^2.  Write sigma1(y) = (T + S sqrt(d))/2.  If y^2 = x,
    then N(y)^2 = N(x), T^2 = Tr(y)^2 = Tr(x) + 2 N(y) and
    S^2 d = (sigma1(y) - sigma2(y))^2 = Tr(x) - 2 N(y).  So N(x) is a
    perfect square n^2, and for N(y) = n or -n both T >= 0 and |S| come
    from integer square roots.  A root y (or -y) has the doubled
    coordinates (T, S) or (T, -S), from which (u', v') follow exactly.  Each
    candidate is confirmed by exact squaring, so the answer is right at
    every magnitude.
    """
    require_square_free(d, 2, "d")
    c, h = quadratic_basis(d)
    n = is_perfect_square(u * u + h * u * v - c * v * v)
    if n is None:
        return None
    tr = 2 * u + h * v
    for norm_y in (n, -n):
        T = is_perfect_square(tr + 2 * norm_y)
        S2, rem = divmod(tr - 2 * norm_y, d)
        S = is_perfect_square(S2) if rem == 0 else None
        if T is None or S is None:
            continue
        for s in (S, -S):
            # (A, B) = (T, s); a candidate off the lattice fails the check
            vy = s // (2 - h)
            uy = (T - h * vy) // 2
            if uy * uy + c * vy * vy == u and (2 * uy + h * vy) * vy == v:
                return uy, vy
    return None


def verify_salem_over_L(d: int, s: SystemSolution) -> bool:
    """Salem-over-L verification of a solution s from enumerate_system,
    exact.  The full property is

    (i)   the identity-embedded quartic has the Salem root pattern,
    (ii)  the conjugate quartic has all roots on the unit circle,
    (iii) 4 - a + 2k or 4 - a - 2k is totally positive,
    (iv)  r(y) = y^2 + a y + (b-2) has no root in o_L (its discriminant is
          not a square in o_L), so the quartic is irreducible over L.

    Proof of the tests for (i) and (ii): p(x) = x^2 r(x + 1/x), and a root
    y of r gives the roots x, 1/x of x^2 - y x + 1.  They are real and off
    the unit circle when y is real with |y| > 2, on the circle when y is
    real with |y| <= 2 (a non-real pair when |y| < 2), and off it when y is
    not real, because x + 1/x is real for |x| = 1.  So (i) holds iff the
    sigma1-image of r has one root above 2 and one in (-2, 2), that is
    sigma1(r(2)) < 0 < sigma1(r(-2)).  (ii) holds iff both roots of the
    sigma2-image are real and in [-2, 2]: sigma2 of r(2), r(-2) and
    disc = a^2 - 4b + 8 are >= 0, and the vertex -sigma2(a)/2 lies in
    [-2, 2].

    On a system solution r(2) = k^2 + 4a, r(-2) = k^2,
    disc = x y with x = 4 - a + 2k, y = 4 - a - 2k, and |sigma2(a)| < 4,
    so (i) holds already and (ii) comes down to sigma2(k^2 + 4a) >= 0 and
    sigma2(disc) >= 0.  sigma1 of x and of y is positive, so neither is
    0: with m = -sigma1(a) > 0 and t = sigma1(k) in (0, 2 sqrt m),
    4 + m - 2t >= 4 sqrt(m) - 2t > 0, as (2 - sqrt m)^2 >= 0.  So (iii)
    reads sigma2(x) > 0 or sigma2(y) > 0, which are the 'plus' and 'minus'
    tests of the branch tag.  Both fail only if sigma2(a) >= 4, so every
    solution passes one of them and (iii) always holds.
    sigma2(disc) = sigma2(x) sigma2(y) with both factors nonzero and one
    positive, so sigma2(disc) >= 0 iff both are positive, that is iff the
    branch is 'both'.  k^2 + 4a is nonzero (sigma1(k^2 + 4a) < 0), so its
    sigma2 sign is strict.  What is left is the branch, one sign and (iv),
    one square root in o_L.

    The branch tag is trusted, so s must come from enumerate_system.
    """
    require_square_free(d, 2, "d")
    return s.branch == "both" and _salem_over_L(d, s.a.u, s.a.v, s.b.u, s.b.v)


def _salem_over_L(d: int, au: int, av: int, bu: int, bv: int) -> bool:
    """The two tests of verify_salem_over_L left after the branch 'both', on
    integer coordinates: sigma2(k^2 + 4a) > 0, with k^2 + 4a = b + 2a + 2,
    and no square root of disc = a^2 - 4b + 8 in o_L, which
    ring_square_root decides on the coordinates of disc."""
    x, y = bu + 2 * au + 2, bv + 2 * av
    c, h = quadratic_basis(d)
    if 2 * x + h * y + floor_root((h - 2) * y, d) < 0:  # 2 sigma2(k^2 + 4a), never 0
        return False
    return ring_square_root(d, au * au + c * av * av - 4 * bu + 8,
                            (2 * au + h * av) * av - 4 * bv) is None


# --- geometry of numbers -----------------------------------------------------


def lattice_geometry(d: int) -> LatticeGeometry:
    """Field discriminant and twice the longer diagonal of the fundamental
    parallelotope of o_L under x -> (sigma1(x), sigma2(x)), standard basis
    {1, w}."""
    require_square_free(d, 2, "d")
    rt = math.sqrt(d)
    h = quadratic_basis(d)[1]
    # 1 + w and 1 - w as (A, B) with sigma1 = (A + B sqrt(d))/2, sigma2 = (A - B sqrt(d))/2
    diagonals = ((2 + h, 2 - h), (2 - h, h - 2))
    delta = 2.0 * max(math.hypot((A + B * rt) / 2.0, (A - B * rt) / 2.0) for A, B in diagonals)
    return LatticeGeometry(d=d, h=2, disc=_disc(d), delta=delta)


def c2_upper_bound(d: int) -> float:
    """Upper bound 2^(2h+2) (12 + 7 delta + delta^2)^(h-1) / (3 |D_L|) on
    the leading count constant, h = 2, delta from lattice_geometry.

    The standard integral basis is used for delta (not the minimum over all
    fundamental parallelotopes), so the bound is valid but possibly weaker
    than optimal.
    """
    geo = lattice_geometry(d)
    de = geo.delta
    return 2 ** (2 * geo.h + 2) * (12 + 7 * de + de * de) ** (geo.h - 1) / (3 * geo.disc)


def volume_leading(h: int, delta: float, Q: int) -> float:
    """Leading term (48 + 28 delta + 4 delta^2)^(h-1) * (8/3) * Q^(3/2) of
    volume_exact for a degree-h totally real field."""
    return _volume("leading", h, delta, Q, lambda: (8.0 / 3.0) * Q**1.5)


def volume_exact(h: int, delta: float, Q: int) -> float:
    """Volume (48 + 28 delta + 4 delta^2)^(h-1) * ((8/3) M^(3/2) +
    2 delta (M + delta)), M = Q + 3 + delta, of the search region fattened
    by delta for a degree-h totally real field.

    The region is a product over the embeddings, in the plane of the
    images (x, y) of (a, k).  In the identity embedding it is
    -M < x1 < delta, |y1| < sqrt(max(-4 x1, 0)) + delta, so its area is the
    x1 integral of 2 (sqrt(max(-4 x1, 0)) + delta) over (-M, delta):
    4 (2/3) M^(3/2) from the root on (-M, 0) and 2 delta (M + delta) from the
    constant.  In each of the h - 1 other embeddings it is the box
    |x| < 4 + delta, -4 - 1.5 delta < y < 4 + delta, of area
    (8 + 2 delta)(8 + 2.5 delta), with y > (x - 4)/2 - delta.  That line
    meets the bottom edge at x = -4 - delta and the right edge at
    y = -delta/2, so it cuts off a right triangle with legs 8 + 2 delta and
    4 + delta, of area (4 + delta)^2, and the area left is
    64 + 36 delta + 5 delta^2 - (4 + delta)^2 = 48 + 28 delta + 4 delta^2.
    """

    def x1_area() -> float:
        M = Q + 3 + delta
        return (8.0 / 3.0) * M**1.5 + 2 * delta * (M + delta)

    return _volume("exact", h, delta, Q, x1_area)


def _check_volume(h: int, delta: float, Q: int,
                  names: tuple[str, str, str] = ("h", "delta", "Q")) -> None:
    """DomainError unless h and Q are integers >= 1 and delta is finite and
    >= 0; names are how the message calls h, delta and Q."""
    _check_q(h, 1, names[0])
    if not 0 <= delta < math.inf:
        raise DomainError(f"{names[1]} must be finite and >= 0, got {delta}")
    _check_q(Q, 1, names[2])


def _volume(which: str, h: int, delta: float, Q: int, x1_area) -> float:
    """(48 + 28 delta + 4 delta^2)^(h-1) * x1_area() after the checks of h,
    delta and Q, or CapacityError when it overflows a double."""
    _check_volume(h, delta, Q)
    try:
        volume = (48 + 28 * delta + 4 * delta * delta) ** (h - 1) * x1_area()
    except OverflowError:  # a power past the largest double raises; a product is inf
        volume = math.inf
    if volume == math.inf:
        raise CapacityError(f"the {which} volume overflows a double at h={h}, delta={delta}, Q={Q}")
    return volume


def system_csv_row(s: SystemSolution, verified: bool | None = None) -> str:
    """One cocompact CSV line of a solution.  The CLI formats system_rows'
    tuples instead; this stays while salembench/tracer.py wraps it by name."""
    v = "" if verified is None else ("1" if verified else "0")
    return (
        f"{s.a.u},{s.a.v},{s.k.u},{s.k.v},{s.b.u},{s.b.v},{s.branch},{v}"
    )


# A solution's JSON object, as json.dumps(indent=2) writes it in a list
_JSON_OBJECT = ('  {\n    "a_u": "%d",\n    "a_v": "%d",\n    "k_u": "%d",\n    "k_v": "%d",\n'
                '    "b_u": "%d",\n    "b_v": "%d",\n    "branch": "%s",\n    "verified": %s\n  }')
_JSON_VERIFIED = {True: "true", False: "false", None: "null"}


def system_table(d: int, Q: int, verified: bool, json_out: bool,
                 block_rows: int) -> tuple[str, Iterator[str]]:
    """(header, chunks) of the cocompact table: the CSV header under its
    "# field=" line, and the system_rows tuples, at most block_rows to a
    chunk, as CSV lines or (json_out) JSON objects.  A chunk is one % on
    the row template repeated once a row, over the chunk's flat tuples;
    the JSON's verified is the JSON literal of the tuple's bool or None."""
    if json_out:
        row, sep = _JSON_OBJECT, ",\n"
    else:  # verified is a bool under --verified (%d prints 1 or 0), else None (%.0s prints "")
        row, sep = f"%d,%d,%d,%d,%d,%d,%s,{'%d' if verified else '%.0s'}\n", ""
    rows = system_rows(d, Q, verified)

    def chunks() -> Iterator[str]:
        for block in iter(lambda: list(islice(rows, block_rows)), []):
            values = chain.from_iterable(block)
            if json_out:
                values = list(values)
                values[7::8] = [_JSON_VERIFIED[v] for v in values[7::8]]
            yield sep.join([row] * len(block)) % tuple(values)

    return f"# field={d} qmax={Q}\n{SYSTEM_CSV_HEADER}", chunks()
