"""Independent oracles used to pin expected values in the test suite.

Everything here is deliberately built from different machinery than the
package under test: numpy root finding for spectral classification, trial
division for quartic reducibility and square-freeness, the expansion of
q(x) q(-x) for the square-rootability witnesses, row-by-row scans
for the integer censuses that the package counts in closed form, a
whole-disk trace scan with a dedup dict, a sorted quadrant scan and a
binary search of each row for the Bianchi census that the package counts
row by row with a closed-form cut, a heap merge of those rows for the
member stream that the package sorts band by band, the float-seeded walk of the
real-quadratic system that the package decides with exact intervals, the
(a, k-row) pair sum of that system that the package counts over k, and
its numeric and general exact verifiers, where the package reads most
conditions off the branch tag, a Monte Carlo estimate of the search-region
volume that the package gives in closed form, and the per-trace map to the
lambda^(1/2)-quartic that the package applies to whole rows of traces.
The census, cocompact, Bianchi and multiplicity table writers format one
record at a time, with f-strings, dicts and json.dumps, where the package
formats whole blocks from integer rows with one % each.  No module
from salemcensus is imported.
"""

from __future__ import annotations

import cmath
import heapq
import json
import math
import random

import numpy as np


def quartic_roots(a: int | float, b: int | float) -> np.ndarray:
    """Roots of x^4 + a x^3 + b x^2 + a x + 1 via the companion matrix."""
    return np.roots([1.0, float(a), float(b), float(a), 1.0])


def salem_pattern_numeric(a, b, tol: float = 1e-9) -> bool:
    """Root-pattern test: one real root > 1, its reciprocal in (0, 1), and a
    non-real pair on the unit circle (all up to ``tol``)."""
    roots = sorted(quartic_roots(a, b), key=lambda z: abs(z.imag))
    real, cplx = roots[:2], roots[2:]
    if any(abs(z.imag) > 1e-8 * max(1.0, abs(z.real)) for z in real):
        return False
    if any(abs(z.imag) <= tol for z in cplx):
        return False
    lam = max(z.real for z in real)
    mu = min(z.real for z in real)
    if not (lam > 1.0 + tol and tol < mu < 1.0 - tol):
        return False
    return all(abs(abs(z) - 1.0) <= 1e-7 for z in cplx)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    f = 1
    while f * f <= n:
        if n % f == 0:
            out.extend((f, n // f))
        f += 1
    return sorted(set(out))


def quartic_reducible_bruteforce(a: int, b: int) -> bool:
    """Decide reducibility of x^4 + a x^3 + b x^2 + a x + 1 over Q by trial
    division.

    Any rational root is +-1 (monic, constant term 1).  A quadratic split is
    monic with constant terms c, c' where c c' = 1, so c = c' = +-1.  For
    c = 1 the factors are (x^2+s*x+1)(x^2+t*x+1) with s+t = a, s*t = b-2;
    for c = -1 palindromicity forces a = 0 and b = -(s^2+2).
    """
    if 2 + 2 * a + b == 0 or 2 - 2 * a + b == 0:  # p(1) or p(-1) vanishes
        return True
    if b == 2:  # (x^2+1)(x^2+ax+1)
        return True
    for s in _divisors(b - 2):
        for cand in (s, -s):
            if cand * (a - cand) == b - 2:
                return True
    if a == 0:
        s = 0
        while s * s <= -b - 2 if b <= -2 else False:
            if s * s == -b - 2:
                return True
            s += 1
    return False


def is_salem_oracle(a: int, b: int) -> bool:
    """Full oracle: irreducible over Q and Salem root pattern."""
    return (not quartic_reducible_bruteforce(a, b)) and salem_pattern_numeric(a, b)


def salem_root_numeric(a, b) -> float:
    """Largest real root of the quartic (the Salem number when Salem)."""
    return max(z.real for z in quartic_roots(a, b))


def quartic_at(a: int, b: int, x):
    """p(x) = x^4 + a x^3 + b x^2 + a x + 1.  For a Salem quartic and an
    integer Q >= 2, lambda <= Q iff p(Q) >= 0: the unit-circle factor of p
    is positive on the reals, so p(Q) has the sign of Q - lambda."""
    return x**4 + a * x**3 + b * x * x + a * x + 1


def at_minus_one(a: int, b: int) -> int:
    """p(-1) = 2 + b - 2a, a perfect square exactly when p is the lift of a
    lambda^(1/2)-quartic (see sqrt_witnesses)."""
    return 2 + b - 2 * a


def sqrt_witnesses(a: int, b: int):
    """The two branch witnesses (k, d_coeff, alpha) of a square-rootable
    quartic p = (a, b), q(x) q(-x) = p(x^2) with q(x) = x^4 +
    sqrt(alpha) x^3 + d_coeff x^2 + sqrt(alpha) x + 1: k is the positive
    root of p(-1) = 2 + b - 2a, and the branches are (k, 2 + k, 4 - a + 2k)
    and (k, 2 - k, 4 - a - 2k).  None when p(-1) is not a positive square."""
    p1 = 2 + b - 2 * a
    k = math.isqrt(max(p1, 0))
    if k == 0 or k * k != p1:
        return None
    return (k, 2 + k, 4 - a + 2 * k), (k, 2 - k, 4 - a - 2 * k)


def verify_sqrt_factor(a: int, b: int, d_coeff: int, alpha: int) -> bool:
    """Expand q(x) q(-x) for q(x) = x^4 + sqrt(alpha) x^3 + d_coeff x^2 +
    sqrt(alpha) x + 1 and compare it with p(x^2), p = (a, b).  Coefficients
    live in Z + Z sqrt(alpha) as integer pairs (r, s), r + s sqrt(alpha),
    with (r1, s1)(r2, s2) = (r1 r2 + alpha s1 s2, r1 s2 + s1 r2)."""
    q = [(1, 0), (0, 1), (d_coeff, 0), (0, 1), (1, 0)]      # x^4 .. x^0
    qm = [(1, 0), (0, -1), (d_coeff, 0), (0, -1), (1, 0)]    # q(-x)
    prod = [(0, 0)] * 9
    for i, (r1, s1) in enumerate(q):
        for j, (r2, s2) in enumerate(qm):
            r, s = prod[i + j]
            prod[i + j] = (r + r1 * r2 + alpha * s1 * s2, s + r1 * s2 + s1 * r2)
    return prod == [(1, 0), (0, 0), (a, 0), (0, 0), (b, 0), (0, 0), (a, 0), (0, 0), (1, 0)]


def root_margin(a: int, b: int) -> float:
    """Distance of the numeric root configuration from the classification
    margins: closeness of any root to the unit circle from the wrong side,
    of the real roots to +-1, and of root pairs to collision."""
    roots = quartic_roots(a, b)
    m = math.inf
    for z in roots:
        m = min(m, abs(abs(z) - 1.0) if abs(z.imag) > 1e-8 else
                min(abs(z.real - 1.0), abs(z.real + 1.0)))
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            m = min(m, abs(roots[i] - roots[j]))
    return m


def eigenvalue_from_trace(t: complex) -> complex:
    """Eigenvalue mu with |mu| >= 1 of a 2x2 unimodular matrix of trace t,
    i.e. the larger root of z^2 - t z + 1."""
    disc = cmath.sqrt(t * t - 4.0)
    mu1 = (t + disc) / 2.0
    mu2 = (t - disc) / 2.0
    return mu1 if abs(mu1) >= abs(mu2) else mu2


def sqrt_lambda_from_trace(t: complex) -> float:
    """lambda^(1/2) = |mu|^2 for the eigenvalue mu attached to trace t."""
    mu = eigenvalue_from_trace(t)
    return abs(mu) ** 2


def omega_direct(m: int):
    """Direct evaluation of 2^(m(m+1))/(m+1) * prod k!^2/(2k+1)! as a Fraction."""
    from fractions import Fraction

    val = Fraction(2 ** (m * (m + 1)), m + 1)
    for k in range(m):
        val *= Fraction(math.factorial(k) ** 2, math.factorial(2 * k + 1))
    return val


def multiplicity_csv_row(row) -> str:
    """One report multiplicity CSV line as the CLI once wrote it from a
    MultiplicityRow, one f-string a row; its JSON object was json.dumps of
    row._asdict()."""
    return (f"{row.ell:.5e},{row.geodesic_count:.5e},"
            f"{row.salem_bound:.5e},{row.mean_mult_lower:.5e}")


# --- row-by-row census counts -------------------------------------------------
#
# Scan 0 < -a < Q+3 one row at a time: the window in b (or k) is cut from
# below by the exact lambda <= Q test p(Q) >= 0, and reducible points are
# dropped by their perfect-square discriminant.  O(Q) for the degree-4 and
# degree-2 counts, O(Q^1.5) for the square-rootable one.


def count_salem_deg4_loop(Q: int) -> int:
    """Degree-4 Salem numbers <= Q: per row, the b-window length less the
    squares s^2 of the parity of a in the discriminant range."""
    total = 0
    for na in range(1, Q + 3):
        b_hi = 2 * na - 3
        b_lo = max(-2 * na - 1, -((Q**4 - na * Q**3 - na * Q + 1) // (Q * Q)))
        if b_lo > b_hi:
            continue
        total += b_hi - b_lo + 1
        dmin = na * na - 4 * b_hi + 8
        dmax = na * na - 4 * b_lo + 8
        s_lo = math.isqrt(dmin - 1) + 1 if dmin > 0 else 0
        s_hi = math.isqrt(dmax)
        if s_lo % 2 != na % 2:
            s_lo += 1
        if s_lo <= s_hi:
            total -= (s_hi - s_lo) // 2 + 1
    return total


def count_sr_loop(Q: int) -> int:
    """Square-rootable degree-4 Salem numbers <= Q: every (a, k) with
    b = k^2 + 2a - 2, 0 < k^2 < -4a and p(Q) >= 0, less the reducible."""
    Q2 = Q * Q
    total = 0
    for na in range(1, Q + 3):
        kmax = math.isqrt(4 * na - 1)
        m = (-Q2 + na * Q + 2 * na + 2) + (na * Q - 1 + Q2 - 1) // Q2
        klo = 1 if m <= 1 else math.isqrt(m - 1) + 1
        A2 = (na + 4) ** 2
        for k in range(klo, kmax + 1):
            disc = A2 - 4 * k * k
            r = math.isqrt(disc)
            if r * r != disc:
                total += 1
    return total


def enumerate_sr_filter(Q: int) -> list[tuple[int, int, int]]:
    """(a, b, k) of the square-rootable census in row order: the scan of
    count_sr_loop, each reducible candidate dropped by an integer square
    root of its discriminant."""
    Q2 = Q * Q
    out = []
    for na in range(1, Q + 3):
        kmax = math.isqrt(4 * na - 1)
        m = (-Q2 + na * Q + 2 * na + 2) + (na * Q - 1 + Q2 - 1) // Q2
        klo = 1 if m <= 1 else math.isqrt(m - 1) + 1
        A2 = (na + 4) ** 2
        for k in range(klo, kmax + 1):
            disc = A2 - 4 * k * k  # = a^2 - 4b + 8 at b = k^2 + 2a - 2
            r = math.isqrt(disc)
            if r * r != disc:
                out.append((-na, k * k - 2 * na - 2, k))
    return out


def enumerate_deg4_filter(Q: int) -> list[tuple[int, int, int | None]]:
    """(a, b, k) of the degree-4 census in row order: each b of the window
    raised to the lambda floor, dropped when a^2 - 4b + 8 is a perfect
    square; k is the root of a square p(-1) = 2 + b - 2a, else None."""
    out = []
    for na in range(1, Q + 3):
        b_lo = max(-2 * na - 1, -((Q**4 - na * Q**3 - na * Q + 1) // (Q * Q)))
        for b in range(b_lo, 2 * na - 2):
            disc = na * na - 4 * b + 8
            r = math.isqrt(disc)
            if r * r == disc:
                continue
            p1 = 2 + b + 2 * na
            k = math.isqrt(p1)
            out.append((-na, b, k if k * k == p1 else None))
    return out


def census_record_texts(records, fmt: str) -> list[str]:
    """Each census record as the CLI once wrote it, one call per record: the
    census_csv_row line, or the record's object in an indent-2 JSON list
    (its block encoded by json.JSONEncoder, the list brackets dropped)."""
    if fmt == "csv":
        return [f"{r.a},{r.b},{'' if r.k is None else r.k},{r.lambda_approx:.12g},{r.source}"
                for r in records]
    encode = json.JSONEncoder(indent=2).encode
    return [encode([{"a": str(r.a), "b": str(r.b), "k": None if r.k is None else str(r.k),
                     "lambda": r.lambda_approx, "source": r.source}])[2:-2] for r in records]


def census_table(texts: list[str], fmt: str, header: str = "a,b,k,lambda,source") -> str:
    """The table of census_record_texts or system_record_texts: the CSV
    header and lines, or the JSON list framed as json.dumps frames it ("[]"
    when empty)."""
    if fmt == "csv":
        return "\n".join([header, *texts]) + "\n"
    return "[\n" + ",\n".join(texts) + "\n]\n" if texts else "[]\n"


def count_deg2_loop(Q: int) -> int:
    """Degree-2 Salem numbers <= Q: x^2 + ax + 1 with -a >= 3 (irreducible,
    root > 1) and lambda <= Q, i.e. Q^2 + aQ + 1 >= 0."""
    return sum(1 for na in range(3, Q + 1) if Q * Q - na * Q + 1 >= 0)


def box_sums(Q: int) -> tuple[int, int]:
    """(S_sr, S_deg4): sizes of the (a, k) and (a, b) scan boxes before the
    exact lambda cut and the reducibility filter, summed row by row.  Row
    j = -a, 1 <= j <= Q + 2, holds the k with 0 < k^2 < 4j and the b with
    2a < 2 + b < -2a, isqrt(4j - 1) and 4j - 1 of them.  Both over-count
    the censuses."""
    rows = range(1, Q + 3)
    return sum(math.isqrt(4 * j - 1) for j in rows), sum(4 * j - 1 for j in rows)


def is_square_free_trial(n: int) -> bool:
    """n >= 1 with no prime square dividing it, by trial division up to
    sqrt(n)."""
    if n < 1:
        return False
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        while n % f == 0:
            n //= f
        f += 1
    return True


# --- real quadratic field o_L, L = Q(sqrt(d)), in coordinates -----------------
#
# x = (u, v) stands for u + v w, w = sqrt(d) for d = 2, 3 (mod 4) and
# w = (1 + sqrt(d))/2 for d = 1 (mod 4).  Below: the float-seeded system walk
# and the numeric Salem-over-L verifier (np.roots with tolerances) that the
# package replaced by exact integer intervals and sign tests, and the general
# exact verifier that it replaced by the branch tag, one sign and one root.


def _mul(d: int, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    (u1, v1), (u2, v2) = x, y
    if d % 4 == 1:
        c = (d - 1) // 4  # w^2 = w + c
        return u1 * u2 + v1 * v2 * c, u1 * v2 + u2 * v1 + v1 * v2
    return u1 * u2 + d * v1 * v2, u1 * v2 + u2 * v1


def _embeddings(d: int, x: tuple[int, int]) -> tuple[float, float]:
    u, v = x
    rt = math.sqrt(d)
    if d % 4 == 1:
        return u + v * (1 + rt) / 2, u + v * (1 - rt) / 2
    return u + v * rt, u - v * rt


def _sign_plus_root(A: int, B: int, d: int) -> int:
    """Exact sign of A + B sqrt(d), d not a square."""
    if B == 0:
        return (A > 0) - (A < 0)
    if A == 0 or (A > 0) == (B > 0):
        return 1 if B > 0 else -1
    bigger_a = A * A > B * B * d
    return (1 if A > 0 else -1) if bigger_a else (1 if B > 0 else -1)


def _sigma_signs(d: int, x: tuple[int, int]) -> tuple[int, int]:
    u, v = x
    A, B = (2 * u + v, v) if d % 4 == 1 else (2 * u, 2 * v)
    return _sign_plus_root(A, B, d), _sign_plus_root(A, -B, d)


def ring_square_root_float(d: int, x: tuple[int, int]) -> tuple[int, int] | None:
    """A square root of x in o_L or None: rounded from the float square
    roots of the embeddings, with +-1 corrections, confirmed by squaring."""
    if x == (0, 0):
        return 0, 0
    if min(_sigma_signs(d, x)) < 0:
        return None
    s1, s2 = _embeddings(d, x)
    t1, sd = math.sqrt(max(s1, 0.0)), math.sqrt(d)
    for t2 in (math.sqrt(max(s2, 0.0)), -math.sqrt(max(s2, 0.0))):
        if d % 4 == 1:
            v = (t1 - t2) / sd
            u = (t1 + t2 - v) / 2.0
        else:
            v = (t1 - t2) / (2.0 * sd)
            u = (t1 + t2) / 2.0
        for du in (0, -1, 1):
            for dv in (0, -1, 1):
                c = (round(u) + du, round(v) + dv)
                if _mul(d, c, c) == x:
                    return c
    return None


def ring_square_root_bruteforce(d: int, x: tuple[int, int]) -> tuple[int, int] | None:
    """A square root (s, t) of x in o_L or None, trying every t: with
    y = s + t w, y^2 has u-coordinate s^2 + t^2 (d or (d-1)/4), so
    |t| <= sqrt(u / (d or (d-1)/4))."""
    u, _ = x
    if u < 0:
        return None
    c = (d - 1) // 4 if d % 4 == 1 else d
    tmax = math.isqrt(u // c)
    for t in range(-tmax, tmax + 1):
        s = math.isqrt(u - c * t * t)
        for cand in ((s, t), (-s, t)):
            if _mul(d, cand, cand) == x:
                return cand
    return None


def verify_salem_over_L_numeric(d: int, a: tuple[int, int], k: tuple[int, int]) -> bool:
    """Salem-over-L test of the system solution (a, k), b = k^2 + 2a - 2:
    root patterns of both embedded quartics by np.roots with a 1e-9
    tolerance, total positivity of 4 - a +- 2k by exact signs, and
    irreducibility by ring_square_root_float of the discriminant of
    y^2 + a y + (b - 2)."""
    tol = 1e-9
    kk = _mul(d, k, k)
    b = (kk[0] + 2 * a[0] - 2, kk[1] + 2 * a[1])
    (s1a, s2a), (s1b, s2b) = _embeddings(d, a), _embeddings(d, b)
    roots = np.roots([1.0, s1a, s1b, s1a, 1.0])
    real = [z.real for z in roots if abs(z.imag) <= tol * max(1.0, abs(z.real))]
    cplx = [z for z in roots if abs(z.imag) > tol * max(1.0, abs(z.real))]
    if len(real) != 2 or len(cplx) != 2:
        return False
    lam, rec = max(real), min(real)
    if not (lam > 1.0 + tol and abs(rec - 1.0 / lam) <= tol):
        return False
    if not all(abs(abs(z) - 1.0) <= tol for z in cplx):
        return False
    conj = np.roots([1.0, s2a, s2b, s2a, 1.0])
    if not np.all(np.abs(np.abs(conj) - 1.0) <= tol):
        return False
    if not any(min(_sigma_signs(d, (4 - a[0] + 2 * e * k[0], -a[1] + 2 * e * k[1]))) > 0
               for e in (1, -1)):
        return False
    aa = _mul(d, a, a)
    disc = (aa[0] - 4 * b[0] + 8, aa[1] - 4 * b[1])
    return ring_square_root_float(d, disc) is None


def verify_salem_over_L_exact(d: int, a: tuple[int, int], k: tuple[int, int]) -> bool:
    """Salem-over-L test of any (a, k), b = k^2 + 2a - 2, by the general
    exact tests: (i) sigma1(r(2)) < 0 < sigma1(r(-2)) for
    r(y) = y^2 + a y + (b - 2); (ii) sigma2 of r(2), disc = a^2 - 4b + 8,
    r(-2), 4 - a and 4 + a all >= 0; (iii) 4 - a + 2k or 4 - a - 2k
    totally positive; (iv) disc not a square in o_L, by
    ring_square_root_bruteforce.  It trusts no branch tag, so it decides
    pairs that are not system solutions too."""
    kk = _mul(d, k, k)
    b = (kk[0] + 2 * a[0] - 2, kk[1] + 2 * a[1])
    r_at_2 = (b[0] + 2 + 2 * a[0], b[1] + 2 * a[1])
    r_at_minus_2 = (b[0] + 2 - 2 * a[0], b[1] - 2 * a[1])
    aa = _mul(d, a, a)
    disc = (aa[0] - 4 * b[0] + 8, aa[1] - 4 * b[1])
    if not _sigma_signs(d, r_at_2)[0] < 0 < _sigma_signs(d, r_at_minus_2)[0]:
        return False
    if any(_sigma_signs(d, x)[1] < 0
           for x in (r_at_2, disc, r_at_minus_2, (4 - a[0], -a[1]), (4 + a[0], a[1]))):
        return False
    if not any(min(_sigma_signs(d, (4 - a[0] + 2 * e * k[0], -a[1] + 2 * e * k[1]))) > 0
               for e in (1, -1)):
        return False
    return ring_square_root_bruteforce(d, disc) is None


def _floor_root_mult(B: int, d: int) -> int:
    if B == 0:
        return 0
    if B > 0:
        return math.isqrt(B * B * d)
    return -math.isqrt(B * B * d) - 1


def _min_gt(A: int, B: int, d: int) -> int:
    return A + _floor_root_mult(B, d) + 1


def _max_lt(A: int, B: int, d: int) -> int:
    return A - 1 if B == 0 else A + _floor_root_mult(B, d)


def _sigma1_sign_k2_plus_4a(d: int, au: int, av: int, ku: int, kv: int) -> int:
    kk = _mul(d, (ku, kv), (ku, kv))
    return _sigma_signs(d, (kk[0] + 4 * au, kk[1] + 4 * av))[0]


def _branch_tag(d: int, au: int, av: int, ku: int, kv: int) -> str:
    plus = _sigma_signs(d, (2 * ku - au + 4, 2 * kv - av))[1] > 0
    minus = _sigma_signs(d, (2 * ku + au - 4, 2 * kv + av))[1] < 0
    return "both" if plus and minus else "plus" if plus else "minus"


def _system_a_coords(d: int, Q: int):
    """a with -(Q+3) < sigma1(a) < 0, |sigma2(a)| < 4, v-range seeded by floats."""
    half = d % 4 == 1
    sd = math.sqrt(d)
    spread = (Q + 7) / sd if half else (Q + 7) / (2 * sd)
    up = 8 / sd if half else 4 / (2 * sd)
    for v in range(-int(spread) - 2, int(up) + 3):
        if half:
            w_lo = max(_min_gt(-2 * (Q + 3), -v, d), _min_gt(-8, v, d))
            w_hi = min(_max_lt(0, -v, d), _max_lt(8, v, d))
            if (w_lo - v) % 2:
                w_lo += 1
            for w in range(w_lo, w_hi + 1, 2):
                yield (w - v) // 2, v
        else:
            u_lo = max(_min_gt(-(Q + 3), -v, d), _min_gt(-4, v, d))
            u_hi = min(_max_lt(0, -v, d), _max_lt(4, v, d))
            for u in range(u_lo, u_hi + 1):
                yield u, v


def _k_walk(d: int, au: int, av: int):
    """k of a fixed a, walked one candidate at a time from a float bound,
    each passed by an exact sign test of sigma1(k^2 + 4a)."""
    half = d % 4 == 1
    sd = math.sqrt(d)
    s1a = (2 * au + av + av * sd) / 2.0 if half else au + av * sd
    root_t = math.sqrt(-4.0 * s1a)
    v_lo = int(-4 / sd) - 2 if half else int(-4 / (2 * sd)) - 2
    v_hi = int((root_t + 4) / sd) + 3 if half else int((root_t + 4) / (2 * sd)) + 3
    for v in range(v_lo, v_hi):
        if half:
            w_lo = max(_min_gt(0, -v, d), _min_gt(-8, v, d))
            w_hi = min(_max_lt(8, v, d), int(2 * root_t - v * sd) + 2)
            if (w_lo - v) % 2:
                w_lo += 1
            us = ((w - v) // 2 for w in range(w_lo, w_hi + 1, 2))
        else:
            u_lo = max(_min_gt(0, -v, d), _min_gt(-4, v, d))
            us = range(u_lo, min(_max_lt(4, v, d), int(root_t - v * sd) + 2) + 1)
        for u in us:
            if _sigma1_sign_k2_plus_4a(d, au, av, u, v) >= 0:
                break  # increases with u on sigma1(k) > 0
            yield u, v


def enumerate_system_walk(d: int, Q: int) -> list[tuple[int, int, int, int, str]]:
    """(a_u, a_v, k_u, k_v, branch) of every system solution, in the order
    of the package's enumerate_system."""
    return [(au, av, ku, kv, _branch_tag(d, au, av, ku, kv))
            for au, av in _system_a_coords(d, Q) for ku, kv in _k_walk(d, au, av)]


def count_system_walk(d: int, Q: int) -> int:
    """Number of system solutions: per a and v, the largest k from a float
    seed fixed up by exact sign tests in both directions."""
    half = d % 4 == 1
    sd = math.sqrt(d)
    total = 0
    for au, av in _system_a_coords(d, Q):
        s1a = (2 * au + av + av * sd) / 2.0 if half else au + av * sd
        root_t = math.sqrt(-4.0 * s1a)
        v_lo = int(-4 / sd) - 2 if half else int(-4 / (2 * sd)) - 2
        v_hi = int((root_t + 4) / sd) + 3 if half else int((root_t + 4) / (2 * sd)) + 3
        for v in range(v_lo, v_hi):
            if half:
                w_lo = max(_min_gt(0, -v, d), _min_gt(-8, v, d))
                if (w_lo - v) % 2:
                    w_lo += 1
                w_top = _max_lt(8, v, d)
                w_top -= (w_top - v) % 2
                if w_top < w_lo:
                    continue
                w = int(2 * root_t - v * sd) + 3
                w -= (w - v) % 2
                w = min(w, w_top)
                while w >= w_lo and _sigma1_sign_k2_plus_4a(d, au, av, (w - v) // 2, v) >= 0:
                    w -= 2
                while w + 2 <= w_top and _sigma1_sign_k2_plus_4a(
                        d, au, av, (w + 2 - v) // 2, v) < 0:
                    w += 2
                if w >= w_lo:
                    total += (w - w_lo) // 2 + 1
            else:
                u_lo = max(_min_gt(0, -v, d), _min_gt(-4, v, d))
                u_top = _max_lt(4, v, d)
                if u_lo > u_top:
                    continue
                u = min(int(root_t - v * sd) + 2, u_top)
                while u >= u_lo and _sigma1_sign_k2_plus_4a(d, au, av, u, v) >= 0:
                    u -= 1
                while u + 1 <= u_top and _sigma1_sign_k2_plus_4a(d, au, av, u + 1, v) < 0:
                    u += 1
                if u >= u_lo:
                    total += u - u_lo + 1
    return total


def count_system_pairs(d: int, Q: int) -> int:
    """Number of system solutions, summed over the (a, k-row) pairs in
    doubled coordinates (A, B) of a and (W, V) of k: per a, each v-row of k
    is one exact W-interval, cut by one integer square root and at most one
    exact sign test of sigma1(k^2 + 4a).  O(#a * Q^(1/2)) pairs."""
    half = d % 4 == 1
    disc = d if half else 4 * d
    top = math.isqrt(16 * (Q + 3))
    rows = []  # (V, floor(V sqrt d), lo, hi): 0 < sigma1(k), |sigma2(k)| < 4
    v = -math.isqrt(15 // disc)
    while True:
        V = v if half else 2 * v
        fv = _floor_root_mult(V, d)
        if 2 * fv - 8 > top:
            break
        on_axis = int(V == 0)
        lo, hi = max(on_axis - fv, fv - 7), fv + 8 - on_axis
        lo += (lo - V) % 2
        hi -= (hi - V) % 2
        if lo <= hi:
            rows.append((V, fv, lo, hi))
        v += 1
    total = 0
    for v in range(-math.isqrt(((Q + 7) ** 2 - 1) // disc), math.isqrt(15 // disc) + 1):
        B = v if half else 2 * v
        a_lo = max(_min_gt(-2 * (Q + 3), -B, d), _min_gt(-8, B, d))
        a_hi = min(_max_lt(0, -B, d), _max_lt(8, B, d))
        for A in range(a_lo + (a_lo - B) % 2, a_hi + 1, 2):
            f2r = math.isqrt(_floor_root_mult(-8 * B, d) - 8 * A)  # floor(2 sqrt(-2 sigma1(a)))
            for V, fv, lo, hi in rows:
                if 2 * fv - 8 > f2r:
                    break
                c = f2r - fv  # the largest W with sigma1(k)^2 < -4 sigma1(a) is c, c-1 or c-2
                if (c - V) % 2:
                    c -= 1
                elif c <= hi and _sign_plus_root(c * c + V * V * d + 8 * A,
                                                  2 * c * V + 8 * B, d) >= 0:
                    c -= 2
                if lo <= min(hi, c):
                    total += (min(hi, c) - lo) // 2 + 1
    return total


def system_csv_row(a, k, b, branch: str, verified: bool | None = None) -> str:
    """One cocompact CSV line as the CLI once wrote it from a solution."""
    v = "" if verified is None else ("1" if verified else "0")
    return f"{a[0]},{a[1]},{k[0]},{k[1]},{b[0]},{b[1]},{branch},{v}"


def system_record_texts(d: int, solutions, verified, fmt: str) -> list[str]:
    """Each (a_u, a_v, k_u, k_v, branch) of enumerate_system_walk as the CLI
    once wrote it, one call per solution, with b = k^2 + 2a - 2 by _mul and
    verified[i] (None without --verified): the system_csv_row line, or the
    solution's object in an indent-2 JSON list (as census_record_texts)."""
    encode = json.JSONEncoder(indent=2).encode
    texts = []
    for (au, av, ku, kv, branch), ok in zip(solutions, verified or [None] * len(solutions)):
        kk = _mul(d, (ku, kv), (ku, kv))
        b = (kk[0] + 2 * au - 2, kk[1] + 2 * av)
        if fmt == "csv":
            texts.append(system_csv_row((au, av), (ku, kv), b, branch, ok))
        else:
            texts.append(encode([{"a_u": str(au), "a_v": str(av), "k_u": str(ku),
                                  "k_v": str(kv), "b_u": str(b[0]), "b_v": str(b[1]),
                                  "branch": branch, "verified": ok}])[2:-2])
    return texts


def system_qmin(d: int, a: tuple[int, int]) -> int:
    """Least Q >= 2 whose system admits a, i.e. with sigma1(a) > -(Q+3),
    for a with sigma1(a) < 0."""
    u, v = a
    A, B = (2 * u + v, v) if d % 4 == 1 else (2 * u, 2 * v)
    # Q + 3 > x = -sigma1(a) = (-A - B sqrt d)/2 iff Q + 3 > floor(x)
    return max(2, (-A + _floor_root_mult(-B, d)) // 2 - 2)


# --- the trace ring o_K, K = Q(sqrt(-D)), in coordinates ---------------------
#
# t = (u, v) stands for u + v w, w = sqrt(-D) for D = 1, 2 (mod 4) and
# w = (1 + sqrt(-D))/2 for D = 3 (mod 4).  Below: the per-trace map to the
# lambda^(1/2)-quartic that the package replaced by whole rows of traces.


def trace_complex(D: int, u: int, v: int) -> complex:
    """t as a complex number, at double precision."""
    rt = math.sqrt(D)
    return complex(u + v / 2, v * rt / 2) if D % 4 == 3 else complex(u, v * rt)


def trace_conjugate(D: int, u: int, v: int) -> tuple[int, int]:
    """The coordinates of conj(t): conj(w) = 1 - w when D = 3 (mod 4)."""
    return (u + v, -v) if D % 4 == 3 else (u, -v)


def trace_norm(D: int, u: int, v: int) -> int:
    """N(t) = t conj(t)."""
    return u * u + u * v + (D + 1) // 4 * v * v if D % 4 == 3 else u * u + D * v * v


def trace_sq(D: int, u: int, v: int) -> int:
    """Tr(t^2) = t^2 + conj(t)^2."""
    return 2 * (u * u + u * v) - (D - 1) // 2 * v * v if D % 4 == 3 else 2 * (u * u - D * v * v)


def marklof_constant_branch(D: int) -> float:
    """marklof_constant as two branches on D mod 4: pi / (2 sqrt(D)) for
    D = 3 (mod 4), else pi / (4 sqrt(D))."""
    if D % 4 == 3:
        return math.pi / (2.0 * math.sqrt(D))
    return math.pi / (4.0 * math.sqrt(D))


def lattice_delta_branch(d: int) -> float:
    """lattice_geometry(d).delta with its diagonals 1 + w and 1 - w chosen by
    a branch on d mod 4."""
    rt = math.sqrt(d)
    diagonals = ((3, 1), (1, -1)) if d % 4 == 1 else ((2, 2), (2, -2))
    return 2.0 * max(math.hypot((A + B * rt) / 2.0, (A - B * rt) / 2.0) for A, B in diagonals)


def square_free_sample(minimum: int, seed: int) -> list[int]:
    """Every square-free n in [minimum, 2e5), by a sieve of the squares,
    then 40 seeded random square-free n up to 1e18, each a product of 2 to
    4 distinct primes below 1e5."""
    top = 2 * 10**5
    free, prime = [True] * top, [True] * top
    for f in range(2, math.isqrt(top) + 1):
        free[f * f::f * f] = [False] * len(range(f * f, top, f * f))
        if prime[f]:
            prime[f * f::f] = [False] * len(range(f * f, top, f))
    primes = [p for p in range(2, 10**5) if prime[p]]
    rng = random.Random(seed)
    big = []
    while len(big) < 40:
        n = math.prod(rng.sample(primes, rng.randint(2, 4)))
        if n <= 10**18:
            big.append(n)
    return [n for n in range(minimum, top) if free[n]] + big


def trace_quartic(D: int, u: int, v: int) -> tuple[int, int] | None:
    """(A, B) = (-N(t), Tr(t^2) - 2), the lambda^(1/2)-quartic of the trace
    t, or None when t gives no degree-4 Salem number: t real (v = 0), on the
    imaginary axis (2 Re(t) = 0), or N^2 - 4 Tr(t^2) + 16 a square."""
    if v == 0 or (2 * u + v if D % 4 == 3 else u) == 0:
        return None
    n, tr2 = trace_norm(D, u, v), trace_sq(D, u, v)
    disc = n * n - 4 * tr2 + 16
    if math.isqrt(disc) ** 2 == disc:
        return None
    return -n, tr2 - 2


# --- the volume of the fattened search region --------------------------------


def volume_monte_carlo(h: int, delta: float, Q: int, samples: int = 1_000_000,
                       seed: int = 0) -> float:
    """Monte Carlo estimate of the volume of the search region fattened by
    delta for a degree-h totally real field, which the package computes in
    closed form; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    x1_lo, x1_hi = -(Q + 3 + delta), delta
    y1_max = math.sqrt(4 * (Q + 3 + delta)) + delta
    xi_half = 4 + delta
    yi_lo, yi_hi = -4 - 1.5 * delta, 4 + delta
    box = (x1_hi - x1_lo) * (2 * y1_max) * ((2 * xi_half) * (yi_hi - yi_lo)) ** (h - 1)
    hits = 0
    left = samples
    while left > 0:
        n = min(left, 1_000_000)
        left -= n
        x1 = rng.uniform(x1_lo, x1_hi, n)
        y1 = rng.uniform(-y1_max, y1_max, n)
        ok = np.abs(y1) < np.sqrt(np.maximum(-4.0 * x1, 0.0)) + delta
        for _ in range(h - 1):
            xi = rng.uniform(-xi_half, xi_half, n)
            yi = rng.uniform(yi_lo, yi_hi, n)
            ok &= yi > (xi - 4.0) / 2.0 - delta
        hits += int(np.count_nonzero(ok))
    return box * hits / samples


# --- the Bianchi JSON object of a member -------------------------------------


def bianchi_json_obj(D: int, m: tuple[int, int, int, int]) -> dict:
    """The JSON object of a member (A, B, w, v) of the Bianchi census as
    the CLI once built it, one dict a member: its key, its lift
    (2B - A^2, B^2 - 2A^2 + 2), k = |B - 2|, lambda by the float steps of
    the package's salem_value, and the traces t = u + v w of its sign orbit
    (+-w, +-v) as witnesses, where 2 Re(t) = 2u + v (D = 3 mod 4) or 2u."""
    A, B, w, v = m
    half = D % 4 == 3
    a, b = 2 * B - A * A, B * B - 2 * A * A + 2
    y = (-a + math.sqrt(a * a - 4 * b + 8)) / 2.0
    return {
        "A": str(A),
        "B": str(B),
        "a_lift": str(a),
        "b_lift": str(b),
        "k": str(abs(B - 2)),
        "lambda": (y + math.sqrt(y * y - 4.0)) / 2.0,
        "witnesses": [[(sw * w - half * sv * v) // 2, sv * v]
                      for sv in (-1, 1) for sw in (-1, 1)],
    }


# --- Bianchi census by a scan of the whole disk ------------------------------


def bianchi_census_dict(D: int, Q: int):
    """(members, tallies) of the Bianchi census from every trace
    t = u + v w with N(t) <= isqrt(Q) + 3, deduplicated in a dict on
    (A, B) = (-N(t), Tr(t^2) - 2) that keeps the witnesses (u, v) in scan
    order (v, then u ascending).  members is [(A, B, witnesses)] in key
    order after the exact lambda <= Q cut on the lifted quartic; tallies is
    (traces_scanned, excluded_real, excluded_imag_axis, excluded_reducible,
    excluded_over_q)."""
    R = math.isqrt(Q) + 3
    half = D % 4 == 3
    vmax = math.isqrt(4 * R // D) if half else math.isqrt(R // D)
    found: dict[tuple[int, int], list[tuple[int, int]]] = {}
    scanned = real = imag_axis = reducible = 0
    for v in range(-vmax, vmax + 1):
        if half:
            wmax = math.isqrt(4 * R - D * v * v)
            u_range = range((-wmax - v + 1) // 2, (wmax - v) // 2 + 1)
        else:
            umax = math.isqrt(R - D * v * v)
            u_range = range(-umax, umax + 1)
        for u in u_range:
            scanned += 1
            w = 2 * u + v if half else 2 * u
            if v == 0:
                real += 1
                continue
            if w == 0:
                imag_axis += 1
                continue
            key = trace_quartic(D, u, v)
            if key is None:
                reducible += 1
                continue
            found.setdefault(key, []).append((u, v))
    members = []
    over_q = 0
    for (A, B) in sorted(found):
        a, b = 2 * B - A * A, B * B - 2 * A * A + 2
        if Q**4 + a * Q**3 + b * Q * Q + a * Q + 1 < 0:
            over_q += 1
            continue
        members.append((A, B, found[(A, B)]))
    return members, (scanned, real, imag_axis, reducible, over_q)


# --- Bianchi census by a scan of the quadrant w, v > 0 -----------------------


def bianchi_census_scan(D: int, Q: int):
    """(members, tallies) of the Bianchi census, in the format of
    bianchi_census_dict, from every trace of the quadrant w = 2 Re(t) > 0,
    v >= 1 with N(t) <= isqrt(Q) + 3: each trace that is not reducible is
    one sign orbit (+-w, +-v), so the rows are sorted on (A, B), cut by the
    exact lambda <= Q test on the lifted quartic, and given the four
    traces of the orbit as witnesses.  The axes are tallied in closed
    form, and the quadrant's scanned and reducible traces count four
    times, once for each sign."""
    R = math.isqrt(Q) + 3
    half = D % 4 == 3
    E = D if half else 4 * D
    rows = []
    scanned = reducible = 0
    for v in range(1, math.isqrt(4 * R // E) + 1):
        Ev2 = E * v * v
        # w = 2u + v (half basis) or 2u keeps the parity of the basis
        ws = range(1 if half and v % 2 else 2, math.isqrt(4 * R - Ev2) + 1, 2)
        scanned += len(ws)
        for w in ws:
            n = (w * w + Ev2) // 4
            tr2 = (w * w - Ev2) // 2
            disc = n * n - 4 * tr2 + 16
            r = math.isqrt(disc)
            if r * r == disc:
                reducible += 1
            else:
                rows.append((-n, tr2 - 2, w, v))
    over_q = 0
    members = []
    for A, B, w, v in sorted(rows):
        a, b = 2 * B - A * A, B * B - 2 * A * A + 2
        if Q**4 + a * Q**3 + b * Q * Q + a * Q + 1 < 0:  # lifted lambda > Q
            over_q += 1
            continue
        wit = [((sw * w - half * sv * v) // 2, sv * v) for sv in (-1, 1) for sw in (-1, 1)]
        members.append((A, B, wit))
    real = 2 * math.isqrt(R) + 1  # v = 0, 4 N(t) = w^2 <= 4R
    imag_axis = 2 * math.isqrt(R // D)  # w = 0, v != 0
    return members, (real + imag_axis + 4 * scanned, real, imag_axis, 4 * reducible, over_q)


# --- Bianchi members by a heap merge of the rows -----------------------------


def bianchi_members_merge(rows):
    """(A, B, w, v) of the members of the rows (v, E v^2, ws, kept,
    reducible) that bianchi._rows yields, by a heap merge of one generator
    a row: the first kept ws less the reducible ones, descending w, which
    within a row is ascending (A, B) = (-N, 2N - E v^2 - 2)."""
    def row_members(v, E_v2, kept, reducible):
        for w in reversed(kept):
            if w not in reducible:
                N = (w * w + E_v2) // 4
                yield -N, 2 * N - E_v2 - 2, w, v

    return heapq.merge(*(row_members(v, E_v2, ws[:kept], red) for v, E_v2, ws, kept, red in rows))


# --- Bianchi row cut by binary search ----------------------------------------


def bianchi_rows_bisect(D: int, Q: int) -> list[tuple[int, int]]:
    """(v, kept) for each row v >= 1 of the Bianchi quadrant with
    E v^2 <= 4R, R = isqrt(Q) + 3: kept is the length of the prefix of the
    row's w (w = v mod 2 when D = 3 mod 4, else even; N(t) <= R) whose
    lifted quartic has p(Q) >= 0, found by a binary search of that exact
    test.  The prefix property, that the lambda of a row grows with w, is
    what the search assumes; the scans above check the cut without it."""
    R = math.isqrt(Q) + 3
    half = D % 4 == 3
    E = D if half else 4 * D
    out = []
    for v in range(1, math.isqrt(4 * R // E) + 1):
        Ev2 = E * v * v
        ws = range(1 if half and v % 2 else 2, math.isqrt(4 * R - Ev2) + 1, 2)
        lo, hi = 0, len(ws)
        while lo < hi:
            mid = (lo + hi) // 2
            n = (ws[mid] ** 2 + Ev2) // 4
            B = 2 * n - Ev2 - 2
            a, b = 2 * B - n * n, B * B - 2 * n * n + 2
            if Q**4 + a * Q**3 + b * Q * Q + a * Q + 1 >= 0:
                lo = mid + 1
            else:
                hi = mid
        out.append((v, lo))
    return out
