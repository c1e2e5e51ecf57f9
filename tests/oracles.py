"""Independent oracles used to pin expected values in the test suite.

Everything here is deliberately built from different machinery than the
package under test: numpy root finding for spectral classification, trial
division for quartic reducibility, and row-by-row scans for the integer
censuses that the package counts in closed form.  No module from
salemcensus is imported.
"""

from __future__ import annotations

import cmath
import math

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


def count_deg2_loop(Q: int) -> int:
    """Degree-2 Salem numbers <= Q: x^2 + ax + 1 with -a >= 3 (irreducible,
    root > 1) and lambda <= Q, i.e. Q^2 + aQ + 1 >= 0."""
    return sum(1 for na in range(3, Q + 1) if Q * Q - na * Q + 1 >= 0)
