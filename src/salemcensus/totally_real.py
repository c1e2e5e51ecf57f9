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
all boundary cases (floats only seed search ranges).

For counting, the k's attached to a fixed a form a box in embedding space
(for quadratic L the union of the two branch windows is the full strip
|sigma(k)| < 4), so the number of k per (a, v-coordinate) is an exact
integer interval length; this makes the count O(#a * Q^(1/4)) instead of
per-candidate work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._bands import map_bands
from .algebra import RealQuadElem, is_square_free, sign_plus_root
from .errors import DomainError

__all__ = [
    "SystemSolution",
    "LatticeGeometry",
    "enumerate_system",
    "count_system",
    "verify_salem_over_L",
    "ring_square_root",
    "lattice_geometry",
    "c2_upper_bound",
    "volume_leading",
    "volume_monte_carlo",
    "SYSTEM_CSV_HEADER",
    "system_csv_row",
]

SYSTEM_CSV_HEADER = "a_u,a_v,k_u,k_v,b_u,b_v,branch,verified"


@dataclass(frozen=True)
class SystemSolution:
    """One solution (a, k) with b = k^2 + 2a - 2 and its branch tag
    ('plus', 'minus' or 'both' for the sigma(k) window that held)."""

    a: RealQuadElem
    k: RealQuadElem
    b: RealQuadElem
    branch: str


@dataclass(frozen=True)
class LatticeGeometry:
    """Embedding lattice data of o_L: degree, field discriminant, and twice
    the longer diagonal of the standard-basis fundamental parallelotope."""

    d: int
    h: int
    disc: int
    delta: float


def _check_d(d: int) -> None:
    if not isinstance(d, int) or d < 2 or not is_square_free(d):
        raise DomainError(f"d must be a square-free integer >= 2, got {d}")


def _check_q(Q: int) -> None:
    if not isinstance(Q, int) or Q < 2:
        raise DomainError(f"Q must be an integer >= 2, got {Q}")


# --- exact interval endpoints ------------------------------------------------


def _floor_root_mult(B: int, d: int) -> int:
    """floor(B * sqrt(d)), exact; B*sqrt(d) is irrational unless B = 0."""
    if B == 0:
        return 0
    if B > 0:
        return math.isqrt(B * B * d)
    return -math.isqrt(B * B * d) - 1


def _min_gt(A: int, B: int, d: int) -> int:
    """Smallest integer u with u > A + B*sqrt(d)."""
    return A + _floor_root_mult(B, d) + 1


def _max_lt(A: int, B: int, d: int) -> int:
    """Largest integer u with u < A + B*sqrt(d)."""
    if B == 0:
        return A - 1
    return A + _floor_root_mult(B, d)


# --- scans -------------------------------------------------------------------


def _sigma1_sign_k2_plus_4a(d: int, half: bool, au: int, av: int, ku: int, kv: int) -> int:
    """Exact sign of sigma1(k^2 + 4a)."""
    if half:
        c = (d - 1) // 4
        eu = ku * ku + kv * kv * c + 4 * au
        ev = 2 * ku * kv + kv * kv + 4 * av
        return sign_plus_root(2 * eu + ev, ev, d)
    eu = ku * ku + d * kv * kv + 4 * au
    ev = 2 * ku * kv + 4 * av
    return sign_plus_root(eu, ev, d)


def _sigma2_sign(d: int, half: bool, xu: int, xv: int) -> int:
    if half:
        return sign_plus_root(2 * xu + xv, -xv, d)
    return sign_plus_root(xu, -xv, d)


def _iter_a_coords(d: int, Q: int, va_lo: int, va_hi: int) -> Iterator[tuple[int, int]]:
    """Coordinates (u, v) of a in o_L with -(Q+3) < sigma1(a) < 0 and
    -4 < sigma2(a) < 4, for v in [va_lo, va_hi)."""
    half = d % 4 == 1
    for v in range(va_lo, va_hi):
        if half:
            # sigma1 = (w + v sqrt d)/2, sigma2 = (w - v sqrt d)/2, w = 2u+v
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


def _va_range(d: int, Q: int) -> tuple[int, int]:
    """v-range enclosing all admissible a coordinates (with margin)."""
    sd = math.sqrt(d)
    spread = (Q + 7) / (2 * sd) if d % 4 != 1 else (Q + 7) / sd
    up = 4 / (2 * sd) if d % 4 != 1 else 8 / sd
    return -int(spread) - 2, int(up) + 3


def _iter_k_coords(d: int, au: int, av: int) -> Iterator[tuple[int, int, str]]:
    """Coordinates (u, v) and branch tag of every k for a fixed a:
    sigma1(k) > 0, sigma1(k)^2 < -4 sigma1(a), |sigma2(k)| < 4."""
    half = d % 4 == 1
    sd = math.sqrt(d)
    if half:
        s1a = (2 * au + av + av * sd) / 2.0
    else:
        s1a = au + av * sd
    root_T = math.sqrt(-4.0 * s1a)
    if half:
        v_lo, v_hi = int(-4 / sd) - 2, int((root_T + 4) / sd) + 3
    else:
        v_lo, v_hi = int(-4 / (2 * sd)) - 2, int((root_T + 4) / (2 * sd)) + 3
    for v in range(v_lo, v_hi):
        if half:
            # sigma1(k) = (w + v sqrt d)/2, so the quadratic cut reads
            # w < 2*root_T - v sqrt d
            w_lo = max(_min_gt(0, -v, d), _min_gt(-8, v, d))
            w_hi = min(_max_lt(8, v, d), int(2 * root_T - v * sd) + 2)
            if (w_lo - v) % 2:
                w_lo += 1
            for w in range(w_lo, w_hi + 1, 2):
                u = (w - v) // 2
                if _sigma1_sign_k2_plus_4a(d, half, au, av, u, v) >= 0:
                    break  # sigma1(k^2+4a) increases with u on sigma1(k) > 0
                yield u, v, _branch_tag(d, half, au, av, u, v)
        else:
            u_lo = max(_min_gt(0, -v, d), _min_gt(-4, v, d))
            u_hi = min(_max_lt(4, v, d), int(root_T - v * sd) + 2)
            for u in range(u_lo, u_hi + 1):
                if _sigma1_sign_k2_plus_4a(d, half, au, av, u, v) >= 0:
                    break
                yield u, v, _branch_tag(d, half, au, av, u, v)


def _branch_tag(d: int, half: bool, au: int, av: int, ku: int, kv: int) -> str:
    # plus branch:  (sigma2(a)-4)/2 < sigma2(k)  <=>  sigma2(2k - a + 4) > 0
    # minus branch: sigma2(k) < (4-sigma2(a))/2  <=>  sigma2(2k + a - 4) < 0
    plus = _sigma2_sign(d, half, 2 * ku - au + 4, 2 * kv - av) > 0
    minus = _sigma2_sign(d, half, 2 * ku + au - 4, 2 * kv + av) < 0
    if plus and minus:
        return "both"
    if plus:
        return "plus"
    if minus:
        return "minus"
    raise AssertionError("branch windows should cover |sigma2(k)| < 4")


def _enum_band(
    d: int, Q: int, va_lo: int, va_hi: int
) -> Iterator[tuple[int, int, int, int, str]]:
    for au, av in _iter_a_coords(d, Q, va_lo, va_hi):
        for ku, kv, branch in _iter_k_coords(d, au, av):
            yield au, av, ku, kv, branch


def enumerate_system(d: int, Q: int, workers: int = 1) -> Iterator[SystemSolution]:
    """Every solution of the system with sigma1(k) > 0, in deterministic
    order (a by (v, u), then k by (v, u))."""
    _check_d(d)
    _check_q(Q)
    for chunk in map_bands(_enum_band, (d, Q), *_va_range(d, Q), workers):
        for au, av, ku, kv, branch in chunk:
            a = RealQuadElem(d, au, av)
            k = RealQuadElem(d, ku, kv)
            yield SystemSolution(a, k, k * k + 2 * a - 2, branch)


def _count_k_for_a(d: int, half: bool, sd: float, au: int, av: int) -> int:
    """Exact count of admissible k for fixed a, one interval per v."""
    if half:
        s1a = (2 * au + av + av * sd) / 2.0
    else:
        s1a = au + av * sd
    root_T = math.sqrt(-4.0 * s1a)
    total = 0
    if half:
        v_lo, v_hi = int(-4 / sd) - 2, int((root_T + 4) / sd) + 3
    else:
        v_lo, v_hi = int(-4 / (2 * sd)) - 2, int((root_T + 4) / (2 * sd)) + 3
    for v in range(v_lo, v_hi):
        if half:
            w_lo = max(_min_gt(0, -v, d), _min_gt(-8, v, d))
            if (w_lo - v) % 2:
                w_lo += 1
            w_top = _max_lt(8, v, d)
            w_top -= (w_top - v) % 2
            if w_top < w_lo:
                continue
            # largest parity-correct w passing the quadratic cut: float seed,
            # then exact walk (predicate is monotone for sigma1(k) > 0)
            w = int(2 * root_T - v * sd) + 3
            w -= (w - v) % 2
            w = min(w, w_top)
            while w >= w_lo and _sigma1_sign_k2_plus_4a(d, half, au, av, (w - v) // 2, v) >= 0:
                w -= 2
            while w + 2 <= w_top and _sigma1_sign_k2_plus_4a(
                d, half, au, av, (w + 2 - v) // 2, v
            ) < 0:
                w += 2
            if w >= w_lo:
                total += (w - w_lo) // 2 + 1
        else:
            u_lo = max(_min_gt(0, -v, d), _min_gt(-4, v, d))
            u_hi_win = _max_lt(4, v, d)
            if u_lo > u_hi_win:
                continue
            u = min(int(root_T - v * sd) + 2, u_hi_win)
            while u >= u_lo and _sigma1_sign_k2_plus_4a(d, half, au, av, u, v) >= 0:
                u -= 1
            while u + 1 <= u_hi_win and _sigma1_sign_k2_plus_4a(d, half, au, av, u + 1, v) < 0:
                u += 1
            if u >= u_lo:
                total += u - u_lo + 1
    return total


def _count_band(d: int, Q: int, va_lo: int, va_hi: int) -> int:
    half = d % 4 == 1
    sd = math.sqrt(d)
    return sum(
        _count_k_for_a(d, half, sd, au, av) for au, av in _iter_a_coords(d, Q, va_lo, va_hi)
    )


def count_system(d: int, Q: int, verified: bool = False, workers: int = 1) -> int:
    """Number of system solutions; with verified=True, only those passing
    verify_salem_over_L (slower: per-solution numeric verification)."""
    _check_d(d)
    _check_q(Q)
    if verified:
        return sum(1 for s in enumerate_system(d, Q, workers) if verify_salem_over_L(d, s))
    return sum(map_bands(_count_band, (d, Q), *_va_range(d, Q), workers))


# --- verification ------------------------------------------------------------


def ring_square_root(x: RealQuadElem) -> RealQuadElem | None:
    """A square root of x in o_L if one exists, else None.

    Both embeddings of a square are non-negative; candidates are
    reconstructed from the embedding square roots and verified by exact
    squaring, so a non-None answer is always correct.
    """
    if x.is_zero():
        return RealQuadElem(x.d, 0, 0)
    if x.sign_sigma1() < 0 or x.sign_sigma2() < 0:
        return None
    s1, s2 = x.embeddings()
    t1 = math.sqrt(max(s1, 0.0))
    sd = math.sqrt(x.d)
    for t2 in (math.sqrt(max(s2, 0.0)), -math.sqrt(max(s2, 0.0))):
        if x.half_basis:
            v = (t1 - t2) / sd
            u = (t1 + t2 - v) / 2.0
        else:
            v = (t1 - t2) / (2.0 * sd)
            u = (t1 + t2) / 2.0
        for du in (0, -1, 1):
            for dv in (0, -1, 1):
                c = RealQuadElem(x.d, round(u) + du, round(v) + dv)
                if c * c == x:
                    return c
    return None


def _unit_circle_quartic(a2: float, b2: float, tol: float = 1e-9) -> bool:
    roots = np.roots([1.0, a2, b2, a2, 1.0])
    return bool(np.all(np.abs(np.abs(roots) - 1.0) <= tol))


def _salem_quartic_numeric(a1: float, b1: float, tol: float = 1e-9) -> bool:
    roots = np.roots([1.0, a1, b1, a1, 1.0])
    real = [z.real for z in roots if abs(z.imag) <= tol * max(1.0, abs(z.real))]
    cplx = [z for z in roots if abs(z.imag) > tol * max(1.0, abs(z.real))]
    if len(real) != 2 or len(cplx) != 2:
        return False
    lam, rec = max(real), min(real)
    if not (lam > 1.0 + tol and abs(rec - 1.0 / lam) <= tol):
        return False
    return all(abs(abs(z) - 1.0) <= tol for z in cplx)


def verify_salem_over_L(d: int, s: SystemSolution) -> bool:
    """Full Salem-over-L verification of a system solution:

    (i)   the identity-embedded quartic has the Salem root pattern,
    (ii)  the conjugate quartic has all roots on the unit circle,
    (iii) 4 - a + 2k or 4 - a - 2k is totally positive,
    (iv)  r(y) = y^2 + a y + (b-2) has no root in o_L (its discriminant is
          not a square in o_L), so the quartic is irreducible over L.
    """
    _check_d(d)
    a, k, b = s.a, s.k, s.b
    s1a, s2a = a.embeddings()
    s1b, s2b = b.embeddings()
    if not _salem_quartic_numeric(s1a, s1b):
        return False
    if not _unit_circle_quartic(s2a, s2b):
        return False
    four = RealQuadElem.from_int(d, 4)
    if not ((four - a + 2 * k).is_totally_positive() or (four - a - 2 * k).is_totally_positive()):
        return False
    disc = a * a - 4 * b + 8
    return ring_square_root(disc) is None


# --- geometry of numbers -----------------------------------------------------


def lattice_geometry(d: int) -> LatticeGeometry:
    """Field discriminant and twice the longer diagonal of the fundamental
    parallelotope of o_L under x -> (sigma1(x), sigma2(x)), standard basis
    {1, w}."""
    _check_d(d)
    one = RealQuadElem.from_int(d, 1)
    w = RealQuadElem(d, 0, 1)
    diag1 = math.hypot(*(one + w).embeddings())
    diag2 = math.hypot(*(one - w).embeddings())
    disc = d if d % 4 == 1 else 4 * d
    return LatticeGeometry(d=d, h=2, disc=disc, delta=2.0 * max(diag1, diag2))


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
    the search-region volume for a degree-h totally real field."""
    if h < 1:
        raise DomainError(f"h must be >= 1, got {h}")
    if delta < 0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    if Q < 1:
        raise DomainError(f"Q must be >= 1, got {Q}")
    return (48 + 28 * delta + 4 * delta * delta) ** (h - 1) * (8.0 / 3.0) * Q**1.5


def volume_monte_carlo(
    h: int, delta: float, Q: int, samples: int = 1_000_000, seed: int = 0
) -> float:
    """Monte Carlo estimate of the exact volume of the fattened search
    region; converges to volume_leading(h, delta, Q) up to O(Q) fringe
    terms.  Deterministic for a fixed seed."""
    if h < 1 or delta < 0 or Q < 1 or samples < 1:
        raise DomainError("need h >= 1, delta >= 0, Q >= 1, samples >= 1")
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


def system_csv_row(s: SystemSolution, verified: bool | None = None) -> str:
    v = "" if verified is None else ("1" if verified else "0")
    return (
        f"{s.a.u},{s.a.v},{s.k.u},{s.k.v},{s.b.u},{s.b.v},{s.branch},{v}"
    )
