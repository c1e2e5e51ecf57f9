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

With w = 2 Re(t) (2u + v when D = 3 (mod 4), else 2u) and E = D or 4D,
4 N(t) = w^2 + E v^2 and 2 Tr(t^2) = w^2 - E v^2, so the key (A, B) fixes
w^2 and v^2.  The traces of a member are therefore exactly its sign orbit
(+-w, +-v) with w, v > 0: the census scans that quadrant once, keeps one
member per orbit, and lists its four traces as witnesses
(num_witness_traces is always 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._bands import map_bands
from .algebra import QuadIntK, is_perfect_square, is_square_free
from .census import CensusRecord
from .errors import ContractError, DomainError
from .quartics import SalemQuartic, lift_half_power, salem_value

__all__ = [
    "BianchiSalem",
    "BianchiCensus",
    "salem_from_trace",
    "bianchi_census",
    "marklof_constant",
    "estimated_traces",
    "BIANCHI_CSV_HEADER",
    "bianchi_csv_row",
    "bianchi_json_obj",
]

BIANCHI_CSV_HEADER = "A,B,a_lift,b_lift,k,lambda,num_witness_traces"


@dataclass
class BianchiSalem:
    """Quartic x^4 + A x^3 + B x^2 + A x + 1 of lambda^(1/2), plus the
    trace coordinates (u, v) that produce it: in a census, the four traces
    of its sign orbit."""

    A: int
    B: int
    witnesses: list[tuple[int, int]] = field(default_factory=list)

    def lift(self) -> SalemQuartic:
        return lift_half_power(SalemQuartic(self.A, self.B))


@dataclass
class BianchiCensus:
    """One member per key, plus the diagnostic tallies of rejected traces."""

    D: int
    qmax: int
    members: list[BianchiSalem]
    traces_scanned: int = 0
    excluded_real: int = 0
    excluded_imag_axis: int = 0
    excluded_reducible: int = 0
    excluded_over_q: int = 0

    @property
    def count(self) -> int:
        return len(self.members)

    def to_census_records(self) -> list[CensusRecord]:
        out = []
        for m in self.members:
            p = m.lift()
            out.append(
                CensusRecord(p.a, p.b, abs(m.B - 2), salem_value(p), f"bianchi({self.D})")
            )
        return out


def _check_d(D: int) -> None:
    if not isinstance(D, int) or D < 1 or not is_square_free(D):
        raise DomainError(f"D must be a square-free integer >= 1, got {D}")


def salem_from_trace(D: int, t: QuadIntK) -> BianchiSalem | None:
    """The lambda^(1/2)-quartic attached to trace t, or None when t does
    not yield a degree-4 Salem number."""
    _check_d(D)
    if t.D != D:
        raise ContractError(f"trace lives in D={t.D}, expected D={D}")
    if t.is_real() or t.real_part_doubled() == 0:
        return None
    n = t.norm()
    tr2 = t.trace_sq()
    if is_perfect_square(n * n - 4 * tr2 + 16) is not None:
        return None
    return BianchiSalem(-n, tr2 - 2, [(t.u, t.v)])


def _scan_band(D: int, R: int, v_lo: int, v_hi: int) -> tuple[list, int, int]:
    """Scan the quadrant traces w = 2 Re(t) > 0, v in [v_lo, v_hi) with
    v >= 1 and N(t) <= R; returns (A, B, w, v) for every trace that is not
    reducible, the number scanned and the number reducible."""
    half = D % 4 == 3
    E = D if half else 4 * D
    rows = []
    scanned = reducible = 0
    for v in range(v_lo, v_hi):
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
    return rows, scanned, reducible


def bianchi_census(D: int, Q: int, workers: int = 1) -> BianchiCensus:
    """All degree-4 square-rootable Salem numbers lambda <= Q arising from
    traces of PSL(2, o_K), one member per (A, B) key.

    Traces are scanned over norm(t) <= R = floor(sqrt(Q)) + 3, which covers
    every candidate since N(t) differs from y = lambda^(1/2) + lambda^(-1/2)
    by at most 2; exactness is restored by the p(Q) >= 0 cut on the lifted
    quartic.  A key is one sign orbit (+-w, +-v), so only the quadrant
    w, v > 0 is scanned; the axes are real or imaginary-axis traces, all
    rejected, and are tallied in closed form.  Asymptotically
    count / sqrt(Q) approaches marklof_constant(D).
    """
    _check_d(D)
    if not isinstance(Q, int) or Q < 2:
        raise DomainError(f"Q must be an integer >= 2, got {Q}")
    R = math.isqrt(Q) + 3
    half = D % 4 == 3
    vmax = math.isqrt(4 * R // (D if half else 4 * D))
    bands, scanned, reducible = zip(*map_bands(_scan_band, (D, R), 1, vmax + 1, workers))

    over_q = 0
    members = []
    for A, B, w, v in sorted(row for band in bands for row in band):
        a, b = 2 * B - A * A, B * B - 2 * A * A + 2
        if Q**4 + a * Q**3 + b * Q * Q + a * Q + 1 < 0:  # lifted lambda > Q
            over_q += 1
            continue
        # t = u + v w with 2 Re(t) = 2u + v (half basis) or 2u
        wit = [((sw * w - half * sv * v) // 2, sv * v) for sv in (-1, 1) for sw in (-1, 1)]
        members.append(BianchiSalem(A, B, wit))
    real = 2 * math.isqrt(R) + 1  # v = 0, 4 N(t) = w^2 <= 4R
    imag_axis = 2 * math.isqrt(R // D)  # w = 0, v != 0
    return BianchiCensus(
        D, Q, members,
        traces_scanned=real + imag_axis + 4 * sum(scanned),
        excluded_real=real,
        excluded_imag_axis=imag_axis,
        excluded_reducible=4 * sum(reducible),
        excluded_over_q=over_q,
    )


def estimated_traces(D: int, Q: int) -> int:
    """About how many traces bianchi_census(D, Q) scans: the area of
    N(t) <= R = isqrt(Q) + 3 in trace coordinates, pi R / sqrt(D), or
    2 pi R / sqrt(D) when D = 3 (mod 4), where (2u + v, v) runs over a
    lattice of index 2; the miss is a boundary term, O(sqrt(R))."""
    R = math.isqrt(Q) + 3
    return int((2 if D % 4 == 3 else 1) * math.pi * R / math.sqrt(D))


def marklof_constant(D: int) -> float:
    """Leading constant of the distinct-real-length count for PSL(2, o_K):
    pi/(4 sqrt(D)) when D = 1, 2 (mod 4) and pi/(2 sqrt(D)) when
    D = 3 (mod 4)."""
    _check_d(D)
    if D % 4 == 3:
        return math.pi / (2.0 * math.sqrt(D))
    return math.pi / (4.0 * math.sqrt(D))


def bianchi_csv_row(m: BianchiSalem) -> str:
    p = m.lift()
    lam = salem_value(p)
    return f"{m.A},{m.B},{p.a},{p.b},{abs(m.B - 2)},{lam:.12g},{len(m.witnesses)}"


def bianchi_json_obj(m: BianchiSalem) -> dict:
    p = m.lift()
    return {
        "A": str(m.A),
        "B": str(m.B),
        "a_lift": str(p.a),
        "b_lift": str(p.b),
        "k": str(abs(m.B - 2)),
        "lambda": salem_value(p),
        "witnesses": [[u, v] for u, v in m.witnesses],
    }
