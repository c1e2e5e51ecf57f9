"""Palindromic quartics x^4 + a x^3 + b x^2 + a x + 1 and their exact
Salem predicates.

Substituting y = x + 1/x turns the quartic into r(y) = y^2 + a y + (b - 2)
via x^2 r(x + 1/x) = p(x).  The quartic is a Salem polynomial exactly when
r has one root above 2 (carrying the real pair lambda, 1/lambda) and one
root strictly inside (-2, 2) (carrying the unit-circle pair), and the
quartic is irreducible.  All three conditions are integer decisions:

    r(2)  = b + 2a + 2 < 0
    r(-2) = b - 2a + 2 > 0
    disc  = a^2 - 4b + 8 is not a perfect square

The sign conditions rule out quadratic factorizations with constant
term -1 (they would force b + 2 = -s^2 <= 0 together with b + 2 > |2a|),
and p(+-1) != 0 rules out linear factors, so the non-square discriminant
is the whole irreducibility test.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .algebra import _Frozen, _set, is_perfect_square
from .errors import ContractError, DomainError

__all__ = [
    "SalemQuartic",
    "SqrtWitness",
    "is_salem",
    "square_root_witness",
    "verify_sqrt_factor",
    "salem_le",
    "salem_value",
    "lift_half_power",
]


class SalemQuartic(NamedTuple):
    """Coefficient pair (a, b) of x^4 + a x^3 + b x^2 + a x + 1."""

    a: int
    b: int

    def coefficients(self) -> tuple[int, int, int, int, int]:
        return (1, self.a, self.b, self.a, 1)

    def eval_at(self, x: int) -> int:
        a, b = self.a, self.b
        return x * x * x * x + a * x * x * x + b * x * x + a * x + 1

    def at_minus_one(self) -> int:
        return 2 + self.b - 2 * self.a


class SqrtWitness(_Frozen):
    """Witness that p factors as q(x) q(-x) = p(x^2) with
    q(x) = x^4 + sqrt(alpha) x^3 + d_coeff x^2 + sqrt(alpha) x + 1.

    k is the positive root of p(-1); alpha = 4 - a + sign*2k and
    d_coeff = 2 + sign*k encode the two branches.
    """

    __slots__ = ("k", "d_coeff", "alpha", "sign")

    def __init__(self, k: int, d_coeff: int, alpha: int, sign: int) -> None:
        if sign not in (1, -1):
            raise DomainError("sign must be +1 or -1")
        if k <= 0:
            raise DomainError("k must be positive")
        if alpha <= 0:
            raise DomainError("alpha must be positive")
        _set(self, "k", k)
        _set(self, "d_coeff", d_coeff)
        _set(self, "alpha", alpha)
        _set(self, "sign", sign)


def _is_salem_ab(a: int, b: int) -> bool:
    if b + 2 * a + 2 >= 0 or b - 2 * a + 2 <= 0:
        return False
    return is_perfect_square(a * a - 4 * b + 8) is None


def is_salem(p: SalemQuartic) -> bool:
    """True iff p is irreducible with roots lambda > 1, 1/lambda, and a
    non-real unit-circle pair."""
    return _is_salem_ab(p.a, p.b)


def square_root_witness(p: SalemQuartic) -> tuple[SqrtWitness, SqrtWitness] | None:
    """Both branch witnesses when p(-1) = 2 + b - 2a is a positive square,
    else None.  Assumes is_salem(p); under that assumption k^2 < -4a, which
    makes both alpha = 4 - a +- 2k positive.
    """
    k = is_perfect_square(p.at_minus_one())
    if k is None or k == 0:
        return None
    a = p.a
    return (
        SqrtWitness(k=k, d_coeff=2 + k, alpha=4 - a + 2 * k, sign=1),
        SqrtWitness(k=k, d_coeff=2 - k, alpha=4 - a - 2 * k, sign=-1),
    )


def verify_sqrt_factor(p: SalemQuartic, w: SqrtWitness) -> bool:
    """Expand q(x) q(-x) symbolically and compare against p(x^2).

    Coefficients of q live in Z + Z*sqrt(alpha) and are tracked as integer
    pairs (r, s) meaning r + s*sqrt(alpha); the product rule is
    (r1, s1)(r2, s2) = (r1 r2 + alpha s1 s2, r1 s2 + s1 r2).
    """
    alpha, d = w.alpha, w.d_coeff
    q = [(1, 0), (0, 1), (d, 0), (0, 1), (1, 0)]          # x^4 .. x^0
    qm = [(1, 0), (0, -1), (d, 0), (0, -1), (1, 0)]        # q(-x)
    prod = [(0, 0)] * 9
    for i, (r1, s1) in enumerate(q):
        for j, (r2, s2) in enumerate(qm):
            r, s = prod[i + j]
            prod[i + j] = (r + r1 * r2 + alpha * s1 * s2, s + r1 * s2 + s1 * r2)
    target = [(1, 0), (0, 0), (p.a, 0), (0, 0), (p.b, 0), (0, 0), (p.a, 0), (0, 0), (1, 0)]
    return prod == target


def salem_le(p: SalemQuartic, Q: int) -> bool:
    """Exact test lambda <= Q via the sign of p(Q).

    For a Salem quartic the only real roots are lambda and 1/lambda and the
    unit-circle factor is positive on the reals, so for integer Q >= 2 the
    sign of p(Q) is the sign of Q - lambda.  The boundary is inclusive.
    """
    if Q < 2:
        raise DomainError(f"Q must be >= 2, got {Q}")
    if not is_salem(p):
        raise ContractError(f"({p.a}, {p.b}) is not a Salem quartic")
    return p.eval_at(Q) >= 0


def salem_value(p: SalemQuartic) -> float:
    """The Salem root lambda at double precision (diagnostic)."""
    if not is_salem(p):
        raise ContractError(f"({p.a}, {p.b}) is not a Salem quartic")
    return _salem_value_ab(p.a, p.b)


def _salem_value_ab(a: int, b: int) -> float:
    y = (-a + math.sqrt(a * a - 4 * b + 8)) / 2.0
    return (y + math.sqrt(y * y - 4.0)) / 2.0


def lift_half_power(q: SalemQuartic) -> SalemQuartic:
    """Map the quartic of lambda^(1/2) to the quartic of lambda.

    If q has coefficients (A, B) then q(x) q(-x) = p(x^2) with
    p-coefficients (2B - A^2, B^2 - 2A^2 + 2).  Consequently
    p(-1) = (B - 2)^2, a perfect square for every input.
    """
    A, B = q.a, q.b
    return SalemQuartic(2 * B - A * A, B * B - 2 * A * A + 2)
