"""Palindromic quartics x^4 + a x^3 + b x^2 + a x + 1: the Salem root of
one, and the lift from the quartic of lambda^(1/2) to that of lambda.

Substituting y = x + 1/x turns the quartic into r(y) = y^2 + a y + (b - 2)
via x^2 r(x + 1/x) = p(x).  The quartic is a Salem polynomial exactly when
r has one root above 2 (carrying the real pair lambda, 1/lambda) and one
root strictly inside (-2, 2) (carrying the unit-circle pair), and the
quartic is irreducible.  All three conditions are integer decisions, and
salem_value makes them before it computes lambda:

    r(2)  = b + 2a + 2 < 0
    r(-2) = b - 2a + 2 > 0
    disc  = a^2 - 4b + 8 is not a perfect square

The sign conditions rule out quadratic factorizations with constant
term -1 (they would force b + 2 = -s^2 <= 0 together with b + 2 > |2a|),
and p(+-1) != 0 rules out linear factors, so the non-square discriminant
is the whole irreducibility test.
"""

import math
from typing import NamedTuple

from .errors import ContractError

__all__ = [
    "SalemQuartic",
    "salem_value",
    "lift_half_power",
]


class SalemQuartic(NamedTuple):
    """Coefficient pair (a, b) of x^4 + a x^3 + b x^2 + a x + 1."""

    a: int
    b: int


def salem_value(p: SalemQuartic) -> float:
    """The Salem root lambda at double precision (diagnostic), as the root
    of y^2 + a y + (b - 2) above 2 lifted by x + 1/x = y; ContractError
    unless p passes the three exact tests of the module docstring, which
    share their discriminant with lambda and so are the package's one Salem
    predicate."""
    a, b = p
    disc = a * a - 4 * b + 8
    # r(2) < 0 gives r a real root above 2, so disc > 0 past the sign tests
    if b + 2 * a + 2 >= 0 or b - 2 * a + 2 <= 0 or math.isqrt(disc) ** 2 == disc:
        raise ContractError(f"({a}, {b}) is not a Salem quartic")
    y = (-a + math.sqrt(disc)) / 2.0
    return (y + math.sqrt(y * y - 4.0)) / 2.0


def lift_half_power(q: tuple[int, int]) -> SalemQuartic:
    """Map the quartic of lambda^(1/2) to the quartic of lambda.

    If q has coefficients (A, B), a SalemQuartic or any pair, then
    q(x) q(-x) = p(x^2) with p-coefficients (2B - A^2, B^2 - 2A^2 + 2).
    Consequently p(-1) = (B - 2)^2, a perfect square for every input.
    """
    A, B = q
    # what SalemQuartic(a, b) does, without the frame of its __new__
    return tuple.__new__(SalemQuartic, (2 * B - A * A, B * B - 2 * A * A + 2))
