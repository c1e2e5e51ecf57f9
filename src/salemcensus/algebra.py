"""Exact arithmetic kernel: perfect squares and quadratic-field integers.

Everything downstream decides membership with integer arithmetic only,
and nothing in this module uses floating point.
"""

import math
from functools import lru_cache

from .errors import DomainError

__all__ = [
    "is_perfect_square",
    "is_square_free",
    "require_square_free",
    "sign_plus_root",
    "quadratic_basis",
    "RealQuadElem",
]

# Field parameters above this are refused before any arithmetic: validating
# one costs O(n^(1/3)) trial divisions, about 5e5 at the limit.
MAX_FIELD_PARAM = 10**18


def is_perfect_square(n: int) -> int | None:
    """Return the non-negative r with r*r == n, or None.

    Integer square root followed by an exact squaring check, so the answer
    is right for every magnitude.
    """
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


@lru_cache(maxsize=256)
def is_square_free(n: int) -> bool:
    """True iff n >= 1 and no prime square divides n.

    Trial division by f only while f^3 <= m, the cofactor left after
    dividing out every prime below f.  Then all prime factors of m are at
    least f > m^(1/3), so m is 1, a prime, a product of two distinct primes
    or the square of a prime, and only the last is not square-free: m is
    square-free iff it is not a perfect square (m = 1 aside).  That is
    O(n^(1/3)) steps, about 5e5 at n = 1e18.  Results are cached, since
    ring_square_root validates its field parameter on every call, and
    `cocompact --verified` calls it once per row of the `both` branch that
    passes the sign test before it.
    """
    if n < 1:
        return False
    m = n
    f = 2
    while f * f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return False
        f += 1 if f == 2 else 2
    return m == 1 or is_perfect_square(m) is None


def require_square_free(n: int, minimum: int, name: str) -> int:
    """n, or DomainError unless n is a square-free integer >= minimum and
    <= MAX_FIELD_PARAM, the limit checked before any trial division."""
    if isinstance(n, int) and n > MAX_FIELD_PARAM:
        raise DomainError(f"{name} must be <= {MAX_FIELD_PARAM}, got {n}")
    if not isinstance(n, int) or n < minimum or not is_square_free(n):
        raise DomainError(f"{name} must be a square-free integer >= {minimum}, got {n}")
    return n


def sign_plus_root(A: int, B: int, d: int) -> int:
    """Exact sign of A + B*sqrt(d) for integers A, B and non-square d >= 2.

    Comparisons of quadratic irrationals reduce to this; the decision is
    made by comparing A*A against B*B*d, never through floats.
    """
    if B == 0:
        return (A > 0) - (A < 0)
    if A == 0:
        return 1 if B > 0 else -1
    if A > 0 and B > 0:
        return 1
    if A < 0 and B < 0:
        return -1
    # opposite signs: |A| vs |B|sqrt(d); equality would force d square
    lhs, rhs = A * A, B * B * d
    if lhs == rhs:
        raise DomainError(f"d={d} must not be a perfect square")
    if A > 0:
        return 1 if lhs > rhs else -1
    return -1 if lhs > rhs else 1


def quadratic_basis(d: int) -> tuple[int, int]:
    """(c, h) with w^2 = c + h w for the integral basis {1, w} of the
    integers of Q(sqrt(d)), d square-free, real (d >= 2) or imaginary
    (d = -D): w = (1 + sqrt(d))/2 and (c, h) = ((d - 1)/4, 1) when
    d = 1 (mod 4), else w = sqrt(d) and (c, h) = (d, 0).

    The field discriminant is 4c + h, and x = u + v w is (A + B sqrt(d))/2
    with doubled coordinates (A, B) = (2u + h v, (2 - h) v).  So
    (u + v w)^2 = (u^2 + c v^2) + (2u + h v) v w, x has trace 2u + h v
    and norm u^2 + h u v - c v^2.
    """
    return ((d - 1) // 4, 1) if d % 4 == 1 else (d, 0)


class RealQuadElem:
    """Integer x = u + v*w of the real quadratic field Q(sqrt(d)), in the
    basis {1, w} of quadratic_basis(d), with the exact product of two
    elements.  No salem command builds one, as the library computes on
    integer coordinates: totally_real.enumerate_system, an object view of
    totally_real.system_rows, is the one function that returns elements.

    A value: == and hash go by (d, u, v), and the fields are set once.  It
    is not a tuple, so it equals no tuple, does not iterate and has no
    order by its coordinates.
    """

    __slots__ = ("d", "u", "v")

    def __init__(self, d: int, u: int, v: int) -> None:
        require_square_free(d, 2, "d")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def __repr__(self) -> str:
        return f"RealQuadElem(d={self.d!r}, u={self.u!r}, v={self.v!r})"

    def __eq__(self, other):
        if other.__class__ is RealQuadElem:
            return (self.d, self.u, self.v) == (other.d, other.u, other.v)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.d, self.u, self.v))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of RealQuadElem")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of RealQuadElem")

    def __reduce__(self):  # copy and pickle through __init__, not __setattr__
        return RealQuadElem, (self.d, self.u, self.v)

    # --- product -------------------------------------------------------

    def _like(self, u: int, v: int) -> "RealQuadElem":
        # same field as self, whose d was validated when self was built
        x = object.__new__(RealQuadElem)
        object.__setattr__(x, "d", self.d)
        object.__setattr__(x, "u", u)
        object.__setattr__(x, "v", v)
        return x

    def __mul__(self, other):
        if isinstance(other, RealQuadElem):
            if other.d != self.d:
                raise DomainError("mixed field parameters")
            c, h = quadratic_basis(self.d)
            u1, v1, u2, v2 = self.u, self.v, other.u, other.v
            return self._like(u1 * u2 + c * v1 * v2, u1 * v2 + u2 * v1 + h * v1 * v2)
        return NotImplemented

    __rmul__ = __mul__  # salembench/tracer.py counts calls under both names
