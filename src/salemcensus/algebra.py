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
    "floor_root",
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


def floor_root(B: int, d: int) -> int:
    """floor(B sqrt(d)), exact, for every integer B and every d >= 0.

    isqrt(B^2 d) for B >= 0; for B < 0 it is -isqrt(B^2 d), less 1 when
    B^2 d is not a square.  Every bound on a quadratic irrational reduces
    to this one floor, with integers a and c > 0 and x = a + B sqrt(d):

    * floor(x / c) = (a + floor_root(B, d)) // c.  With n = floor(x) =
      a + floor_root(B, d) and q = n // c: q c <= n <= x, and as n + 1 <=
      (q + 1) c, x < n + 1 <= (q + 1) c, so q <= x / c < q + 1.
    * the least integer above x is floor(x) + 1, and the greatest below
      it is floor(x) - [x is an integer] = -floor(-x) - 1.  For
      square-free d, x is an integer only when B = 0.
    * x >= 0 iff floor(x) >= 0, and x < 0 iff floor(x) < 0, so a sign
      test where x cannot vanish is one comparison.
    """
    n = B * B * d
    r = math.isqrt(n)
    if B >= 0:
        return r
    return -r if r * r == n else -r - 1


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
