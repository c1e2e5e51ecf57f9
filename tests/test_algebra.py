import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salemcensus.algebra import (
    MAX_FIELD_PARAM,
    RealQuadElem,
    floor_root,
    is_perfect_square,
    is_square_free,
    quadratic_basis,
    require_square_free,
)
from salemcensus.bianchi import bianchi_census, marklof_constant
from salemcensus.errors import DomainError
from salemcensus.totally_real import (
    c2_upper_bound,
    count_system,
    lattice_geometry,
    ring_square_root,
    system_rows,
)

from oracles import (
    _embeddings,
    _mul,
    is_square_free_trial,
    trace_complex,
    trace_conjugate,
    trace_norm,
    trace_sq,
)

SQUARE_FREE_D = [1, 2, 3, 5, 6, 7, 10, 11, 13, 15, 19, 23]
REAL_FIELDS = [2, 3, 5, 6, 7, 10, 13, 17, 21]


class TestPerfectSquare:
    def test_examples(self):
        assert is_perfect_square(100) == 10
        assert is_perfect_square(3) is None
        # p(-1) = (b-2)^2 at b = -8
        assert is_perfect_square((-8 - 2) ** 2) == 10

    def test_zero_and_negative(self):
        assert is_perfect_square(0) == 0
        assert is_perfect_square(-4) is None

    def test_huge_values_exact(self):
        n = (10**20 + 3) ** 2
        assert is_perfect_square(n) == 10**20 + 3
        assert is_perfect_square(n + 1) is None
        assert is_perfect_square(n - 1) is None

    @given(st.integers(min_value=0, max_value=10**12))
    def test_roundtrip(self, n):
        assert is_perfect_square(n * n) == n
        if n >= 1:
            assert is_perfect_square(n * n + 1) is None


def test_square_free():
    assert is_square_free(1) and is_square_free(2) and is_square_free(30)
    assert not is_square_free(4) and not is_square_free(12) and not is_square_free(18)
    assert not is_square_free(0) and not is_square_free(-5)


def test_square_free_matches_trial_division():
    ns = range(-3, 20000)
    assert [is_square_free(n) for n in ns] == [is_square_free_trial(n) for n in ns]


def test_square_free_near_1e18_is_fast():
    # trial division stops at the cube root of the cofactor
    p, q = 999_999_937, 999_999_929  # primes
    is_square_free.cache_clear()
    t0 = time.perf_counter()
    assert is_square_free(999_999_999_999_999_877)  # prime
    assert is_square_free(p * q)
    assert not is_square_free(p * p)
    assert not is_square_free(4 * 249_999_999_999_999_969)
    assert time.perf_counter() - t0 < 1.0


# Each public entry point that takes a field parameter, called with it.
FIELD_ENTRY_POINTS = {
    "require_square_free": lambda n: require_square_free(n, 1, "n"),
    "RealQuadElem": lambda n: RealQuadElem(n, 1, 1),
    "bianchi_census": lambda n: bianchi_census(n, 100),
    "marklof_constant": marklof_constant,
    "count_system": lambda n: count_system(n, 100),
    "system_rows": lambda n: next(system_rows(n, 100)),
    "ring_square_root": lambda n: ring_square_root(n, 4, 0),
    "lattice_geometry": lattice_geometry,
    "c2_upper_bound": c2_upper_bound,
}


@pytest.mark.parametrize("name", FIELD_ENTRY_POINTS)
def test_a_field_parameter_above_the_limit_is_refused_at_once(name):
    # validating 1e24 + 7 would take about 5e7 trial divisions
    n = 10**24 + 7
    t0 = time.perf_counter()
    with pytest.raises(DomainError, match=f" must be <= {MAX_FIELD_PARAM}, got {n}$"):
        FIELD_ENTRY_POINTS[name](n)
    assert time.perf_counter() - t0 < 1.0


def test_the_field_limit_is_inclusive():
    # 1e18 itself is tested for square factors, as is every value below it
    p = 999_999_999_999_999_989  # the largest prime below 1e18
    assert require_square_free(p, 2, "d") == p
    for n in (MAX_FIELD_PARAM, -(10**19), "7"):
        with pytest.raises(DomainError, match="d must be a square-free integer >= 2, got "):
            require_square_free(n, 2, "d")


# square-free field parameters above 2^53, where a double no longer holds
# B^2 d exactly; the last is the largest prime below 1e18
BIG_FIELDS = [2**53 + 1, 999_999_999_999_999_989]


def _root_at_least(x: int, B: int, d: int) -> bool:
    """x <= B sqrt(d), by integer squares only."""
    if B >= 0:
        return x < 0 or x * x <= B * B * d
    return x <= 0 and x * x >= B * B * d


class TestFloorRoot:
    """floor_root(B, d) = floor(B sqrt(d)), checked with integer squares."""

    fields = st.one_of(st.just(0), st.integers(1, 10**9).map(lambda r: r * r),
                       st.sampled_from(REAL_FIELDS), st.sampled_from(BIG_FIELDS))

    def test_big_fields_are_square_free(self):
        assert all(2**53 < d and is_square_free(d) for d in BIG_FIELDS)

    @given(st.integers(-10**40, 10**40), fields)
    def test_floor(self, B, d):
        f = floor_root(B, d)
        assert _root_at_least(f, B, d) and not _root_at_least(f + 1, B, d)

    @given(st.integers(-10**40, 10**40), fields, st.integers(-10**45, 10**45),
           st.integers(1, 10**20))
    def test_floor_division_rule(self, B, d, a, c):
        # q = floor((a + B sqrt(d)) / c): q c <= a + B sqrt(d) < (q + 1) c
        q = (a + floor_root(B, d)) // c
        assert _root_at_least(q * c - a, B, d) and not _root_at_least((q + 1) * c - a, B, d)

    def test_squares_and_zero(self):
        assert floor_root(0, 7) == floor_root(5, 0) == floor_root(-5, 0) == 0
        assert floor_root(-3, 4) == -6 and floor_root(3, 4) == 6
        assert floor_root(1, 2) == 1 and floor_root(-1, 2) == -2


class TestQuadIntK:
    """The integers t = (u, v) of K = Q(sqrt(-D)) as the oracles compute
    them for the Bianchi trace map: norm, trace of the square and
    conjugate, against complex arithmetic."""

    def test_norm_examples(self):
        assert trace_norm(1, 1, 2) == 5
        assert trace_norm(3, 0, 1) == 1
        assert trace_norm(2, 3, 0) == 9

    def test_trace_sq_examples(self):
        assert trace_sq(1, 1, 2) == -6
        assert trace_sq(1, 3, 0) == 18
        assert trace_sq(3, 0, 1) == -1

    @settings(max_examples=300)
    @given(st.sampled_from(SQUARE_FREE_D), st.integers(-1000, 1000),
           st.integers(-1000, 1000))
    def test_against_complex_arithmetic(self, D, u, v):
        z = trace_complex(D, u, v)
        n, tr2 = trace_norm(D, u, v), trace_sq(D, u, v)
        assert n >= 0
        assert (n == 0) == (u == 0 and v == 0)
        scale = max(1.0, abs(z) ** 2)
        assert abs(n - abs(z) ** 2) <= 1e-9 * scale
        assert abs(tr2 - 2 * (z * z).real) <= 1e-9 * scale

    def test_ten_thousand_random_elements_vs_complex_arithmetic(self):
        rng = random.Random(20240817)
        for _ in range(10**4):
            D = rng.choice(SQUARE_FREE_D)
            u, v = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
            z = trace_complex(D, u, v)
            n = trace_norm(D, u, v)
            scale = max(1.0, abs(z) ** 2)
            assert n >= 0
            assert (n == 0) == (u == 0 and v == 0)
            assert abs(n - abs(z) ** 2) <= 1e-9 * scale
            assert abs(trace_sq(D, u, v) - 2 * (z * z).real) <= 1e-9 * scale

    @given(st.sampled_from(SQUARE_FREE_D), st.integers(-1000, 1000),
           st.integers(-1000, 1000))
    def test_conjugation_is_involutive_and_norm_invariant(self, D, u, v):
        tb = trace_conjugate(D, u, v)
        assert trace_conjugate(D, *tb) == (u, v)
        assert trace_norm(D, *tb) == trace_norm(D, u, v)
        assert trace_sq(D, *tb) == trace_sq(D, u, v)
        assert abs(trace_complex(D, *tb) - trace_complex(D, u, v).conjugate()) < 1e-9


class TestQuadraticBasis:
    @pytest.mark.parametrize("d", [*REAL_FIELDS, *(-D for D in SQUARE_FREE_D)])
    def test_both_embeddings_satisfy_the_basis_relation(self, d):
        c, h = quadratic_basis(d)
        assert h in (0, 1) and 4 * c + h == (d if d % 4 == 1 else 4 * d)
        # the two embeddings of w, from the oracles' coordinates of u + v w at (0, 1)
        ws = _embeddings(d, (0, 1)) if d > 0 else (trace_complex(-d, 0, 1),
                                                   trace_complex(-d, 0, 1).conjugate())
        assert ws[0] != ws[1]
        for w in ws:
            assert abs(w * w - (c + h * w)) <= 1e-9 * abs(d)

    @settings(max_examples=300)
    @given(st.sampled_from(REAL_FIELDS), st.integers(-1000, 1000),
           st.integers(-1000, 1000))
    def test_embeddings_match_trace_and_norm(self, d, u, v):
        # u + v w has trace 2u + h v and norm u^2 + h u v - c v^2
        c, h = quadratic_basis(d)
        s1, s2 = _embeddings(d, (u, v))
        scale = max(1.0, abs(s1) + abs(s2))
        assert abs((s1 + s2) - (2 * u + h * v)) <= 1e-9 * scale
        assert abs(s1 * s2 - (u * u + h * u * v - c * v * v)) <= 1e-9 * scale * scale


class TestRealQuadElem:
    def test_validation(self):
        with pytest.raises(DomainError):
            RealQuadElem(4, 1, 1)
        with pytest.raises(DomainError):
            RealQuadElem(1, 1, 1)

    @given(st.sampled_from(REAL_FIELDS),
           st.tuples(st.integers(-200, 200), st.integers(-200, 200)),
           st.tuples(st.integers(-200, 200), st.integers(-200, 200)))
    def test_ring_ops_match_embeddings(self, d, xc, yc):
        z = RealQuadElem(d, *xc) * RealQuadElem(d, *yc)
        assert isinstance(z, RealQuadElem) and z.d == d
        assert (z.u, z.v) == _mul(d, xc, yc)
        sx, sy, prod = _embeddings(d, xc), _embeddings(d, yc), _embeddings(d, (z.u, z.v))
        assert prod[0] == pytest.approx(sx[0] * sy[0], rel=1e-9, abs=1e-6)
        assert prod[1] == pytest.approx(sx[1] * sy[1], rel=1e-9, abs=1e-6)

    def test_product_of_two_fields_is_refused(self):
        with pytest.raises(DomainError, match="mixed field parameters"):
            RealQuadElem(2, 1, 1) * RealQuadElem(3, 1, 1)

    def test_product_with_an_int_is_unsupported(self):
        with pytest.raises(TypeError):
            RealQuadElem(2, 1, 1) * 2
        with pytest.raises(TypeError):
            2 * RealQuadElem(2, 1, 1)
