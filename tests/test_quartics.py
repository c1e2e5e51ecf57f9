import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from salemcensus.algebra import is_perfect_square
from salemcensus.errors import ContractError
from salemcensus.quartics import SalemQuartic, lift_half_power, salem_value

from oracles import (
    at_minus_one,
    is_salem_oracle,
    quartic_at,
    salem_root_numeric,
    sqrt_witnesses,
    verify_sqrt_factor,
)


def salem_with_witness():
    """Salem quartics parametrized by (a, k): b = k^2 + 2a - 2, k^2 < -4a."""
    return (
        st.integers(min_value=1, max_value=300)
        .flatmap(lambda na: st.tuples(st.just(na),
                                      st.integers(1, math.isqrt(4 * na - 1))))
        .map(lambda t: SalemQuartic(-t[0], t[1] * t[1] - 2 * t[0] - 2))
        .filter(lambda p: is_salem_oracle(*p))
    )


class TestWitness:
    """The square-rootability witnesses (k, d_coeff, alpha) of the oracles."""

    def test_both_branches(self):
        w = sqrt_witnesses(-1, -3)
        assert w is not None
        plus, minus = w
        assert plus == (1, 3, 7)
        assert minus == (1, 1, 3)

    def test_no_witness(self):
        assert sqrt_witnesses(-1, -1) is None  # p(-1) = 3

    def test_bianchi_example(self):
        w = sqrt_witnesses(-41, 16)
        assert w is not None and w[0][0] == 10  # p(-1) = 100

    @settings(max_examples=300, deadline=None)
    @given(salem_with_witness())
    def test_witnesses_verify_on_both_branches(self, p):
        w = sqrt_witnesses(p.a, p.b)
        assert w is not None
        for k, d_coeff, alpha in w:
            assert alpha > 0
            assert verify_sqrt_factor(p.a, p.b, d_coeff, alpha)
            # re-expansion identities
            assert 2 * d_coeff - alpha == p.a
            assert d_coeff**2 + 2 - 2 * alpha == p.b

    def test_verify_rejects_wrong_witness(self):
        assert not verify_sqrt_factor(-1, -3, d_coeff=4, alpha=7)


class TestSalemLe:
    """lambda <= Q iff p(Q) >= 0, the exact cut of the row-scan oracles:
    for integer Q >= 2 the sign of p(Q) is the sign of Q - lambda, as the
    unit-circle factor of p is positive on the reals."""

    def test_examples(self):
        assert quartic_at(-1, -1, 2) >= 0      # lambda = 1.72...
        assert quartic_at(-1, -3, 2) < 0       # lambda = 2.37...
        assert quartic_at(-41, 16, 41) >= 0    # lambda = 40.63...

    def test_rejects_non_salem(self):
        with pytest.raises(ContractError):
            salem_value(SalemQuartic(0, 2))

    @settings(max_examples=200, deadline=None)
    @given(salem_with_witness(), st.integers(2, 500))
    def test_agrees_with_value_away_from_boundary(self, p, Q):
        lam = salem_value(p)
        assume(abs(lam - Q) > 1e-6)
        assert (quartic_at(*p, Q) >= 0) == (lam <= Q)


class TestSalemValue:
    def test_frozen_values(self):
        assert salem_value(SalemQuartic(-1, -1)) == pytest.approx(
            1.722083805739043, rel=1e-12)
        assert salem_value(SalemQuartic(-1, -3)) == pytest.approx(
            2.369205407092467, rel=1e-12)
        assert salem_value(SalemQuartic(-41, 16)) == pytest.approx(
            40.63103264086892, rel=1e-12)

    def test_palindrome(self):
        # p is palindromic, so 1/lambda is a root of p with lambda
        p = SalemQuartic(-7, 11)
        lam = salem_value(p)
        for x in (lam, 1 / lam):
            assert quartic_at(*p, x) == pytest.approx(0, abs=1e-9 * lam**4)

    @settings(max_examples=200, deadline=None)
    @given(salem_with_witness())
    def test_matches_root_finder(self, p):
        assert salem_value(p) == pytest.approx(
            salem_root_numeric(p.a, p.b), rel=1e-9)


class TestSalemValueTests:
    """salem_value's three exact tests on its own discriminant, the package's
    one Salem predicate."""

    @pytest.mark.parametrize("a, b", [(0, 2),     # r(2) = b + 2a + 2 >= 0
                                      (0, -3),    # r(-2) = b - 2a + 2 <= 0
                                      (-5, 2)])   # disc = a^2 - 4b + 8 = 25
    def test_each_failed_condition_raises(self, a, b):
        with pytest.raises(ContractError):
            salem_value(SalemQuartic(a, b))

    def test_raises_exactly_off_is_salem(self):
        # against the numeric classifier of the oracles; (-1, -1) and (-3, 3)
        # are Salem, (0, 2) is (x^2 + 1)^2
        for a in range(-25, 26):
            for b in range(-25, 26):
                if is_salem_oracle(a, b):
                    assert salem_value(SalemQuartic(a, b)) > 1
                else:
                    with pytest.raises(ContractError):
                        salem_value(SalemQuartic(a, b))


class TestLiftHalfPower:
    def test_plain_pair(self):
        p = lift_half_power((-5, -8))
        assert type(p) is SalemQuartic and p == SalemQuartic(-41, 16) and p.b == 16

    def test_examples(self):
        assert lift_half_power(SalemQuartic(-5, -8)) == SalemQuartic(-41, 16)
        assert lift_half_power(SalemQuartic(0, 0)) == SalemQuartic(0, 2)
        assert lift_half_power(SalemQuartic(-3, 1)) == SalemQuartic(-7, -15)

    @given(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
    def test_lift_always_has_square_p_minus_one(self, A, B):
        p = lift_half_power(SalemQuartic(A, B))
        assert is_perfect_square(at_minus_one(*p)) == abs(B - 2)

    @settings(max_examples=200, deadline=None)
    @given(salem_with_witness())
    def test_lift_squares_the_salem_root(self, q):
        p = lift_half_power(q)
        assume(is_salem_oracle(*p))
        assert salem_value(p) == pytest.approx(salem_value(q) ** 2, rel=1e-9)
