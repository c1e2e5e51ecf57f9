import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salemcensus.asymptotics import (
    MULTIPLICITY_CSV_HEADER,
    multiplicity_report,
    multiplicity_table,
    omega_series,
    power_fit,
)
from salemcensus.errors import CapacityError, DomainError, _check_grid

from oracles import omega_direct


def omega(m):
    """omega(m) as a Fraction, the last term of omega_series(m)."""
    return Fraction(*omega_series(m)[-1])


class TestOmega:
    def test_known_values(self):
        assert omega(1) == Fraction(2)
        assert omega(2) == Fraction(32, 9)
        assert omega(3) == Fraction(256, 45)

    def test_matches_direct_evaluation_up_to_50(self):
        for m in range(1, 51):
            assert omega(m) == omega_direct(m)

    def test_running_series_matches_each_omega(self):
        for n in range(4, 61, 2):
            assert omega_series(n // 2 - 1) == [(w.numerator, w.denominator)
                                                for w in map(omega_direct, range(1, n // 2))]

    def test_series_of_report_n_710_is_exact(self):
        # report multiplicity --n 710 sums omega(1), ..., omega(354)
        series = omega_series(354)
        assert len(series) == 354
        for num, den in series:
            assert num >= 2 and num & (num - 1) == 0 and den % 2 == 1
        for m, ((n1, d1), (n2, d2)) in enumerate(zip(series, series[1:]), start=1):
            # omega(m + 1) (m + 2) (2m + 1) C(2m, m) = omega(m) 4^(m + 1) (m + 1)
            assert (n2 * (m + 2) * (2 * m + 1) * math.comb(2 * m, m) * d1
                    == n1 * 4 ** (m + 1) * (m + 1) * d2), m

    def test_exact_rational_no_overflow(self):
        val = omega(50)
        assert isinstance(val, Fraction) and val > 0

    def test_rejects_bad_m(self):
        with pytest.raises(DomainError):
            omega(0)
        with pytest.raises(DomainError):
            omega(-3)


class TestPowerFit:
    def test_exact_power_data(self):
        fit = power_fit([(10, 200), (100, 20000), (1000, 2 * 10**6)])
        assert fit.exponent == pytest.approx(2.0, abs=1e-9)
        assert fit.constant == pytest.approx(2.0, abs=1e-9)
        assert fit.residual < 1e-12
        assert fit.points_used == 3

    @settings(max_examples=200)
    @given(st.floats(0.1, 10), st.floats(0.5, 3),
           st.lists(st.integers(10, 10**6), min_size=3, max_size=8, unique=True))
    def test_recovers_synthetic_constants(self, c, s, qs):
        fit = power_fit([(q, c * q**s) for q in qs])
        assert fit.exponent == pytest.approx(s, abs=1e-9)
        assert fit.constant == pytest.approx(c, rel=1e-9)

    def test_drops_contaminated_smallest_point(self):
        pts = [(q, 2.0 * q**1.5) for q in (100, 200, 400, 800)]
        pts.insert(0, (10, 2.0 * 10**1.5 * 5))  # smallest point off by 5x
        fit = power_fit(pts)
        assert fit.points_used == 4
        assert fit.exponent == pytest.approx(1.5, abs=1e-9)

    def test_drops_stop_at_three_distinct_q(self):
        # a repeated largest Q is no reason to drop: 10 and 20 stay, not a 0/0 fit
        pts = [(10, 1e6), (20, 5.0), (40, 9.0), (40, 9.0), (40, 9.0)]
        fit = power_fit(pts)
        assert fit.points_used == 5 and math.isfinite(fit.exponent)

    def test_validation(self):
        with pytest.raises(DomainError):
            power_fit([(10, 100), (20, 400)])
        for pts in ([(10, 8), (10, 8), (10, 8)], [(3, 1), (3, 1), (4, 2)]):
            with pytest.raises(DomainError, match="3 distinct Q"):
                power_fit(pts)
        zero = "^all points must be positive, got count 0 at Q = 20$"
        with pytest.raises(DomainError, match=zero):
            power_fit([(10, 100), (20, 0), (30, 900)])

    def test_the_grid_is_counted_as_doubles(self):
        # three integers past 2^53 that round to one double are one Q to the fit
        qs = [10**17, 10**17 + 1, 10**17 + 2]
        for check in (lambda: power_fit([(q, q) for q in qs]),
                      lambda: _check_grid(qs, "--qgrid")):
            with pytest.raises(DomainError, match="needs at least 3 distinct Q as doubles, got 1"):
                check()
        _check_grid([2**53, 2**53 + 2, 2**53 + 4])


class TestMultiplicityReport:
    def test_n4_ell10_row(self):
        rows = multiplicity_report(4, 10.0, 10.0)
        assert len(rows) == 1
        r = rows[0]
        geod = math.exp(30) / 30
        bound = 2 * math.exp(20) + math.exp(10) - 2
        assert r.geodesic_count == pytest.approx(geod, rel=1e-12)
        assert r.salem_bound == pytest.approx(bound, rel=1e-12)
        assert r.mean_mult_lower == pytest.approx(geod / bound, rel=1e-12)
        # dominant behaviour e^ell / 60 at n = 4
        assert r.mean_mult_lower == pytest.approx(math.exp(10) / 60, rel=1e-3)

    def test_limit_constant(self):
        # ratio * ell * e^(-(n/2-1) ell) -> 1/((n-1) * omega(n/2-1)); 1/6 at n=4
        row = multiplicity_report(4, 25.0, 25.0)[0]
        scaled = row.mean_mult_lower * row.ell * math.exp(-row.ell)
        assert scaled == pytest.approx(1 / 6, rel=1e-6)

    def test_rows_positive_and_eventually_increasing(self):
        rows = multiplicity_report(6, 8.0, 1.0)
        for r in rows:
            assert r.geodesic_count > 0 and r.salem_bound > 0
            assert r.mean_mult_lower == pytest.approx(
                r.geodesic_count / r.salem_bound, rel=1e-12)
        tail = [r.mean_mult_lower for r in rows[2:]]
        assert tail == sorted(tail)

    def test_validation(self):
        for bad in (3, 5, 2, 0):
            with pytest.raises(DomainError):
                multiplicity_report(bad, 10.0, 1.0)
        with pytest.raises(DomainError):
            multiplicity_report(4, 5.0, 6.0)
        for ell_max in (math.inf, math.nan):
            with pytest.raises(DomainError):
                multiplicity_report(4, ell_max, 1.0)

    def test_overflow_is_a_capacity_error(self):
        with pytest.raises(CapacityError):
            multiplicity_report(4, 1000.0, 1000.0)

    def test_csv_format(self):
        assert MULTIPLICITY_CSV_HEADER == "ell,geodesic_count,salem_bound,mean_mult_lower"
        header, chunks = multiplicity_table(4, 2.0, 2.0, False, 1024)
        text = "".join(chunks)
        assert header == MULTIPLICITY_CSV_HEADER and text.startswith("2.00000e+00,")
        assert text.endswith("\n") and len(text.split(",")) == 4
