import decimal
import math
import random
import time

import pytest

from salemcensus.algebra import is_perfect_square
from salemcensus.cli import main
from salemcensus.census import (
    CENSUS_CSV_HEADER,
    _census_rows,
    _isqrt_sum,
    census_csv_row,
    count_deg2,
    count_salem_deg4,
    count_sr,
    enumerate_salem_deg4,
    enumerate_sr,
)
from salemcensus.errors import DomainError
from salemcensus.quartics import SalemQuartic, salem_value

from oracles import (
    box_sums,
    census_record_texts,
    census_table,
    count_deg2_loop,
    count_salem_deg4_loop,
    count_sr_loop,
    enumerate_deg4_filter,
    enumerate_sr_filter,
    is_salem_oracle,
    salem_root_numeric,
)

# Frozen by the brute-force oracle scan over |a| <= 53, |b| <= 110 with the
# numpy/trial-division classifier and the numeric lambda <= 50 cut.
BRUTE_FORCE_DEG4_Q50 = 4802
BRUTE_FORCE_SR_Q50 = 421


class TestDeg4Census:
    def test_count_matches_brute_force_oracle(self):
        assert count_salem_deg4(50) == BRUTE_FORCE_DEG4_Q50

    def test_enumerate_matches_count(self):
        for Q in (2, 3, 10, 50, 137):
            assert sum(1 for _ in enumerate_salem_deg4(Q)) == count_salem_deg4(Q)

    def test_q2_contents(self):
        pairs = {(r.a, r.b) for r in enumerate_salem_deg4(2)}
        assert (-1, -1) in pairs
        assert (-1, -3) not in pairs  # lambda = 2.37 > 2

    def test_every_record_is_salem(self):
        for rec in enumerate_salem_deg4(40):
            assert is_salem_oracle(rec.a, rec.b)

    def test_small_box_against_oracle(self):
        expected = set()
        for a in range(-8, 1):
            for b in range(-20, 20):
                if is_salem_oracle(a, b) and salem_root_numeric(a, b) <= 5 + 1e-9:
                    expected.add((a, b))
        assert {(r.a, r.b) for r in enumerate_salem_deg4(5)} == expected

    def test_monotone_in_q(self):
        counts = [count_salem_deg4(Q) for Q in (5, 20, 80, 320)]
        assert counts == sorted(counts)

    def test_rejects_small_q(self):
        with pytest.raises(DomainError):
            count_salem_deg4(1)
        with pytest.raises(DomainError):
            list(enumerate_salem_deg4(0))

    def test_record_invariants(self):
        for rec in enumerate_salem_deg4(150):
            root = is_perfect_square(2 + rec.b - 2 * rec.a)
            assert (rec.k is not None) == (root is not None)
            # lambda takes salem_value's float steps, bit for bit
            assert rec.lambda_approx == salem_value(SalemQuartic(rec.a, rec.b)), rec
            assert rec.source == "direct"

    def test_order_is_descending_a_then_ascending_b(self):
        recs = [(r.a, r.b) for r in enumerate_salem_deg4(30)]
        assert recs == sorted(recs, key=lambda ab: (-ab[0], ab[1]))

    def test_workers_do_not_change_output(self, tmp_path):
        expected = census_table(census_record_texts(enumerate_salem_deg4(60), "csv"), "csv")
        for workers in ("1", "3"):
            path = tmp_path / f"w{workers}.csv"
            assert main(["census", "deg4", "--qmax", "60", "--out", str(path),
                         "--workers", workers]) == 0
            assert path.read_text() == expected


class TestSrCensus:
    def test_count_matches_brute_force_oracle(self):
        assert count_sr(50) == BRUTE_FORCE_SR_Q50

    def test_q3_contains_first_square_rootable(self):
        recs = {(r.a, r.b, r.k) for r in enumerate_sr(3)}
        assert (-1, -3, 1) in recs

    def test_witness_by_construction(self):
        for rec in enumerate_sr(40):
            assert rec.k is not None
            assert 2 + rec.b - 2 * rec.a == rec.k**2

    def test_two_pipeline_equivalence_full_run(self):
        sr = {(r.a, r.b) for r in enumerate_sr(200)}
        filtered = {(r.a, r.b) for r in enumerate_salem_deg4(200) if r.k is not None}
        assert sr == filtered

    def test_two_pipeline_counts_all_q_up_to_200(self):
        # members of the Q=200 filtered set, re-cut at every Q by the exact
        # p(Q) >= 0 test, must reproduce count_sr(Q)
        members = [(r.a, r.b) for r in enumerate_salem_deg4(200) if r.k is not None]
        for Q in range(2, 201):
            expected = sum(
                1 for a, b in members
                if Q**4 + a * Q**3 + b * Q * Q + a * Q + 1 >= 0
            )
            assert count_sr(Q) == expected, f"mismatch at Q={Q}"

    def test_subset_of_deg4(self):
        for Q in (10, 100, 1000):
            assert count_sr(Q) <= count_salem_deg4(Q)

    def test_workers_do_not_change_output(self, tmp_path):
        expected = census_table(census_record_texts(enumerate_sr(80), "json"), "json")
        for workers in ("1", "2"):
            path = tmp_path / f"w{workers}.json"
            assert main(["census", "sr", "--qmax", "80", "--format", "json",
                         "--out", str(path), "--workers", workers]) == 0
            assert path.read_text() == expected

    def test_reducible_family_cross_check(self):
        # every (a, k) candidate failing the discriminant test must land in
        # one of the three reducible families b=2, b=a+1, a+b=1
        for Q in (50, 200):
            for na in range(1, Q + 3):
                for k in range(1, math.isqrt(4 * na - 1) + 1):
                    a, b = -na, k * k - 2 * na - 2
                    disc = a * a - 4 * b + 8
                    if is_perfect_square(disc) is not None:
                        assert b == 2 or b == a + 1 or a + b == 1, (a, b, k)


class TestClosedFormsAgainstLoops:
    """The closed-form counts against the row-by-row scans of tests/oracles."""

    def test_every_small_q(self):
        for Q in range(2, 600):
            assert count_salem_deg4(Q) == count_salem_deg4_loop(Q), Q
            assert count_sr(Q) == count_sr_loop(Q), Q
            if Q >= 3:
                assert count_deg2(Q) == count_deg2_loop(Q), Q

    def test_seeded_random_q(self):
        rng = random.Random(20011)
        for Q in (rng.randrange(600, 3 * 10**5 + 1) for _ in range(20)):
            assert count_salem_deg4(Q) == count_salem_deg4_loop(Q), Q
            assert count_deg2(Q) == count_deg2_loop(Q), Q
        # the square-rootable scan is O(Q^1.5): 20 draws up to 1e4 cost
        # about as much as one at 3e5
        for Q in (rng.randrange(600, 10**4 + 1) for _ in range(20)):
            assert count_sr(Q) == count_sr_loop(Q), Q

    def test_deg4_enumeration_skips_exactly_the_reducible(self):
        # the three reducible b of each row against the per-candidate
        # discriminant filter; every Q below 100, then every tenth (a row's
        # lambda floor binds only in the top four rows of each Q)
        for Q in [*range(2, 100), *range(100, 250, 10), 249]:
            expected = enumerate_deg4_filter(Q)
            assert [(r.a, r.b, r.k) for r in enumerate_salem_deg4(Q)] == expected, Q
            assert len(expected) == count_salem_deg4(Q), Q

    def test_sr_enumeration_skips_exactly_the_reducible(self):
        # the skip set of the reducible families against the per-candidate
        # discriminant filter
        for Q in range(2, 300):
            expected = enumerate_sr_filter(Q)
            assert [(r.a, r.b, r.k) for r in enumerate_sr(Q)] == expected, Q
            assert len(expected) == count_sr(Q), Q

    def test_sr_error_term(self):
        # the paper's count (4/3) Q^(3/2) + O(Q); the error is about -Q/2
        for Q in (10**6, 10**7, 10**8, 10**9):
            assert abs(count_sr(Q) - 4 / 3 * Q**1.5) <= Q, Q

    def test_sr_second_order_term(self):
        # (4/3) Q^(3/2) - Q/2 + O(Q^(1/2)) in 80-digit decimals, which
        # resolve Q/2 next to Q^(3/2) up to Q = 1e30; the residual over
        # sqrt(Q) read [-4.2641, -4.0732] over 4,162 Q in [1e4, 1e30]
        rng = random.Random(3)
        qs = [*(10**e + j for e in range(4, 31) for j in (-1, 0, 1)),
              *(int(10 ** rng.uniform(4, 30)) for _ in range(300))]
        Dec = decimal.Decimal
        with decimal.localcontext() as ctx:
            ctx.prec = 80
            for Q in qs:
                s = Dec(Q).sqrt()
                resid = count_sr(Q) - Dec(4) / 3 * Q * s + Dec(Q) / 2
                assert Dec("-4.3") * s <= resid <= Dec("-4.0") * s, (Q, resid / s)

    def test_sr_count_at_1e9_is_fast(self):
        t0 = time.perf_counter()
        count_sr(10**9)
        assert time.perf_counter() - t0 < 1.0


class TestBoxSums:
    """The scan boxes that census loops once walked, in tests/oracles.py:
    they bound the censuses, and count_sr runs the sr box's closed form."""

    def test_examples(self):
        assert box_sums(2) == (9, 36)
        assert box_sums(0) == (3, 10)

    def test_deg4_closed_form(self):
        for Q in (0, 1, 7, 100, 999):
            assert box_sums(Q)[1] == (Q + 2) * (2 * Q + 5)

    def test_sr_box_matches_its_definition(self):
        for Q in range(0, 300):
            direct = sum(math.ceil(math.sqrt(4 * j)) - 1 for j in range(1, Q + 3))
            assert _isqrt_sum(Q + 2) == direct == box_sums(Q)[0]

    def test_sandwich_bounds(self):
        for Q in (10, 100, 1000, 10**4):
            s_sr, s_deg4 = box_sums(Q)
            assert count_salem_deg4(Q) <= s_deg4
            assert count_sr(Q) <= s_sr


class TestDeg2Census:
    def test_formula(self):
        assert count_deg2(3) == 1
        assert count_deg2(10) == 8
        assert count_deg2(10**6) == 999998

    def test_rejects_small_q(self):
        with pytest.raises(DomainError):
            count_deg2(2)

    def test_smallest_member_is_golden_ratio_square(self):
        # a = -3 gives lambda = (3 + sqrt(5))/2, the square of the golden ratio
        lam = (3 + math.sqrt(5)) / 2
        assert count_deg2(3) == 1 and lam <= 3


class TestCsv:
    def test_header_and_row_format(self):
        assert CENSUS_CSV_HEADER == "a,b,k,lambda,source"
        rec = next(iter(enumerate_sr(3)))
        assert census_csv_row(rec) == "-1,-3,1,2.36920540709,direct"

    def test_empty_k_field(self):
        rec = next(iter(enumerate_salem_deg4(2)))  # (-1, -1), p(-1) = 3
        assert census_csv_row(rec) == "-1,-1,,1.72208380574,direct"


def test_sr_tuple_stream_matches_records():
    # the per-candidate filter past the every-Q range of
    # test_sr_enumeration_skips_exactly_the_reducible
    recs = list(enumerate_sr(2000))
    assert [(r.a, r.b, r.k) for r in recs] == enumerate_sr_filter(2000)
    # lambda takes salem_value's float steps, bit for bit
    assert [r.lambda_approx for r in recs] == [salem_value((r.a, r.b)) for r in recs]


@pytest.mark.parametrize("which, count", [("deg4", count_salem_deg4), ("sr", count_sr)])
def test_row_kernel_sums_to_the_count(which, count):
    # each row is range(lo, hi) less the skipped values that fall in it
    for Q in range(2, 2000):
        total = 0
        for _, lo, hi, skip in _census_rows(which, Q):
            if lo < hi:
                total += hi - lo - len({s for s in skip if lo <= s < hi})
        assert total == count(Q), Q


@pytest.mark.parametrize("Q", [1, 0, -5, 2.0, "10"])
def test_one_q_check_for_every_census(Q):
    from salemcensus.bianchi import bianchi_census
    from salemcensus.totally_real import count_system, enumerate_system

    for census_of in (count_sr, count_salem_deg4, lambda q: list(enumerate_sr(q)),
                      lambda q: list(enumerate_salem_deg4(q)),
                      lambda q: count_system(2, q), lambda q: list(enumerate_system(2, q)),
                      lambda q: bianchi_census(1, q)):
        with pytest.raises(DomainError, match=rf"^Q must be an integer >= 2, got {Q}$"):
            census_of(Q)
