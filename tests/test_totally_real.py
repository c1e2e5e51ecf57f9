import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salemcensus import totally_real
from salemcensus.algebra import floor_root
from salemcensus.cli import main
from salemcensus.errors import CapacityError, DomainError
from salemcensus.totally_real import (
    SYSTEM_CSV_HEADER,
    _iter_a_coords,
    _iter_solutions,
    _k_rows,
    c2_upper_bound,
    count_bounds,
    count_system,
    enumerate_system,
    lattice_geometry,
    ring_square_root,
    system_csv_row,
    system_rows,
    verify_salem_over_L,
    volume_exact,
    volume_leading,
)

from oracles import (
    _embeddings,
    _mul,
    _sigma_signs,
    _sign_plus_root,
    count_system_pairs,
    count_system_walk,
    enumerate_system_walk,
    is_salem_oracle,
    lattice_delta_branch,
    ring_square_root_bruteforce,
    ring_square_root_float,
    square_free_sample,
    system_qmin,
    verify_salem_over_L_exact,
    verify_salem_over_L_numeric,
    volume_monte_carlo,
)

# Frozen by the independent float-with-exact-zero-guard enumeration oracle.
ORACLE_COUNTS = {
    (2, 10): 447, (2, 50): 3934, (2, 200): 30226,
    (5, 10): 741, (5, 50): 6378,
    (13, 10): 274, (13, 50): 2407,
}


def _solution(d, Q, au, av, ku, kv):
    """The solution of enumerate_system(d, Q) with these coordinates."""
    return next(s for s in enumerate_system(d, Q)
                if (s.a.u, s.a.v, s.k.u, s.k.v) == (au, av, ku, kv))


class TestEnumerateSystem:
    @pytest.mark.parametrize("d,Q", sorted(ORACLE_COUNTS))
    def test_counts_match_oracle(self, d, Q):
        assert count_system(d, Q) == ORACLE_COUNTS[(d, Q)]

    @pytest.mark.parametrize("d", [2, 5, 13])
    def test_enumerate_matches_fast_count(self, d):
        for Q in (10, 50, 150):
            assert sum(1 for _ in enumerate_system(d, Q)) == count_system(d, Q)

    def test_rational_section(self):
        # rational solutions must be exactly the (a, k) of the square-rootable
        # scan with the conjugate bound |a| < 4, i.e. a in {-1, -2, -3}
        sols = [(s.a.u, s.k.u, s.branch) for s in enumerate_system(2, 10)
                if s.a.v == 0 and s.k.v == 0]
        assert sorted(sols) == [(-3, 1, "both"), (-3, 2, "both"), (-3, 3, "both"),
                                (-2, 1, "both"), (-2, 2, "both"), (-1, 1, "both")]

    def test_rational_a_outside_conjugate_window_rejected(self):
        # a = -5 satisfies 0 < -a < Q+3 but sigma2(a) = -5 violates |sigma(a)| < 4
        assert not any(s.a.u == -5 and s.a.v == 0 for s in enumerate_system(2, 10))

    def test_identity_positive_a_rejected(self):
        # a = -5 + 4w has sigma1(a) = 0.657 > 0
        assert not any((s.a.u, s.a.v) == (-5, 4) for s in enumerate_system(2, 60))

    def test_exact_boundary_excluded(self):
        # sigma1(k)^2 = -4 sigma1(a) exactly for a = -11 - 6 sqrt2, k = 6 + 2 sqrt2;
        # the strict inequality must drop it (floats alone would keep it)
        assert not any((s.a.u, s.a.v, s.k.u, s.k.v) == (-11, -6, 6, 2)
                       for s in enumerate_system(2, 50))

    @pytest.mark.parametrize("d", [2, 5])
    def test_solution_invariants_exact(self, d):
        Q = 30

        def sig1(u, v):
            return _sigma_signs(d, (u, v))[0]

        def sig2(u, v):
            return _sigma_signs(d, (u, v))[1]

        for s in enumerate_system(d, Q):
            (au, av), (ku, kv) = (s.a.u, s.a.v), (s.k.u, s.k.v)
            kk = _mul(d, (ku, kv), (ku, kv))
            assert (s.b.d, s.b.u, s.b.v) == (d, kk[0] + 2 * au - 2, kk[1] + 2 * av)
            # every window inequality, decided by exact signs of coordinates
            assert sig1(au, av) < 0
            assert sig1(au + Q + 3, av) > 0
            assert sig2(au + 4, av) > 0 and sig2(au - 4, av) < 0
            assert sig1(ku, kv) > 0
            assert sig1(kk[0] + 4 * au, kk[1] + 4 * av) < 0
            assert sig2(ku + 4, kv) > 0 and sig2(ku - 4, kv) < 0
            plus = sig2(2 * ku - au + 4, 2 * kv - av) > 0
            minus = sig2(2 * ku + au - 4, 2 * kv + av) < 0
            assert {"plus": plus and not minus, "minus": minus and not plus,
                    "both": plus and minus}[s.branch]

    def test_validation(self):
        with pytest.raises(DomainError):
            count_system(12, 10)
        with pytest.raises(DomainError):
            count_system(2, 1)

    def test_workers_do_not_change_output(self, tmp_path):
        rows = [system_csv_row(s) for s in enumerate_system(2, 40)]
        table = "".join(f"{line}\n" for line in
                        ["# field=2 qmax=40", SYSTEM_CSV_HEADER, *rows])
        plot = f"300,{count_system(5, 300) / 300**1.5:.12g}\n"
        for workers in ("1", "3"):
            path = tmp_path / f"w{workers}.csv"
            assert main(["cocompact", "--field", "2", "--qmax", "40", "--out", str(path),
                         "--workers", workers]) == 0
            assert path.read_text() == table
            assert main(["cocompact", "--field", "5", "--qmax", "300", "--plot-data",
                         "--out", str(path), "--workers", workers]) == 0
            assert path.read_text().endswith(plot)

    def test_growth_exponent_window(self):
        from salemcensus.asymptotics import power_fit
        pts = [(q, count_system(2, q)) for q in (100, 200, 400, 800)]
        fit = power_fit(pts)
        assert 1.3 < fit.exponent < 1.7


class TestIntervalKernelAgainstWalks:
    """The exact interval kernel against the float-seeded walks it replaced.

    The walk runs once at Q = 149; the system at a smaller Q keeps exactly
    the rows whose a has sigma1(a) > -(Q+3), in the same order.
    """

    @pytest.mark.parametrize("d", [2, 3, 5, 13])
    def test_every_small_q(self, d):
        full = enumerate_system_walk(d, 149)
        qmin = [system_qmin(d, (au, av)) for au, av, *_ in full]
        for Q in range(2, 150):
            want = [row for row, q in zip(full, qmin) if q <= Q]
            assert count_system(d, Q) == len(want), Q
            assert list(_iter_solutions(d, Q)) == want, Q

    @pytest.mark.parametrize("d", [2, 3, 5, 13])
    def test_count_walk(self, d):
        for Q in (2, 3, 17, 64, 149, 400):
            assert count_system(d, Q) == count_system_walk(d, Q)

    @pytest.mark.parametrize("d", [2, 3, 5, 13])
    def test_public_enumeration_matches_walk(self, d):
        got = [(s.a.u, s.a.v, s.k.u, s.k.v, s.branch) for s in enumerate_system(d, 149)]
        assert got == enumerate_system_walk(d, 149)


@pytest.mark.parametrize("d, Q, rows, verified", [(10**15 + 37, 10**9, 750, 107),
                                                 (999_999_999_999_999_989, 10**10, 246, 40)])
def test_large_fields(d, Q, rows, verified):
    """Field parameters whose B^2 d no double holds exactly, the last the
    largest prime below the 1e18 limit of --field: the rows against the walk,
    their verification against the general exact tests, and the count."""
    got = list(system_rows(d, Q, verified=True))
    assert [(*r[:4], r[6]) for r in got] == enumerate_system_walk(d, Q)
    assert [r[7] for r in got] == [verify_salem_over_L_exact(d, (au, av), (ku, kv))
                                   for au, av, ku, kv, *_ in got]
    assert count_system(d, Q) == len(got) == rows
    assert sum(r[7] for r in got) == verified


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 13, 17, 101, 10**6 + 3])
def test_count_matches_the_pair_sum(d):
    """The count over k against the (a, k-row) pair sum it replaced at every
    Q < 300 and at seeded Q < 5000, and against the walk and the enumeration:
    the enumeration at Q keeps the solutions of Q = 299 whose a has
    system_qmin <= Q (test_every_small_q)."""
    rng = random.Random(d)
    extra = [rng.randrange(300, 5000) for _ in range(3)]
    for Q in [*range(2, 300), *extra]:
        assert count_system(d, Q) == count_system_pairs(d, Q), Q
    by_qmin = Counter(system_qmin(d, (au, av)) for au, av, *_ in _iter_solutions(d, 299))
    enumerated = 0
    for Q in range(2, 300):
        enumerated += by_qmin[Q]
        assert count_system(d, Q) == enumerated, Q
    for Q in (2, 3, 41, 157, 299):
        assert count_system(d, Q) == count_system_walk(d, Q) == \
            sum(1 for _ in _iter_solutions(d, Q)), Q


@pytest.mark.parametrize("d", [2, 3, 5, 13, 101, 10**6 + 3])
def test_bulk_a_rows_hold_eight(d):
    """Row B of the strip |sigma2(a)| < 4 holds the A = B (mod 2) with
    |A - B sqrt(d)| < 8, decided by exact sign tests: 8 of them for B != 0,
    7 for B = 0.  So every row of _iter_a_coords that neither bound on
    sigma1(a) clips holds 8 a."""
    step = 1 if d % 4 == 1 else 2
    for B in range(-60 * step, 61 * step, step):
        c = math.isqrt(B * B * d) * (1 if B > 0 else -1)
        row = [A for A in range(c - 12, c + 13) if (A - B) % 2 == 0
               and _sign_plus_root(A - 8, -B, d) < 0 < _sign_plus_root(A + 8, -B, d)]
        assert len(row) == (8 if B else 7), B
    Q = 1000
    rows = Counter(v for _, v, _, _ in _iter_a_coords(d, Q))
    # unclipped: sigma1(a) = sigma2(a) + B sqrt(d) stays in (-(Q+3), 0)
    bulk = [v for v in rows if v < 0 and 16 < (step * v) ** 2 * d < (Q - 1) ** 2]
    assert all(rows[v] == 8 for v in bulk) and max(rows.values()) <= 8
    assert len(bulk) >= len(rows) - 8


@pytest.mark.parametrize("d", [2, 3, 5, 13, 101, 10**6 + 3])
def test_exact_steps_within_the_bound(d, monkeypatch):
    calls = 0

    def counted(B, d):
        nonlocal calls
        calls += 1
        return floor_root(B, d)

    monkeypatch.setattr(totally_real, "floor_root", counted)
    for Q in (2, 3, 10, 100, 1000, 20000):
        calls = 0
        count_system(d, Q)
        steps = count_bounds(d, Q)[1]
        assert 0 < calls <= steps, Q
        if d < 100 and Q >= 1000:  # and the bound stays close
            assert steps <= 2 * calls


@pytest.mark.parametrize("d", [2, 3, 5, 13, 10**6 + 3])
def test_count_bounds_hold(d):
    for Q in (2, 3, 10, 100, 1000):
        solutions, _ = count_bounds(d, Q)
        a_rows = {}
        for _, v, _, _ in _iter_a_coords(d, Q):
            a_rows[v] = a_rows.get(v, 0) + 1
        k_rows = list(_k_rows(d, Q))
        assert max(a_rows.values(), default=0) <= 8
        assert all((hi - lo) // 2 + 1 <= 8 for *_, lo, hi in k_rows)
        assert count_system(d, Q) <= 8 * sum(a_rows.values()) * len(k_rows) <= solutions
        if Q == 1000 and d < 100:  # and the bound stays close
            assert solutions <= 1.8 * count_system(d, Q)


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 13, 17, 101])
def test_count_has_the_second_order_term(d):
    # (256/3) Q^(3/2) / |D_L| - 8 Q / |D_L|^(1/2) + O(Q^(1/2)): the residual lay in
    # [-5.4, 98.3] Q^(1/2) wherever it was measured (the module notes)
    D = lattice_geometry(d).disc
    for Q in [*(m * 10**e for e in range(4, 7) for m in (1, 3)), 10**7]:
        err = count_system(d, Q) - 256 / 3 * Q**1.5 / D + 8 * Q / math.sqrt(D)
        assert -10 <= err / math.sqrt(Q) <= 120, (Q, err / math.sqrt(Q))


def _disc(d, a, b):
    """a^2 - 4b + 8 on (u, v) coordinates."""
    aa = _mul(d, a, a)
    return aa[0] - 4 * b[0] + 8, aa[1] - 4 * b[1]


def _salem_over_L_unscreened(d, au, av, bu, bv):
    """sigma2(b + 2a + 2) > 0 and no square root of a^2 - 4b + 8 in o_L,
    decided by the oracle's signs and its float square root, which tests
    no norm."""
    disc = _disc(d, (au, av), (bu, bv))
    return (_sigma_signs(d, (bu + 2 * au + 2, bv + 2 * av))[1] > 0
            and ring_square_root_float(d, disc) is None)


class TestVerifySalemOverL:
    @pytest.mark.parametrize("d", [2, 3, 5, 13])
    def test_exact_equals_numeric_oracle(self, d):
        # the verifier reads (ii) and (iii) off the branch tag; the general
        # exact tests and the numeric oracle decide every condition
        sols = list(enumerate_system(d, 60))
        got = [verify_salem_over_L(d, s) for s in sols]
        coords = [((s.a.u, s.a.v), (s.k.u, s.k.v)) for s in sols]
        assert got == [verify_salem_over_L_exact(d, a, k) for a, k in coords]
        assert got == [verify_salem_over_L_numeric(d, a, k) for a, k in coords]
        assert 0 < sum(got) < len(got)
        for s in sols:
            # (iii) holds on every solution, and sigma2(disc) >= 0 iff 'both'
            (au, av), (ku, kv) = (s.a.u, s.a.v), (s.k.u, s.k.v)
            assert any(min(_sigma_signs(d, (4 - au + 2 * e * ku, -av + 2 * e * kv))) > 0
                       for e in (1, -1))
            disc = _disc(d, (au, av), (s.b.u, s.b.v))
            assert (_sigma_signs(d, disc)[1] >= 0) == (s.branch == "both")

    def test_frozen_true_example(self):
        # found by the independent numeric verification oracle
        s = _solution(2, 20, -10, -9, 1, 1)
        assert (s.b.u, s.b.v) == (-19, -16) and s.branch == "both"
        assert verify_salem_over_L(2, s)

    def test_rational_solution_fails_conjugate_condition(self):
        # a = -5, k = 1 is no system solution (sigma2(a) = -5), so the general
        # exact tests decide it: the identity quartic x^4 - 5x^3 - 11x^2 - 5x + 1
        # is Salem, but the conjugate embedding is the same quartic, with
        # roots off the unit circle
        assert is_salem_oracle(-5, -11)
        assert not verify_salem_over_L_exact(2, (-5, 0), (1, 0))
        # the rational system solutions fail (ii) the same way
        rational = [s for s in enumerate_system(2, 10) if s.a.v == 0 and s.k.v == 0]
        assert len(rational) == 6
        assert not any(verify_salem_over_L(2, s) for s in rational)

    def test_reducible_over_ring_fails(self):
        # a = -1, k = 2 (k^2 = -4a, no system solution): disc = 9 is a square
        assert not verify_salem_over_L_exact(2, (-1, 0), (2, 0))
        # a = -10 - 8 sqrt2, k = 4 + 2 sqrt2 passes (i)-(iii), but
        # disc = (10 + 8 sqrt2)^2, so only (iv) rejects it
        (au, av), k = (-10, -8), (4, 2)
        s = _solution(2, 20, au, av, *k)
        disc = _disc(2, (au, av), (s.b.u, s.b.v))
        kk = _mul(2, k, k)
        assert s.branch == "both" and _sigma_signs(2, (kk[0] + 4 * au, kk[1] + 4 * av))[1] > 0
        assert ring_square_root(2, *disc) in ((10, 8), (-10, -8))
        assert not verify_salem_over_L(2, s)
        assert not verify_salem_over_L_exact(2, (-10, -8), (4, 2))

    @pytest.mark.parametrize("d", [2, 3, 5, 13])
    def test_norm_screen_answers_as_the_ring_square_root(self, d, monkeypatch):
        # _salem_over_L screens disc = a^2 - 4b + 8 by nothing but ring_square_root, whose
        # first step is the norm test; every 'both' row up to Q = 200 gets the answer of
        # the unscreened oracle
        calls = []
        monkeypatch.setattr(totally_real, "ring_square_root",
                            lambda *x: calls.append(x) or ring_square_root(*x))
        both = [(au, av, bu, bv) for au, av, _, _, bu, bv, branch, _
                in totally_real.system_rows(d, 200) if branch == "both"]
        got = [totally_real._salem_over_L(d, *r) for r in both]
        assert got == [_salem_over_L_unscreened(d, *r) for r in both]
        assert 0 < sum(got) < len(got) and calls

    @pytest.mark.parametrize("d", [2, 3, 5, 13])
    def test_norm_screen_falls_back_on_square_discriminants(self, d, monkeypatch):
        # a = s + 2t and b = 2 + t (s + t) give disc = a^2 - 4b + 8 = s^2: whenever the
        # sign test lets such a pair through, ring_square_root is asked with its disc
        # and finds a root, as the unscreened oracle does
        calls = []
        monkeypatch.setattr(totally_real, "ring_square_root",
                            lambda *x: calls.append(x) or ring_square_root(*x))
        tried = 0
        for su, sv, tu, tv in itertools.product(range(-3, 4), repeat=4):
            ts = _mul(d, (tu, tv), (su + tu, sv + tv))
            a, b = (su + 2 * tu, sv + 2 * tv), (2 + ts[0], ts[1])
            assert _disc(d, a, b) == _mul(d, (su, sv), (su, sv))
            calls.clear()
            assert totally_real._salem_over_L(d, *a, *b) == _salem_over_L_unscreened(d, *a, *b)
            if calls:  # the sign test let it through to the square root, which finds one
                tried += 1
                assert calls == [(d, *_disc(d, a, b))] and not _salem_over_L_unscreened(d, *a, *b)
        assert tried > 100

    @pytest.mark.parametrize("argv", [
        ("cocompact", "--field", "5", "--qmax", "60", "--verified"),
        ("cocompact", "--field", "2", "--qmax", "30", "--verified", "--format", "json"),
        ("fit", "--series", "system", "--field", "13", "--qgrid", "100,200,400"),
        ("constants", "--c2-bound", "5"),
    ])
    def test_no_command_builds_an_element(self, argv, monkeypatch, capsys):
        # every command computes on integer coordinates: RealQuadElem and _like refuse here
        from salemcensus.algebra import RealQuadElem

        def refuse(*_):
            raise AssertionError("a RealQuadElem was built")

        monkeypatch.setattr(RealQuadElem, "__init__", refuse)
        monkeypatch.setattr(RealQuadElem, "_like", refuse)
        assert main([*argv]) == 0 and capsys.readouterr().out
        with pytest.raises(AssertionError):
            next(enumerate_system(5, 10))

    def test_verified_count_subset(self):
        total = count_system(2, 20)
        verified = sum(verify_salem_over_L(2, s) for s in enumerate_system(2, 20))
        assert verified == 156  # frozen by the independent oracle
        assert 0 < verified < total

    def test_verified_members_have_salem_identity_root(self):
        import numpy as np
        for s in enumerate_system(2, 15):
            if not verify_salem_over_L(2, s):
                continue
            (s1a, s2a), (s1b, s2b) = _embeddings(2, (s.a.u, s.a.v)), _embeddings(2, (s.b.u, s.b.v))
            roots = np.roots([1.0, s1a, s1b, s1a, 1.0])
            lam = max(z.real for z in roots if abs(z.imag) < 1e-9)
            assert lam > 1 + 1e-9
            conj = np.roots([1.0, s2a, s2b, s2a, 1.0])
            assert np.all(np.abs(np.abs(conj) - 1) < 1e-9)


class TestRingSquareRoot:
    def test_rational_squares(self):
        assert ring_square_root(2, 9, 0) in ((3, 0), (-3, 0))
        assert ring_square_root(2, 21, 0) is None

    def test_irrational_square(self):
        sq = _mul(2, (1, 1), (1, 1))  # 3 + 2 sqrt2
        root = ring_square_root(2, *sq)
        assert root is not None and _mul(2, root, root) == sq
        assert ring_square_root(2, sq[0] + 1, sq[1]) is None

    def test_negative_embedding_has_no_root(self):
        assert ring_square_root(2, 0, 1) is None  # sigma2 < 0

    @pytest.mark.parametrize("d", [2, 3, 5, 13])
    def test_zero_is_its_own_root(self, d):
        assert ring_square_root(d, 0, 0) == (0, 0)
        assert ring_square_root_bruteforce(d, (0, 0)) == (0, 0)
        assert ring_square_root_float(d, (0, 0)) == (0, 0)

    def test_field_is_validated(self):
        for d in (4, 1, 0, -5):
            with pytest.raises(DomainError):
                ring_square_root(d, 9, 0)

    def test_huge_square_exact(self):
        # near 10^40 neither oracle runs: the root is confirmed by squaring
        for d in (2, 5):
            x = (10**40 + 7, 3 * 10**39 + 1)
            sq = _mul(d, x, x)
            assert ring_square_root(d, *sq) in (x, (-x[0], -x[1]))
            assert ring_square_root(d, sq[0] + 1, sq[1]) is None
            assert ring_square_root(d, sq[0], sq[1] + 1) is None

    @settings(max_examples=300)
    @given(st.sampled_from([2, 3, 5, 13]), st.integers(-60, 60), st.integers(-60, 60),
           st.integers(-6, 6), st.integers(-6, 6))
    def test_near_squares_match_bruteforce(self, d, u, v, eu, ev):
        # (eu, ev) = (0, 0) is a square, (u, v) = (0, 0) with it the zero element
        sq = _mul(d, (u, v), (u, v))
        y = (sq[0] + eu, sq[1] + ev)
        root = ring_square_root(d, *y)
        brute = ring_square_root_bruteforce(d, y)
        assert (root is None) == (brute is None)
        assert (root is None) == (ring_square_root_float(d, y) is None)
        if root is not None:
            assert _mul(d, root, root) == y and root in (brute, (-brute[0], -brute[1]))

    @settings(max_examples=200)
    @given(st.sampled_from([2, 5, 13]), st.integers(-50, 50), st.integers(-50, 50))
    def test_roundtrip(self, d, u, v):
        assert ring_square_root(d, *_mul(d, (u, v), (u, v))) in ((u, v), (-u, -v))


class TestGeometry:
    def test_delta_values(self):
        assert lattice_geometry(5).delta == pytest.approx(2 * math.sqrt(7), rel=1e-12)
        assert lattice_geometry(2).delta == pytest.approx(2 * math.sqrt(6), rel=1e-12)
        # delta to the last bit, from the embedded diagonals 1 + w and 1 - w
        pins = {2: 4.898979485566356, 3: 5.65685424949238, 5: 5.291502622129181,
                13: 6.6332495807108, 21: 7.745966692414833, 1000003: 2828.4327815947827,
                999999999999999989: 1414213562.373095}
        assert {d: lattice_geometry(d).delta for d in pins} == pins

    def test_delta_bit_identical_to_the_branch_formula(self):
        # the diagonals (2 + h, 2 - h) and (2 - h, h - 2) of quadratic_basis, against a branch
        for d in square_free_sample(2, seed=22):
            assert lattice_geometry(d).delta == lattice_delta_branch(d), d

    def test_discriminants(self):
        assert lattice_geometry(5).disc == 5
        assert lattice_geometry(2).disc == 8
        assert lattice_geometry(13).disc == 13
        assert lattice_geometry(3).disc == 12

    def test_c2_bounds_frozen(self):
        assert c2_upper_bound(5) == pytest.approx(328.7062116475916, rel=1e-9)
        assert c2_upper_bound(2) == pytest.approx(187.4476170639053, rel=1e-9)

    def test_c2_decreasing_in_disc_at_fixed_delta(self):
        # formula shape: 2^6 (12 + 7d + d^2) / (3 |D_L|)
        geo5, geo13 = lattice_geometry(5), lattice_geometry(13)
        assert geo13.disc > geo5.disc
        val_at_5_delta = 2**6 * (12 + 7 * geo5.delta + geo5.delta**2) / (3 * geo13.disc)
        assert val_at_5_delta < c2_upper_bound(5)


class TestVolume:
    def test_leading_examples(self):
        assert volume_leading(1, 0.0, 100) == pytest.approx(8 / 3 * 1000, rel=1e-12)
        assert volume_leading(2, 0.0, 1) == 128.0

    def test_exact_examples(self):
        assert volume_exact(2, 0.0, 1) == 1024.0  # 48 (8/3) 4^(3/2)
        assert volume_exact(1, 0.0, 97) == pytest.approx(8 / 3 * 1000, rel=1e-12)
        assert volume_exact(1, 1.0, 96) == pytest.approx(8 / 3 * 1000 + 2 * 101, rel=1e-12)
        for h, delta, Q in ((1, 0.0, 10), (2, 1.0, 100), (3, 2.5, 10**6)):
            assert volume_leading(h, delta, Q) < volume_exact(h, delta, Q)

    def test_half_of_h1_is_the_sr_constant(self):
        for Q in (10, 100, 10**4):
            assert volume_leading(1, 0.0, Q) / 2 == (4 / 3) * Q**1.5

    def test_validation(self):
        for volume in (volume_leading, volume_exact):
            with pytest.raises(DomainError):
                volume(0, 0.0, 10)
            with pytest.raises(DomainError):
                volume(1, -1.0, 10)
            with pytest.raises(DomainError):
                volume(1, 0.0, 0)
            for delta in (math.nan, math.inf):
                with pytest.raises(DomainError):
                    volume(2, delta, 10)
            with pytest.raises(CapacityError):  # finite, but the volume is not
                volume(2, 1e308, 10)
        # the leading term fits, but 2 delta (M + delta) does not
        assert volume_leading(1, 1e154, 1) == 8 / 3
        with pytest.raises(CapacityError, match="the exact volume overflows"):
            volume_exact(1, 1e154, 1)

    def test_monte_carlo_matches_exact_volume(self):
        # 4e5 samples landed within 0.25% of the closed form at seeds 0-2 and 11;
        # the leading term alone is 19% below it at (2, 1.5, 100)
        for h, delta, Q in ((2, 1.0, 10**4), (2, 1.5, 100), (1, 0.0, 100), (3, 2.0, 500)):
            est = volume_monte_carlo(h, delta, Q, samples=1_000_000, seed=11)
            assert est == pytest.approx(volume_exact(h, delta, Q), rel=0.005), (h, delta, Q)

    def test_monte_carlo_deterministic(self):
        a = volume_monte_carlo(2, 1.0, 50, samples=10_000, seed=3)
        b = volume_monte_carlo(2, 1.0, 50, samples=10_000, seed=3)
        assert a == b


def test_csv_row_format():
    assert SYSTEM_CSV_HEADER == "a_u,a_v,k_u,k_v,b_u,b_v,branch,verified"
    s = _solution(2, 10, -3, 0, 1, 0)
    assert system_csv_row(s, True) == "-3,0,1,0,-7,0,both,1"
    assert system_csv_row(s) == "-3,0,1,0,-7,0,both,"
