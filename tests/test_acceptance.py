"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

from salemcensus.algebra import is_perfect_square
from salemcensus.asymptotics import omega_series, power_fit
from salemcensus.bianchi import bianchi_census, marklof_constant
from salemcensus.census import count_salem_deg4, count_sr, enumerate_salem_deg4, enumerate_sr
from salemcensus.cli import main
from salemcensus.errors import ContractError
from salemcensus.quartics import SalemQuartic, lift_half_power, salem_value
from salemcensus.totally_real import count_system, volume_exact, volume_leading

from oracles import at_minus_one, is_salem_oracle, omega_direct, root_margin, volume_monte_carlo


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {detail}")
    assert ok, detail


def test_criterion_01_deg2_exactness(capsys):
    t0 = time.perf_counter()
    results = {}
    for Q in (3, 10, 10**3, 10**6):
        code = main(["census", "deg2", "--qmax", str(Q)])
        out = capsys.readouterr().out.strip()
        results[Q] = (code, out)
    elapsed = time.perf_counter() - t0
    ok = all(code == 0 and out == str(Q - 2) for Q, (code, out) in results.items())
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        _report(1, ok, f"census deg2 exact Q-2 for Q in 3,10,1e3,1e6 ({elapsed:.2f}s < 1s)")


def test_criterion_02_deg4_recovery():
    t0 = time.perf_counter()
    c = count_salem_deg4(2000)
    ratio = c / (2 * 2000**2)
    fit = power_fit([(q, count_salem_deg4(q)) for q in (250, 500, 1000, 2000, 4000)])
    elapsed = time.perf_counter() - t0
    ok = 0.98 <= ratio <= 1.02 and 1.95 <= fit.exponent <= 2.05 and elapsed < 30
    _report(2, ok,
            f"count(2000)/(2Q^2)={ratio:.5f} in [0.98,1.02], "
            f"exponent={fit.exponent:.4f} in [1.95,2.05] ({elapsed:.1f}s < 30s)")


def test_criterion_03_sr_constant():
    t0 = time.perf_counter()
    c = count_sr(10**4)
    ratio = c / 10**6
    grid = [1000, 3162, 10000, 31623, 100000]
    fit = power_fit([(q, count_sr(q)) for q in grid])
    elapsed = time.perf_counter() - t0
    ok = (4 / 3 - 0.07 <= ratio <= 4 / 3 + 0.07
          and 1.45 <= fit.exponent <= 1.55 and elapsed < 60)
    _report(3, ok,
            f"count_sr(1e4)/Q^1.5={ratio:.5f} in [4/3-0.07, 4/3+0.07], "
            f"exponent={fit.exponent:.4f} in [1.45,1.55] ({elapsed:.1f}s < 60s)")


def test_criterion_04_bianchi_constants():
    lines = []
    ok = True
    for D in (1, 2, 5, 3, 7, 11):
        t0 = time.perf_counter()
        c = bianchi_census(D, 10**8)
        elapsed = time.perf_counter() - t0
        ratio = c.count / 10**4
        target = marklof_constant(D)
        rel = abs(ratio / target - 1)
        ok = ok and rel <= 0.10 and elapsed < 10
        lines.append(f"D={D}: {ratio:.4f} vs {target:.4f} ({rel:+.2%}, {elapsed:.1f}s)")
    _report(4, ok, "count/sqrt(Q) within 10% of pi/(4 sqrt D) | pi/(2 sqrt D): "
            + "; ".join(lines))


def test_criterion_05_square_rootability_identity():
    total = 0
    ok = True
    for D in (1, 2, 3, 7, 11):
        for A, B, _, _ in bianchi_census(D, 10**6).members():
            p = lift_half_power(SalemQuartic(A, B))
            k = is_perfect_square(at_minus_one(*p))
            ok = ok and k == abs(B - 2) and k is not None
            total += 1
    _report(5, ok, f"p(-1) is a perfect square for all {total} lifted quartics, "
            f"D in {{1,2,3,7,11}}, Q=1e6 (exact)")


def _salem_value_accepts(a, b):
    try:
        salem_value(SalemQuartic(a, b))
    except ContractError:
        return False
    return True


def test_criterion_06_oracle_equivalence():
    disagree = []
    excluded = 0
    for a in range(-60, 61):
        for b in range(-60, 61):
            mine = _salem_value_accepts(a, b)
            ref = is_salem_oracle(a, b)
            if mine != ref:
                if root_margin(a, b) < 1e-6:
                    excluded += 1
                else:
                    disagree.append((a, b))
    ok = not disagree and excluded < 10
    _report(6, ok, f"salem_value's exact tests vs numeric classifier on |a|,|b| <= 60: "
            f"{len(disagree)} disagreements, {excluded} margin exclusions (< 10)")


def test_criterion_07_pipeline_oracles():
    sr200 = {(r.a, r.b) for r in enumerate_sr(200)}
    filt200 = {(r.a, r.b) for r in enumerate_salem_deg4(200) if r.k is not None}
    eq = sr200 == filt200

    pending = {}
    for A, B, _, _ in bianchi_census(1, 10**4).members():
        p = lift_half_power(SalemQuartic(A, B))
        pending[(p.a, p.b)] = False
    for r in enumerate_sr(10**4):
        if (r.a, r.b) in pending:
            pending[(r.a, r.b)] = True
    subset = all(pending.values())
    ok = eq and subset
    _report(7, ok, f"enumerate_sr(200) == filtered deg4 ({len(sr200)} members); "
            f"bianchi lift subset of sr at D=1, Q=1e4 ({len(pending)} members)")


def test_criterion_08_system_growth():
    t0 = time.perf_counter()
    lines = []
    ok = True
    for d in (2, 5):
        pts = [(q, count_system(d, q)) for q in (250, 500, 1000, 2000, 4000)]
        fit = power_fit(pts)
        ok = ok and 1.40 <= fit.exponent <= 1.60
        lines.append(f"d={d}: exponent={fit.exponent:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120
    _report(8, ok, ", ".join(lines) + f" in [1.40,1.60] ({elapsed:.1f}s < 120s)")


def test_criterion_09_volume_consistency():
    exact = all(volume_leading(1, 0.0, Q) / 2 == (4 / 3) * Q**1.5
                for Q in (10, 100, 10**4, 10**6))
    h, delta, Q = 2, 1.0, 10**4
    target = volume_exact(h, delta, Q)
    est = volume_monte_carlo(h, delta, Q, samples=10**7, seed=0)
    rel = abs(est / target - 1)
    ok = exact and rel <= 0.002
    _report(9, ok, f"volume_leading(1,0,Q)/2 == (4/3)Q^1.5 exactly; MC oracle at h=2, "
            f"delta=1, 1e7 samples: {est:.6g} vs volume_exact {target:.6g} ({rel:.3%} <= 0.2%)")


def test_criterion_10_constants():
    from fractions import Fraction
    ok = Fraction(*omega_series(1)[-1]) == Fraction(2) == omega_direct(1)
    checks = []
    for D in (1, 2, 5, 3, 7, 11):
        expected = (math.pi / (2 * math.sqrt(D)) if D % 4 == 3
                    else math.pi / (4 * math.sqrt(D)))
        got = marklof_constant(D)
        checks.append(abs(got - expected) <= 1e-12)
    ok = ok and all(checks)
    _report(10, ok, "omega_series(1) = [2] exactly; marklof_constant matches the "
            "D mod 4 branch to 1e-12 for D in {1,2,5,3,7,11}")
