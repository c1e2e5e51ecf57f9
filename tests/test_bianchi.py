import cmath
import json
import math
import random
import time

import pytest

from salemcensus.algebra import is_perfect_square
from salemcensus.bianchi import (
    BIANCHI_CSV_HEADER,
    BianchiCensus,
    _bands,
    _reducible,
    _reducible_residues,
    _rows,
    bianchi_census,
    census_bounds,
    bianchi_csv_row,
    bianchi_json_block,
    marklof_constant,
    row_count,
)
from salemcensus.census import enumerate_sr
from salemcensus.errors import DomainError
from salemcensus.quartics import SalemQuartic, lift_half_power, salem_value

from oracles import (
    at_minus_one,
    bianchi_census_dict,
    bianchi_census_scan,
    bianchi_members_merge,
    bianchi_rows_bisect,
    is_salem_oracle,
    marklof_constant_branch,
    quartic_at,
    sqrt_lambda_from_trace,
    square_free_sample,
    trace_complex,
    trace_conjugate,
    trace_norm,
    trace_quartic,
    trace_sq,
)


def _json_obj(D, m):
    """The JSON object of member m, as bianchi_json_block formats it."""
    return json.loads(f"[{bianchi_json_block(D, [m])}]")[0]


def _witnesses(D, m):
    """The witness traces of member m as (u, v) tuples, from its JSON."""
    return [tuple(t) for t in _json_obj(D, m)["witnesses"]]


def _with_witnesses(D, c):
    """[(A, B, witnesses)] of the members of census c."""
    return [(m[0], m[1], _witnesses(D, m)) for m in c.members()]


def _tallies_sum(c):
    """Whether census c's tallies add up to the traces it scanned: every
    field counts traces but count and excluded_over_q, which count keys of
    four traces each."""
    return c.traces_scanned == (c.excluded_real + c.excluded_imag_axis + c.excluded_reducible
                                + 4 * (c.count + c.excluded_over_q))


class TestSalemFromTrace:
    """The oracles' per-trace map t -> (A, B), which the census applies to
    whole rows of traces."""

    def test_worked_example(self):
        p = SalemQuartic(*trace_quartic(1, 1, 2))  # t = 1 + 2i
        assert p == SalemQuartic(-5, -8)
        assert lift_half_power(p) == SalemQuartic(-41, 16)
        assert is_perfect_square(at_minus_one(*lift_half_power(p))) == 10

    def test_rejects_real_trace(self):
        assert trace_quartic(1, 3, 0) is None

    def test_rejects_imaginary_axis(self):
        # t = 2i: y-polynomial z^2 - 4z - 12 = (z-6)(z+2), reducible
        assert trace_quartic(1, 0, 2) is None

    def test_rejects_rational_y(self):
        # t = 2 + 3i: disc = 13^2 - 4*(-10) + 16 = 225 = 15^2
        assert trace_quartic(1, 2, 3) is None

    def test_y_quadratic_against_eigenvalue_oracle(self):
        p = SalemQuartic(*trace_quartic(1, 1, 2))
        s = sqrt_lambda_from_trace(1 + 2j)  # |mu|^2 for trace t
        assert s == pytest.approx(6.3742476137085315, rel=1e-12)
        y = s + 1 / s
        # y is the larger root of z^2 - N z + (Tr t^2 - 4) = z^2 + A z + (B - 2)
        assert y * y + p.a * y + (p.b - 2) == pytest.approx(0.0, abs=1e-9)
        assert salem_value(lift_half_power(p)) == pytest.approx(s * s, rel=1e-9)

    def test_accepted_traces_give_salem_quartics(self):
        for D in (1, 2, 3, 7):
            c = bianchi_census(D, 10**4)
            for A, B, _, _ in c.members():
                assert is_salem_oracle(A, B)
                assert A < 0


def _traces_in_disk(D, R):
    """The coordinates (u, v) of every trace t with N(t) <= R."""
    out = []
    half = D % 4 == 3
    if half:
        vmax = math.isqrt(4 * R // D)
        for v in range(-vmax, vmax + 1):
            wmax = math.isqrt(4 * R - D * v * v)
            for u in range((-wmax - v + 1) // 2, (wmax - v) // 2 + 1):
                out.append((u, v))
    else:
        vmax = math.isqrt(R // D)
        for v in range(-vmax, vmax + 1):
            umax = math.isqrt(R - D * v * v)
            for u in range(-umax, umax + 1):
                out.append((u, v))
    return out


class TestTraceSymmetry:
    @pytest.mark.parametrize("D", [1, 2, 3, 7])
    def test_four_symmetric_traces_share_the_key(self, D):
        for u, v in _traces_in_disk(D, 100):
            m = trace_quartic(D, u, v)
            bu, bv = trace_conjugate(D, u, v)
            for s in ((-u, -v), (bu, bv), (-bu, -bv)):
                assert trace_quartic(D, *s) == m


class TestSpectralIdentity:
    def test_cosh_of_length_matches_y_root(self):
        rng = random.Random(7)
        accepted = []
        for t in _traces_in_disk(1, 2500):
            m = trace_quartic(1, *t)
            if m is not None:
                accepted.append((t, m))
        assert len(accepted) >= 1000
        for t, m in rng.sample(accepted, 1000):
            z = trace_complex(1, *t)
            disc = cmath.sqrt(z * z - 4)
            mu = max((z + disc) / 2, (z - disc) / 2, key=abs)
            # real length ell has e^(ell/2) = |mu|, so 2 cosh(ell) is
            # |mu|^2 + |mu|^-2 = lambda^(1/2) + lambda^(-1/2)
            y_num = abs(mu) ** 2 + abs(mu) ** -2
            n, tr2 = trace_norm(1, *t), trace_sq(1, *t)
            y_exact = (n + math.sqrt(n * n - 4 * (tr2 - 4))) / 2
            assert y_num == pytest.approx(y_exact, rel=1e-9)
            assert m == (-n, tr2 - 2)


class TestCensus:
    def test_counts_at_scale(self):
        # frozen from the scratch implementation, cross-validated against
        # the predicted constants within ~2%
        assert bianchi_census(1, 10**8).count == 7750
        assert bianchi_census(3, 10**8).count == 8994

    def test_members_subset_of_sr_census(self):
        c = bianchi_census(1, 50)
        sr = {(r.a, r.b) for r in enumerate_sr(50)}
        for A, B, _, _ in c.members():
            p = lift_half_power(SalemQuartic(A, B))
            assert (p.a, p.b) in sr

    def test_lambda_cut_is_exact(self):
        for A, B, _, _ in bianchi_census(1, 10**4).members():
            assert salem_value(lift_half_power(SalemQuartic(A, B))) <= 10**4 + 1e-6

    def test_deduplication_key_and_witnesses(self):
        for D in (1, 3):
            c = bianchi_census(D, 10**6)
            keys = [m[:2] for m in c.members()]
            assert len(keys) == len(set(keys))
            for m in c.members():
                # exactly the sign orbit (+-w, +-v) of the quadrant trace (w, v)
                traces = _witnesses(D, m)
                wv = {(2 * u + v if D % 4 == 3 else 2 * u, v) for u, v in traces}
                w, v = max(wv)
                assert len(traces) == 4 and w > 0 and v > 0 and (w, v) == m[2:]
                assert wv == {(sw * w, sv * v) for sw in (-1, 1) for sv in (-1, 1)}
                for t in traces:
                    assert trace_quartic(D, *t) == m[:2]

    @pytest.mark.parametrize("D", [1, 2, 3, 5, 7, 11, 15, 19, 163, 1365])
    def test_quadrant_scan_matches_the_disk_scan(self, D):
        for Q in [*range(2, 300), 10**4, 10**6, 10**8]:
            c = bianchi_census(D, Q)
            members, tallies = bianchi_census_dict(D, Q)
            assert _with_witnesses(D, c) == members, Q
            assert (c.traces_scanned, c.excluded_real, c.excluded_imag_axis,
                    c.excluded_reducible, c.excluded_over_q) == tallies, Q
            assert _tallies_sum(c), Q

    def test_diagnostics_tally(self):
        c = bianchi_census(1, 50)
        assert c.excluded_real > 0 and c.excluded_imag_axis > 0
        rng = random.Random(1)
        for D in [1, 2, 3, 5, 6, 7, 11, 15, 19, 163]:
            for Q in [*range(2, 400), *(rng.randrange(400, 10**12) for _ in range(30))]:
                assert _tallies_sum(bianchi_census(D, Q)), (D, Q)

    @pytest.mark.parametrize("D", [1, 3, 7])
    def test_census_agrees_with_per_trace_map(self, D):
        # dual route: the census scan uses raw integer arithmetic; rebuild
        # the member set through the per-trace map of the oracles and the
        # exact lambda cut on the lifted quartic
        Q = 3000
        expected = set()
        for t in _traces_in_disk(D, math.isqrt(Q) + 3):
            m = trace_quartic(D, *t)
            if m is None:
                continue
            if quartic_at(*lift_half_power(SalemQuartic(*m)), Q) >= 0:
                expected.add(m)
        got = {m[:2] for m in bianchi_census(D, Q).members()}
        assert got == expected

    @pytest.mark.parametrize("D", [1, 3, 7])
    def test_row_kernel_matches_the_quadrant_scan(self, D):
        # Q = 1e10 is out of the disk scan's reach
        c = bianchi_census(D, 10**10)
        members, tallies = bianchi_census_scan(D, 10**10)
        assert _with_witnesses(D, c) == members
        assert c.count == len(members)
        assert (c.traces_scanned, c.excluded_real, c.excluded_imag_axis,
                c.excluded_reducible, c.excluded_over_q) == tallies

    @pytest.mark.parametrize("D", [1, 2, 3, 5, 7, 11, 15, 19, 163])
    def test_row_cut_matches_the_binary_search(self, D):
        # the closed-form cut of each row against a binary search of the
        # exact p(Q) >= 0 test, past the reach of the scans
        rng = random.Random(D)
        for Q in [*range(2, 200), *(rng.randrange(2, 10**14) for _ in range(6)),
                  10**14 - 1, 10**14, 10**14 + 1]:
            assert [(v, kept) for v, _, _, kept, _ in _rows(D, Q)] == bianchi_rows_bisect(D, Q), Q

    def test_residue_test_keeps_every_reducible_row(self):
        # _rows searches a row for reducible w only if its E v^2 passes
        residues = _reducible_residues()
        hits = [x for x in range(1, 200_000) if _reducible(x, 10**6)]
        assert len(hits) > 50 and all(residues >> x % 576 & 1 for x in hits)
        assert bin(residues).count("1") == 75  # of the 576 residues

    def test_band_stream_equals_the_heap_merge(self):
        # every Q below 2000 and random Q to 1e10, which hold rows that keep
        # no w and rows that keep a reducible w
        empty = reducible = 0
        for D in (1, 2, 3, 7, 11, 163, 1365):
            rng = random.Random(D)
            for Q in [*range(2, 2000), *(int(10 ** rng.uniform(4, 10)) for _ in range(4))]:
                rows = list(_rows(D, Q))
                got = list(bianchi_census(D, Q).members())
                assert got == list(bianchi_members_merge(rows)), (D, Q)
                empty += sum(kept == 0 for _, _, _, kept, _ in rows)
                reducible += sum(w < ws.start + 2 * kept for _, _, ws, kept, red in rows
                                 for w in red)
        assert empty > 1000 and reducible > 1000

    @pytest.mark.parametrize("D", [1, 2, 3, 7, 163, 1365])
    def test_a_band_holds_at_most_16_members_a_row(self, D):
        # bands of about 8 members a row keep the live state O(Q^(1/4))
        for Q in [*range(2, 500), 10**6, 10**8, 3 * 10**9, 10**12]:
            c = bianchi_census(D, Q)
            sizes = [len(band) for band in _bands(D, Q)]
            assert sum(sizes) == c.count, Q
            assert max(sizes, default=0) <= 16 * row_count(D, Q), Q

    @pytest.mark.parametrize("D", [1, 3, 163])
    def test_members_read_only_d_and_qmax(self, D):
        # a count set by the caller no longer sizes the bands: 1e30 made one band a
        # member (9.95 s at D = 3, Q = 1e10), 0 one band of them all
        for Q in (2, 100, 10**6, 10**10):
            want = list(bianchi_members_merge(list(_rows(D, Q))))
            for count in (0, 1, 10**30):
                t0 = time.perf_counter()
                got = list(bianchi_census(D, Q)._replace(count=count).members())
                assert time.perf_counter() - t0 < 1.0, (Q, count)
                assert got == want, (Q, count)

    def test_members_stream_again_on_each_iteration(self):
        c = bianchi_census(2, 10**6)
        first = list(c.members())
        assert len(first) == c.count
        assert list(c.members()) == first

    @pytest.mark.parametrize("D", [1, 2, 3, 7, 11, 19, 163])
    def test_count_is_marklof_sqrt_q_plus_o_q_quarter(self, D):
        # the abstract's c Q^(1/2) + O(Q^(1/4)), with a fixed constant 1.25
        for Q in (10**e for e in range(6, 17, 2)):
            err = bianchi_census(D, Q).count - marklof_constant(D) * math.sqrt(Q)
            assert abs(err) <= 1.25 * Q**0.25, (Q, err / Q**0.25)

    @pytest.mark.parametrize("D", [1, 2, 3, 7, 11])
    def test_count_has_the_second_order_term(self, D):
        # c Q^(1/2) - (1 + D^(-1/2))/2 Q^(1/4) + O(Q^(1/6)): the residual
        # peaked at 0.334 Q^(1/6) (D = 3, Q = 3e10) on this grid
        for Q in [*(m * 10**e for e in range(10, 20) for m in (1, 3)), 10**20]:
            err = (bianchi_census(D, Q).count - marklof_constant(D) * math.sqrt(Q)
                   + (1 + D**-0.5) / 2 * Q**0.25)
            assert abs(err) <= 0.4 * Q ** (1 / 6), (Q, err / Q ** (1 / 6))

    @pytest.mark.parametrize("D", [1, 2, 3, 7, 163])
    def test_census_bounds_hold(self, D):
        # one cut formula a row, priced at 5 steps
        for Q in (2, 3, 10, 1000, 10**6, 10**8, 10**12):
            members, steps = census_bounds(D, Q)
            lens = [len(ws) for _, _, ws, _, _ in _rows(D, Q)]
            count = bianchi_census(D, Q).count
            assert count <= sum(lens) <= members
            assert steps == 5 * row_count(D, Q) == 5 * len(lens)
            if Q >= 10**8:  # and the bound stays close
                assert members <= 1.35 * count

    def test_validation(self):
        with pytest.raises(DomainError):
            bianchi_census(12, 100)
        with pytest.raises(DomainError):
            bianchi_census(1, 1)
        # members() checks D and qmax as bianchi_census does
        with pytest.raises(DomainError, match="D must be a square-free integer >= 1, got 12"):
            BianchiCensus(12, 100).members()
        with pytest.raises(DomainError, match="Q must be an integer >= 2, got 1"):
            BianchiCensus(3, 1).members()


class TestMarklofConstant:
    def test_values(self):
        assert marklof_constant(1) == pytest.approx(math.pi / 4, abs=1e-12)
        assert marklof_constant(3) == pytest.approx(math.pi / (2 * math.sqrt(3)), abs=1e-12)
        assert marklof_constant(2) == pytest.approx(math.pi / (4 * math.sqrt(2)), abs=1e-12)

    def test_rejects_non_square_free(self):
        with pytest.raises(DomainError):
            marklof_constant(8)

    def test_bit_identical_to_the_branch_formula(self):
        # pi / (2 sqrt(E)) with E = D or 4D, against pi / (2 or 4) / sqrt(D) by D mod 4
        for D in square_free_sample(1, seed=21):
            assert marklof_constant(D) == marklof_constant_branch(D), D


class TestSerialization:
    # t = 1 + 2i at D = 1: the member (A, B) = (-5, -8) with (w, v) = (2, 2)
    MEMBER = (-5, -8, 2, 2)

    def test_csv_row(self):
        assert self.MEMBER in bianchi_census(1, 100).members()
        assert BIANCHI_CSV_HEADER == "A,B,a_lift,b_lift,k,lambda,num_witness_traces"
        assert bianchi_csv_row(self.MEMBER) == "-5,-8,-41,16,10,40.6310326409,4"

    def test_json_mirror(self):
        obj = _json_obj(1, self.MEMBER)
        assert obj["A"] == "-5" and obj["k"] == "10"
        assert obj["witnesses"] == [[-1, -2], [1, -2], [-1, 2], [1, 2]]
        # D = 3 (mod 4): 2 Re(t) = 2u + v, so u = (+-w -+ v) / 2
        m = (-3, 1, 3, 1)
        assert m in bianchi_census(3, 10**4).members()
        assert _json_obj(3, m)["witnesses"] == [[-1, -1], [2, -1], [-2, 1], [1, 1]]
