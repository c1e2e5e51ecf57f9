"""The package's public names and the semantics of its record and value
types: repr, ==, hash, keyword construction, validation and immutability."""

import copy
import importlib
import pickle

import pytest

import salemcensus
from salemcensus import (
    BianchiCensus,
    CensusRecord,
    FitResult,
    LatticeGeometry,
    MultiplicityRow,
    RealQuadElem,
    SalemQuartic,
    SystemSolution,
)
from salemcensus.errors import DomainError

# every name salemcensus re-exports, by the submodule that defines it
PUBLIC = {
    "algebra": ["RealQuadElem", "is_perfect_square", "is_square_free"],
    "asymptotics": ["FitResult", "MultiplicityRow", "multiplicity_report", "power_fit"],
    "bianchi": ["BianchiCensus", "bianchi_census", "marklof_constant"],
    "census": ["CensusRecord", "box_sums", "count_deg2", "count_salem_deg4", "count_sr",
               "enumerate_salem_deg4", "enumerate_sr"],
    "errors": ["CapacityError", "ContractError", "DomainError"],
    "quartics": ["SalemQuartic", "lift_half_power", "salem_value"],
    "totally_real": ["LatticeGeometry", "SystemSolution", "c2_upper_bound", "count_system",
                     "enumerate_system", "lattice_geometry", "ring_square_root",
                     "verify_salem_over_L", "volume_exact", "volume_leading"],
}


class TestNamespace:
    @pytest.mark.parametrize("module,name",
                             [(m, n) for m, names in PUBLIC.items() for n in names])
    def test_name_is_the_submodules_object(self, module, name):
        got = getattr(__import__("salemcensus", fromlist=[name]), name)
        assert got is getattr(importlib.import_module(f"salemcensus.{module}"), name)

    def test_all_and_version(self):
        assert sorted(salemcensus.__all__) == sorted(n for names in PUBLIC.values() for n in names)
        assert salemcensus.__version__ == "0.1.0"

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            salemcensus.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            from salemcensus import no_such_name  # noqa: F401

    def test_submodules_import_from_the_package(self):
        from salemcensus import bianchi, totally_real

        assert bianchi is importlib.import_module("salemcensus.bianchi")
        assert totally_real.count_system is salemcensus.count_system


def _solution():
    a = RealQuadElem(5, -5, -11)
    return SystemSolution(a=a, k=RealQuadElem(5, 2, -1), b=RealQuadElem(5, -7, -25),
                          branch="plus")


# (constructor, its repr); every value is hashable
VALUES = [
    (lambda: SalemQuartic(a=-3, b=5), "SalemQuartic(a=-3, b=5)"),
    (lambda: RealQuadElem(d=5, u=1, v=-2), "RealQuadElem(d=5, u=1, v=-2)"),
    (lambda: CensusRecord(a=-1, b=-3, k=1, lambda_approx=2.5),
     "CensusRecord(a=-1, b=-3, k=1, lambda_approx=2.5, source='direct')"),
    (lambda: FitResult(constant=1.5, exponent=2.0, residual=0.01, points_used=5),
     "FitResult(constant=1.5, exponent=2.0, residual=0.01, points_used=5)"),
    (lambda: MultiplicityRow(ell=1.0, geodesic_count=2.0, salem_bound=3.0, mean_mult_lower=0.5),
     "MultiplicityRow(ell=1.0, geodesic_count=2.0, salem_bound=3.0, mean_mult_lower=0.5)"),
    (lambda: LatticeGeometry(d=5, h=2, disc=5, delta=5.291502622129181),
     "LatticeGeometry(d=5, h=2, disc=5, delta=5.291502622129181)"),
    (_solution, "SystemSolution(a=RealQuadElem(d=5, u=-5, v=-11), "
     "k=RealQuadElem(d=5, u=2, v=-1), b=RealQuadElem(d=5, u=-7, v=-25), branch='plus')"),
    (lambda: BianchiCensus(D=3, qmax=1000, count=25, traces_scanned=121, excluded_real=11,
                           excluded_imag_axis=6, excluded_reducible=0, excluded_over_q=1),
     "BianchiCensus(D=3, qmax=1000, count=25, traces_scanned=121, excluded_real=11, "
     "excluded_imag_axis=6, excluded_reducible=0, excluded_over_q=1)"),
]


class TestValueTypes:
    @pytest.mark.parametrize("make,text", VALUES,
                             ids=[text.split("(")[0] for _, text in VALUES])
    def test_repr_eq_hash(self, make, text):
        x, y = make(), make()
        assert repr(x) == text and x == y and x is not y
        assert copy.copy(x) == pickle.loads(pickle.dumps(x)) == x
        assert hash(x) == hash(y) and len({x, y}) == 1

    def test_values_match_the_computations(self):
        from salemcensus import bianchi_census, enumerate_system, lattice_geometry

        assert repr(bianchi_census(3, 1000)) == VALUES[-1][1]
        assert next(enumerate_system(5, 20)) == _solution()
        assert lattice_geometry(5) == VALUES[5][0]()

    def test_unequal_values(self):
        assert RealQuadElem(5, 1, 2) != RealQuadElem(5, 1, 3)
        assert RealQuadElem(5, 1, 2) != RealQuadElem(13, 1, 2)
        assert RealQuadElem(3, 1, 2) != BianchiCensus(3, 1, 2)
        assert BianchiCensus(3, 100) != BianchiCensus(3, 100, count=1)

    @pytest.mark.parametrize("make", [lambda: RealQuadElem(4, 0, 1), lambda: RealQuadElem(1, 0, 1),
                                      lambda: RealQuadElem(0, 0, 1), lambda: RealQuadElem(-5, 0, 1),
                                      lambda: RealQuadElem(12, 0, 1),
                                      lambda: RealQuadElem(2.0, 0, 1)])
    def test_validation(self, make):
        with pytest.raises(DomainError):
            make()

    @pytest.mark.parametrize("make,field", [(VALUES[i][0], f) for i, f in
                                            [(0, "a"), (1, "u"), (1, "v"), (2, "k"),
                                             (3, "exponent"), (4, "ell"), (5, "delta"),
                                             (6, "branch")]])
    def test_frozen(self, make, field):
        x = make()
        with pytest.raises(AttributeError):
            setattr(x, field, 0)
        with pytest.raises(AttributeError):
            x.new_field = 0
        assert getattr(x, field) != 0

    def test_bianchi_census_defaults_and_assignment(self):
        c = BianchiCensus(3, 100)
        assert (c.D, c.qmax) == (3, 100)
        assert [c.count, c.traces_scanned, c.excluded_real, c.excluded_imag_axis,
                c.excluded_reducible, c.excluded_over_q] == [0] * 6
        with pytest.raises(AttributeError):
            c.count += 2
        with pytest.raises(AttributeError):
            c.new_field = 0
        assert c._replace(count=2) == BianchiCensus(3, 100, count=2) and c.count == 0

    @pytest.mark.parametrize("d", [2, 5])
    def test_real_quad_elem_is_a_value_not_a_tuple(self, d):
        x = RealQuadElem(d, 1, 2)
        assert x != (d, 1, 2) and (d, 1, 2) != x
        with pytest.raises(TypeError):
            x < RealQuadElem(d, 1, 3)  # noqa: B015
        with pytest.raises(TypeError):
            iter(x)
        with pytest.raises(AttributeError):
            del x.u
        y = pickle.loads(pickle.dumps(x))
        assert y == x and y is not x and hash(y) == hash(x) and (y.d, y.u, y.v) == (d, 1, 2)
