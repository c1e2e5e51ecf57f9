"""Exact censuses of degree-4 Salem numbers and their asymptotics."""

from .algebra import QuadIntK, RealQuadElem, is_perfect_square, is_square_free
from .asymptotics import FitResult, MultiplicityRow, multiplicity_report, omega, power_fit
from .bianchi import BianchiCensus, bianchi_census, marklof_constant, salem_from_trace
from .census import (
    CensusRecord,
    box_sums,
    count_deg2,
    count_salem_deg4,
    count_sr,
    enumerate_salem_deg4,
    enumerate_sr,
)
from .errors import CapacityError, ContractError, DomainError
from .quartics import (
    SalemQuartic,
    SqrtWitness,
    is_salem,
    lift_half_power,
    salem_le,
    salem_value,
    square_root_witness,
    verify_sqrt_factor,
)
from .totally_real import (
    LatticeGeometry,
    SystemSolution,
    c2_upper_bound,
    count_system,
    enumerate_system,
    lattice_geometry,
    ring_square_root,
    verify_salem_over_L,
    volume_leading,
    volume_monte_carlo,
)

__version__ = "0.1.0"
