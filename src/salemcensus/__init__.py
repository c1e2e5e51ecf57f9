"""Exact censuses of degree-4 Salem numbers and their asymptotics.

The public names below are re-exported from their submodules on first
access (PEP 562), so importing the package, or running one `salem`
command, loads only the submodules that are used.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": ("RealQuadElem", "is_perfect_square", "is_square_free"),
    "asymptotics": ("FitResult", "MultiplicityRow", "multiplicity_report", "power_fit"),
    "bianchi": ("BianchiCensus", "bianchi_census", "marklof_constant"),
    "census": ("CensusRecord", "count_deg2", "count_salem_deg4", "count_sr",
               "enumerate_salem_deg4", "enumerate_sr"),
    "errors": ("CapacityError", "ContractError", "DomainError"),
    "quartics": ("SalemQuartic", "lift_half_power", "salem_value"),
    "totally_real": ("LatticeGeometry", "SystemSolution", "c2_upper_bound", "count_system",
                     "enumerate_system", "lattice_geometry", "ring_square_root",
                     "verify_salem_over_L", "volume_exact", "volume_leading"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
