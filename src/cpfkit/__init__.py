"""Fidelities, error bounds and advantage maps for channel position finding
on bosonic pure-loss channels."""

from .bounds import perr_lower, perr_upper
from .errors import N_S_MAX, CpfError, DomainError, InvalidStateError, NumericError
from .gaussian import (
    GaussianState,
    PhysicalityReport,
    check_physical,
    fidelity_from_arrays,
    pure_loss,
    symplectic_form,
)
from .protocols import FidelityReport, ProtocolKind, Scenario
from .scan import PROTOCOL_IDS, RegionGrid, RegionSpec, fidelity, output_fidelity, region_scan

__version__ = "0.1.0"

__all__ = [
    "CpfError",
    "DomainError",
    "FidelityReport",
    "GaussianState",
    "InvalidStateError",
    "N_S_MAX",
    "NumericError",
    "PROTOCOL_IDS",
    "PhysicalityReport",
    "ProtocolKind",
    "RegionGrid",
    "RegionSpec",
    "Scenario",
    "check_physical",
    "fidelity",
    "fidelity_from_arrays",
    "output_fidelity",
    "perr_lower",
    "perr_upper",
    "pure_loss",
    "region_scan",
    "symplectic_form",
]
