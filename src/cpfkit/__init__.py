"""Fidelities, error bounds and advantage maps for channel position finding
on bosonic pure-loss channels."""

from .bounds import perr_lower, perr_upper
from .errors import N_S_MAX, CpfError, DomainError, InvalidStateError, NumericError
from .gaussian import fidelity_from_arrays
from .protocols import FidelityReport, ProtocolKind, Scenario
from .scan import PROTOCOL_IDS, RegionGrid, RegionSpec, fidelity, output_fidelity, region_scan

__version__ = "0.1.0"

__all__ = [
    "CpfError",
    "DomainError",
    "FidelityReport",
    "InvalidStateError",
    "N_S_MAX",
    "NumericError",
    "PROTOCOL_IDS",
    "ProtocolKind",
    "RegionGrid",
    "RegionSpec",
    "Scenario",
    "fidelity",
    "fidelity_from_arrays",
    "output_fidelity",
    "perr_lower",
    "perr_upper",
    "region_scan",
]
