"""Fidelities, error bounds and advantage maps for channel position finding
on bosonic pure-loss channels."""

from .bounds import (
    BoundsResult,
    classical_perr_lower,
    evaluate_bounds,
    log10_bound_ratio,
    perr_lower,
    perr_upper,
    perr_upper_raw,
)
from .errors import N_S_MAX, CpfError, DomainError, InvalidStateError, NumericError
from .gaussian import (
    GaussianState,
    PhysicalityReport,
    check_physical,
    fidelity_from_arrays,
    gaussian_fidelity,
    pure_loss,
    symplectic_eigenvalues,
    symplectic_form,
)
from .probes import (
    ProtocolKind,
    bipartite_probe,
    build_probe,
    max_symmetric_correlation,
    mixed_probe,
    symmetric_cm,
)
from .protocols import FidelityReport, Scenario, output_fidelity
from .scan import (
    PROTOCOL_IDS,
    KappaResult,
    RegionGrid,
    RegionSpec,
    fidelity,
    optimize_kappa,
    region_scan,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsResult",
    "CpfError",
    "DomainError",
    "FidelityReport",
    "GaussianState",
    "InvalidStateError",
    "KappaResult",
    "N_S_MAX",
    "NumericError",
    "PROTOCOL_IDS",
    "PhysicalityReport",
    "ProtocolKind",
    "RegionGrid",
    "RegionSpec",
    "Scenario",
    "bipartite_probe",
    "build_probe",
    "check_physical",
    "classical_perr_lower",
    "evaluate_bounds",
    "fidelity",
    "fidelity_from_arrays",
    "gaussian_fidelity",
    "log10_bound_ratio",
    "max_symmetric_correlation",
    "mixed_probe",
    "optimize_kappa",
    "output_fidelity",
    "perr_lower",
    "perr_upper",
    "perr_upper_raw",
    "pure_loss",
    "region_scan",
    "symmetric_cm",
    "symplectic_eigenvalues",
    "symplectic_form",
]
