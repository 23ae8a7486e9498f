"""Probe states for channel position finding under a fixed energy budget.

Every probe spends the same mean photon number N_S per mode sent through a
box.  The classical probe spends it all on coherent amplitude, the idler-free
probe spends it all on symmetric Gaussian correlations, and the mixed probe
splits it: a fraction kappa goes into correlations, the rest into amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .gaussian import GaussianState

_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


class ProtocolKind(str, Enum):
    CLASSICAL = "classical"
    BIPARTITE = "bipartite"
    IDLER_FREE = "idler_free"
    MIXED = "mixed"


@dataclass(frozen=True)
class ProbeSpec:
    """Which probe to build: protocol kind, box count m, energy N_S per mode.

    ``kappa`` is the correlation fraction and is meaningful (and required)
    only for the mixed protocol.
    """

    kind: ProtocolKind
    m: int
    n_s: float
    kappa: float | None = None

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 2:
            raise DomainError(f"m must be an integer >= 2, got {self.m}")
        if not (self.n_s >= 0 and math.isfinite(self.n_s)):
            raise DomainError(f"n_s must be nonnegative and finite, got {self.n_s}")
        if self.kind is ProtocolKind.MIXED:
            if self.kappa is None or not 0.0 <= self.kappa <= 1.0:
                raise DomainError(
                    f"mixed probes need kappa in [0, 1], got {self.kappa}"
                )
        elif self.kappa is not None:
            raise DomainError(f"kappa is only meaningful for mixed probes, got {self.kappa}")


def symmetric_cm(m: int, mu: float, c: float) -> np.ndarray:
    """Fully symmetric m-mode covariance: mu*I on the diagonal, c*Z off it."""
    cm = np.zeros((2 * m, 2 * m))
    for i in range(m):
        for j in range(m):
            block = mu * np.eye(2) if i == j else c * _Z
            cm[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = block
    return cm


def max_symmetric_correlation(m: int, mu: float) -> float:
    """Largest physical c for the fully symmetric covariance, sqrt(mu^2-1)/(m-1)."""
    if m < 2:
        raise DomainError(f"m must be at least 2, got {m}")
    if mu < 1.0:
        raise DomainError(f"mu must be at least 1, got {mu}")
    return math.sqrt(mu * mu - 1.0) / (m - 1)


def classical_probe(m: int, n_s: float) -> GaussianState:
    """m identical coherent states of amplitude sqrt(n_s), one per box."""
    spec = ProbeSpec(ProtocolKind.CLASSICAL, m, n_s)
    mean = np.zeros(2 * spec.m)
    mean[0::2] = 2.0 * math.sqrt(spec.n_s)
    return GaussianState(mean, np.eye(2 * spec.m))


def bipartite_probe(n_s: float) -> GaussianState:
    """Two-mode squeezed vacuum with signal energy n_s: mode 0 idler, mode 1 signal."""
    if n_s < 0:
        raise DomainError(f"n_s must be nonnegative, got {n_s}")
    mu = 2.0 * n_s + 1.0
    return GaussianState(np.zeros(4), symmetric_cm(2, mu, math.sqrt(mu * mu - 1.0)))


def idler_free_probe(m: int, n_s: float) -> GaussianState:
    """Fully symmetric zero-mean m-mode probe at the physicality boundary.

    The cross-correlation sits at its maximum sqrt(mu^2-1)/(m-1), where the
    largest-entangled direction is pure (symplectic eigenvalue 1).
    """
    spec = ProbeSpec(ProtocolKind.IDLER_FREE, m, n_s)
    mu = 2.0 * spec.n_s + 1.0
    cm = symmetric_cm(spec.m, mu, max_symmetric_correlation(spec.m, mu))
    return GaussianState(np.zeros(2 * spec.m), cm)


def mixed_probe(m: int, n_s: float, kappa: float) -> GaussianState:
    """Symmetric probe spending kappa*n_s on correlations and the rest on amplitude.

    kappa = 0 reproduces the classical probe exactly, kappa = 1 the idler-free
    probe; every mode carries mean photon number n_s for all kappa.
    """
    spec = ProbeSpec(ProtocolKind.MIXED, m, n_s, kappa)
    mu = 2.0 * spec.kappa * spec.n_s + 1.0
    cm = symmetric_cm(spec.m, mu, max_symmetric_correlation(spec.m, mu))
    mean = np.zeros(2 * spec.m)
    mean[0::2] = 2.0 * math.sqrt((1.0 - spec.kappa) * spec.n_s)
    return GaussianState(mean, cm)


def build_probe(spec: ProbeSpec) -> GaussianState:
    """Build the probe a :class:`ProbeSpec` describes.

    For the bipartite protocol this is the m-fold tensor product of
    two-mode squeezed pairs, ordered (idler, signal) per box.
    """
    if spec.kind is ProtocolKind.CLASSICAL:
        return classical_probe(spec.m, spec.n_s)
    if spec.kind is ProtocolKind.BIPARTITE:
        pair = bipartite_probe(spec.n_s)
        cm = np.kron(np.eye(spec.m), pair.cm)
        return GaussianState(np.zeros(4 * spec.m), cm)
    if spec.kind is ProtocolKind.IDLER_FREE:
        return idler_free_probe(spec.m, spec.n_s)
    return mixed_probe(spec.m, spec.n_s, spec.kappa)
