"""Probe states for channel position finding under a fixed energy budget.

Every probe spends the same mean photon number N_S per mode sent through a
box.  The classical probe spends it all on coherent amplitude, the idler-free
probe spends it all on symmetric Gaussian correlations, and the mixed probe
splits it: a fraction kappa goes into correlations, the rest into amplitude.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import DomainError, check
from .gaussian import GaussianState

_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


class ProtocolKind(str, Enum):
    CLASSICAL = "classical"
    BIPARTITE = "bipartite"
    IDLER_FREE = "idler_free"
    MIXED = "mixed"


# the correlation fraction of each probe family that is a fixed member of the
# mixed family
FAMILY_KAPPA = {ProtocolKind.CLASSICAL: 0.0, ProtocolKind.IDLER_FREE: 1.0}


def symmetric_cm(m: int, mu: float, c: float) -> np.ndarray:
    """Fully symmetric m-mode covariance: mu*I on the diagonal, c*Z off it."""
    return np.kron(np.eye(m), mu * np.eye(2)) + np.kron(1.0 - np.eye(m), c * _Z)


def max_symmetric_correlation(m: int, mu: float) -> float:
    """Largest physical c for the fully symmetric covariance, sqrt(mu^2-1)/(m-1)."""
    check("m", m)
    if mu < 1.0:
        raise DomainError(f"mu must be at least 1, got {mu}")
    return math.sqrt(mu * mu - 1.0) / (m - 1)


def bipartite_probe(n_s: float) -> GaussianState:
    """Two-mode squeezed vacuum with signal energy n_s: mode 0 idler, mode 1 signal."""
    mu = 2.0 * float(check("n_s", n_s)) + 1.0
    return GaussianState(np.zeros(4), symmetric_cm(2, mu, math.sqrt(mu * mu - 1.0)))


def mixed_probe(m: int, n_s: float, kappa: float) -> GaussianState:
    """Symmetric probe spending kappa*n_s on correlations and the rest on amplitude.

    kappa = 0 reproduces the classical probe exactly, kappa = 1 the idler-free
    probe; every mode carries mean photon number n_s for all kappa.
    """
    m = int(check("m", m))
    n_s, kappa = float(check("n_s", n_s)), float(check("kappa", kappa))
    mu = 2.0 * kappa * n_s + 1.0
    cm = symmetric_cm(m, mu, max_symmetric_correlation(m, mu))
    mean = np.zeros(2 * m)
    mean[0::2] = 2.0 * math.sqrt((1.0 - kappa) * n_s)
    return GaussianState(mean, cm)


def build_probe(kind: ProtocolKind | str, m: int, n_s: float,
                kappa: float | None = None) -> GaussianState:
    """The probe of family ``kind`` for m boxes at energy n_s per mode.

    ``kind`` is a :class:`ProtocolKind` or its value, the family id.
    ``kappa`` is the correlation fraction, required by the mixed family and
    refused by the others.  For the bipartite protocol this is the m-fold
    tensor product of two-mode squeezed pairs, ordered (idler, signal) per
    box; every other probe is the mixed one at its family's kappa.
    """
    try:
        kind = ProtocolKind(kind)
    except ValueError:
        raise DomainError(f"must be one of {', '.join(ProtocolKind)}, got {kind!r}",
                          "kind") from None
    if kind is ProtocolKind.MIXED:
        if kappa is None:
            raise DomainError("is needed by mixed probes", "kappa")
    elif kappa is not None:
        raise DomainError(f"is only meaningful for mixed probes, got {kappa}", "kappa")
    if kind is ProtocolKind.BIPARTITE:
        m = int(check("m", m))
        pair = bipartite_probe(n_s)
        return GaussianState(np.zeros(4 * m), np.kron(np.eye(m), pair.cm))
    return mixed_probe(m, n_s, FAMILY_KAPPA.get(kind, kappa))
