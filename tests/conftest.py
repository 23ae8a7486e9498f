"""Shared helpers: seeded random physical Gaussian states."""

import numpy as np
import pytest

from helpers import State


def random_physical_state(rng: np.random.Generator, n_modes: int) -> State:
    """A random mixed state: V = I + A A^T is symmetric and >= I, hence physical."""
    a = rng.normal(scale=0.7, size=(2 * n_modes, 2 * n_modes))
    cm = np.eye(2 * n_modes) + a @ a.T
    cm = (cm + cm.T) / 2.0  # exactly symmetric
    mean = rng.normal(scale=1.5, size=2 * n_modes)
    return State(mean, cm)


def random_decoupled_state(rng: np.random.Generator, n_modes: int) -> State:
    """A random mixed state without q-p entries, as the fidelity kernel takes:
    thermal modes under the symplectic A (+) A^-T, so V_q = A N A^T and
    V_p = A^-T N A^-1 with N the diagonal of symplectic eigenvalues >= 1."""
    a = np.eye(n_modes) + rng.normal(scale=0.4, size=(n_modes, n_modes))
    nu = np.diag(1.0 + rng.exponential(2.0, size=n_modes))
    a_inv = np.linalg.inv(a)
    cm = np.zeros((2 * n_modes, 2 * n_modes))
    cm[0::2, 0::2] = a @ nu @ a.T
    cm[1::2, 1::2] = a_inv.T @ nu @ a_inv
    cm = (cm + cm.T) / 2.0  # exactly symmetric
    mean = rng.normal(scale=1.5, size=2 * n_modes)
    return State(mean, cm)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
