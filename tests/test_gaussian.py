"""Gaussian-state toolbox tests: constructors, channels, physicality, fidelity."""

import math

import numpy as np
import pytest

from conftest import random_decoupled_state, random_physical_state
from cpfkit import (
    DomainError,
    GaussianState,
    InvalidStateError,
    check_physical,
    fidelity_from_arrays,
    pure_loss,
    symplectic_form,
)
from cpfkit.gaussian import _symplectic_moduli
from helpers import (
    coherent_state,
    displace,
    keep_modes,
    photon_number,
    state_fidelity,
    symmetric_cm,
    tensor,
    thermal_fidelity_oracle,
    thermal_state,
    vacuum_state,
)


# ------------------------------------------------------------- structure


@pytest.mark.parametrize("n", [1, 2, 5])
def test_symplectic_form_properties(n):
    omega = symplectic_form(n)
    assert omega.shape == (2 * n, 2 * n)
    assert np.array_equal(omega.T, -omega)
    assert np.array_equal(omega @ omega, -np.eye(2 * n))


def test_state_requires_matching_shapes():
    with pytest.raises(InvalidStateError):
        GaussianState(np.zeros(3), np.eye(3))
    with pytest.raises(InvalidStateError):
        GaussianState(np.zeros(2), np.eye(4))
    with pytest.raises(InvalidStateError):
        GaussianState(np.array([0.0, np.inf]), np.eye(2))


def test_state_requires_symmetry():
    cm = np.eye(2)
    cm[0, 1] = 0.5
    with pytest.raises(InvalidStateError):
        GaussianState(np.zeros(2), cm)


def test_vacuum_and_coherent_layout():
    vac = vacuum_state(2)
    assert vac.n_modes == 2
    assert np.array_equal(vac.cm, np.eye(4))
    coh = coherent_state([1 + 2j, -0.5j])
    assert np.array_equal(coh.mean, [2.0, 4.0, 0.0, -1.0])
    assert np.array_equal(coh.cm, np.eye(4))


@pytest.mark.parametrize("n_bar", [0.0, 0.5, 3.0])
def test_thermal_state_energy(n_bar):
    state = thermal_state(n_bar)
    assert photon_number(state, 0) == pytest.approx(n_bar, abs=1e-14)
    assert _symplectic_moduli(state.cm) == pytest.approx([2 * n_bar + 1])


def test_photon_number_splits_thermal_and_coherent():
    # displaced thermal: energies add
    state = displace(thermal_state(1.5), [2.0, 0.0])
    assert photon_number(state, 0) == pytest.approx(1.5 + 1.0, abs=1e-14)


def test_tensor_and_keep_modes_roundtrip(rng):
    a = random_physical_state(rng, 1)
    b = random_physical_state(rng, 2)
    joint = tensor(a, b)
    assert joint.n_modes == 3
    back_a = keep_modes(joint, [0])
    back_b = keep_modes(joint, [1, 2])
    assert np.allclose(back_a.cm, a.cm)
    assert np.allclose(back_a.mean, a.mean)
    assert np.allclose(back_b.cm, b.cm)
    # reordering permutes blocks
    swapped = keep_modes(joint, [2, 1])
    assert np.allclose(swapped.cm[0:2, 0:2], b.cm[2:4, 2:4])


def test_keep_modes_validates_indices():
    state = vacuum_state(2)
    with pytest.raises(InvalidStateError):
        keep_modes(state, [])
    with pytest.raises(InvalidStateError):
        keep_modes(state, [0, 0])
    with pytest.raises(InvalidStateError):
        keep_modes(state, [2])


# -------------------------------------------------------------- channels


def test_pure_loss_on_vacuum_is_identity():
    vac = vacuum_state(1)
    out = pure_loss(vac, 0, 0.3)
    # eta*1 + (1 - eta)*1 rounds to 1 within one ulp, not exactly
    assert np.allclose(out.cm, vac.cm, rtol=0.0, atol=1e-15)
    assert np.array_equal(out.mean, vac.mean)


def test_pure_loss_scales_coherent_amplitude():
    out = pure_loss(coherent_state([2.0]), 0, 0.25)
    assert np.allclose(out.mean, [2.0 * 2.0 * 0.5, 0.0])
    assert np.array_equal(out.cm, np.eye(2))


def test_pure_loss_attenuates_energy(rng):
    state = random_physical_state(rng, 2)
    eta = 0.6
    out = pure_loss(state, 1, eta)
    assert photon_number(out, 1) == pytest.approx(eta * photon_number(state, 1), rel=1e-12)
    assert check_physical(out).ok


def _loss_on_one_mode(mean, cm, mode, eta):
    """One mode through the loss, written out: rows, then columns, then noise."""
    root, i, j = math.sqrt(eta), 2 * mode, 2 * mode + 1
    mean, cm = mean.copy(), cm.copy()
    mean[i : j + 1] *= root
    cm[[i, j], :] *= root
    cm[:, [i, j]] *= root
    cm[i, i] += 1.0 - eta
    cm[j, j] += 1.0 - eta
    return mean, cm


def test_pure_loss_on_several_modes_rounds_as_one_at_a_time(rng):
    for _ in range(300):
        n_modes = int(rng.integers(1, 7))
        state = random_physical_state(rng, n_modes)
        modes = rng.permutation(n_modes)[: rng.integers(1, n_modes + 1)]
        etas = rng.choice([0.0, 1.0, *rng.uniform(0.0, 1.0, 4)], size=modes.size)
        mean, cm = state.mean, state.cm
        stepwise = state
        for k in np.argsort(modes):
            mean, cm = _loss_on_one_mode(mean, cm, int(modes[k]), float(etas[k]))
            stepwise = pure_loss(stepwise, int(modes[k]), float(etas[k]))
        once = pure_loss(state, modes, etas)
        for out in (once, stepwise):
            assert np.array_equal(out.cm, cm) and np.array_equal(out.mean, mean)


@pytest.mark.parametrize(
    "mode, eta, error, match",
    [
        ([0, 2, 0], [0.3, 0.4, 0.5], InvalidStateError, "distinct"),
        ([0, 1], [0.3], DomainError, "same length"),
        (0, [0.3], DomainError, "same length"),
        (0, 1.2, DomainError, r"\[0, 1\]"),
        ([0, 1], [0.3, 1.5], DomainError, r"\[0, 1\]"),
        ([0, 1], [0.3, -0.1], DomainError, r"\[0, 1\]"),
        ([0, 1], [float("nan"), 0.3], DomainError, r"\[0, 1\]"),
        ([1, 3], [0.3, 0.4], InvalidStateError, "out of range"),
        (-1, 0.3, InvalidStateError, "out of range"),
        (0.5, 0.3, InvalidStateError, "integer"),
        (1.0, 0.3, InvalidStateError, "integer"),
        ([0, 1.5], [0.3, 0.4], InvalidStateError, "integer"),
        (np.array([True, False, True]), [0.3, 0.4, 0.5], InvalidStateError, "integer"),
        (True, 0.3, InvalidStateError, "integer"),
    ],
)
def test_pure_loss_refusals(mode, eta, error, match):
    with pytest.raises(error, match=match):
        pure_loss(vacuum_state(3), mode, eta)


# ---------------------------------------------------- symplectic spectrum


@pytest.mark.parametrize("m", [2, 3, 5, 10])
@pytest.mark.parametrize("mu", [1.0, 1.5, 3.0, 101.0])
@pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
def test_symmetric_cm_spectrum_analytic(m, mu, fraction):
    # mu I diagonal with c Z couplings: one eigenvalue sqrt(mu^2 - (m-1)^2 c^2)
    # and m-1 copies of sqrt(mu^2 - c^2)
    c = fraction * math.sqrt(mu * mu - 1.0) / (m - 1)  # up to the largest physical c
    nus = _symplectic_moduli(symmetric_cm(m, mu, c))
    lone = math.sqrt(mu * mu - (m - 1.0) ** 2 * c * c)
    bulk = math.sqrt(mu * mu - c * c)
    expected = np.sort(np.array([lone] + [bulk] * (m - 1)))
    assert np.allclose(nus, expected, rtol=1e-10)


def test_check_physical_boundary():
    assert check_physical(vacuum_state(3)).ok
    mu = 3.0
    c_max = math.sqrt(mu * mu - 1.0) / 3.0  # the largest physical c at m = 4
    at_edge = GaussianState(np.zeros(8), symmetric_cm(4, mu, c_max))
    assert check_physical(at_edge).ok
    beyond = GaussianState(np.zeros(8), symmetric_cm(4, mu, 1.01 * c_max))
    report = check_physical(beyond)
    assert not report.ok
    assert report.min_symplectic_eigenvalue < 1.0 - 1e-4


# --------------------------------------------------------------- fidelity


def test_fidelity_self_is_one(rng):
    for n in (1, 2, 3):
        state = random_decoupled_state(rng, n)
        assert state_fidelity(state, state) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_symmetric(rng):
    for n in (1, 2, 3):
        a = random_decoupled_state(rng, n)
        b = random_decoupled_state(rng, n)
        assert state_fidelity(a, b) == pytest.approx(state_fidelity(b, a), abs=1e-10)


def test_fidelity_in_unit_interval(rng):
    for _ in range(20):
        a = random_decoupled_state(rng, 2)
        b = random_decoupled_state(rng, 2)
        f = state_fidelity(a, b)
        assert 0.0 <= f <= 1.0


def test_fidelity_multiplicative_over_tensor(rng):
    a1, b1 = random_decoupled_state(rng, 1), random_decoupled_state(rng, 1)
    a2, b2 = random_decoupled_state(rng, 2), random_decoupled_state(rng, 2)
    joint = state_fidelity(tensor(a1, a2), tensor(b1, b2))
    split = state_fidelity(a1, b1) * state_fidelity(a2, b2)
    assert joint == pytest.approx(split, rel=1e-9)


def test_fidelity_displacement_invariant(rng):
    a = random_decoupled_state(rng, 2)
    b = random_decoupled_state(rng, 2)
    offset = rng.normal(size=4)
    before = state_fidelity(a, b)
    after = state_fidelity(displace(a, offset), displace(b, offset))
    assert after == pytest.approx(before, rel=1e-12)


def test_fidelity_coherent_pair_exact():
    # F = exp(-|alpha - beta|^2 / 2); the kernel's unit eigenvalues are snapped,
    # so the identity holds to machine precision
    alpha, beta = 1.3 - 0.4j, -0.2 + 1.1j
    f = state_fidelity(coherent_state([alpha]), coherent_state([beta]))
    assert f == pytest.approx(math.exp(-abs(alpha - beta) ** 2 / 2.0), rel=1e-13)


@pytest.mark.parametrize("n1", [0.0, 0.5, 1.0, 5.0, 20.0])
@pytest.mark.parametrize("n2", [0.0, 0.5, 1.0, 5.0, 20.0])
def test_fidelity_matches_thermal_oracle(n1, n2):
    f = state_fidelity(thermal_state(n1), thermal_state(n2))
    assert f == pytest.approx(thermal_fidelity_oracle(n1, n2), rel=1e-12)


def test_fidelity_orthogonalizes_with_distance():
    far = state_fidelity(coherent_state([0.0]), coherent_state([6.0]))
    near = state_fidelity(coherent_state([0.0]), coherent_state([0.5]))
    assert far < 1e-7 < near


@pytest.mark.parametrize("cov_a, cov_b, mean_a, mean_b", [
    pytest.param(np.eye(2), np.eye(4), np.zeros(2), np.zeros(4), id="two_mode_counts"),
    pytest.param(np.eye(3), np.eye(3), np.zeros(3), np.zeros(3), id="odd_size"),
    pytest.param(np.eye(4), np.eye(4), np.zeros(2), np.zeros(2), id="short_means"),
    pytest.param(np.eye(4), np.eye(4), np.zeros(4), np.zeros(6), id="one_long_mean"),
    pytest.param(np.ones((4, 2)), np.ones((4, 2)), np.zeros(2), np.zeros(2), id="not_square"),
    pytest.param(np.ones(2), np.ones(2), np.zeros(2), np.zeros(2), id="vector_covariances"),
    pytest.param(np.eye(0), np.eye(0), np.zeros(0), np.zeros(0), id="no_modes"),
])
def test_fidelity_refuses_mismatched_shapes(cov_a, cov_b, mean_a, mean_b):
    # shapes are compared before anything is computed, so numpy's own
    # broadcast and index errors never surface
    with pytest.raises(InvalidStateError, match="2n x 2n covariances"):
        fidelity_from_arrays(cov_a, cov_b, mean_a, mean_b)


def test_fidelity_refuses_qp_entries(rng):
    # the kernel splits q from p; a q-p entry in either covariance is refused
    state = random_decoupled_state(rng, 2)
    correlated = state.cm.copy()
    correlated[0, 3] = correlated[3, 0] = 0.1
    for cov_a, cov_b in ((correlated, state.cm), (state.cm, correlated)):
        with pytest.raises(InvalidStateError, match="q-p entries"):
            fidelity_from_arrays(cov_a, cov_b, state.mean, state.mean)
