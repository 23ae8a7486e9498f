"""Probe construction: energy bookkeeping, symmetry, family endpoints."""

import numpy as np
import pytest

from cpfkit import (
    DomainError,
    ProbeSpec,
    ProtocolKind,
    bipartite_probe,
    build_probe,
    check_physical,
    classical_probe,
    idler_free_probe,
    keep_modes,
    max_symmetric_correlation,
    mixed_probe,
    photon_number,
    symmetric_cm,
)


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("n_s", [0.2, 1.0, 50.0])
def test_classical_probe_energy(m, n_s):
    probe = classical_probe(m, n_s)
    for mode in range(m):
        assert photon_number(probe, mode) == pytest.approx(n_s, rel=1e-12)


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("n_s", [0.2, 1.0, 50.0])
def test_idler_free_probe_energy(m, n_s):
    probe = idler_free_probe(m, n_s)
    for mode in range(m):
        assert photon_number(probe, mode) == pytest.approx(n_s, rel=1e-12)
    assert np.all(probe.mean == 0.0)


@pytest.mark.parametrize("kappa", [0.0, 0.3, 0.7, 1.0])
def test_mixed_probe_energy_independent_of_kappa(kappa):
    probe = mixed_probe(3, 2.5, kappa)
    for mode in range(3):
        assert photon_number(probe, mode) == pytest.approx(2.5, rel=1e-12)


def test_bipartite_probe_energy_and_layout():
    probe = bipartite_probe(4.0)
    assert probe.n_modes == 2
    assert photon_number(probe, 0) == pytest.approx(4.0, rel=1e-12)  # idler
    assert photon_number(probe, 1) == pytest.approx(4.0, rel=1e-12)  # signal
    # pure two-mode squeezed vacuum
    report = check_physical(probe)
    assert report.ok
    assert report.min_symplectic_eigenvalue == pytest.approx(1.0, abs=1e-9)


def test_mixed_family_endpoints_exact():
    n_s = 3.0
    low = mixed_probe(4, n_s, 0.0)
    classical = classical_probe(4, n_s)
    assert np.array_equal(low.cm, classical.cm)
    assert np.array_equal(low.mean, classical.mean)
    high = mixed_probe(4, n_s, 1.0)
    idler_free = idler_free_probe(4, n_s)
    assert np.array_equal(high.cm, idler_free.cm)
    assert np.array_equal(high.mean, idler_free.mean)


def test_idler_free_probe_sits_on_physicality_boundary():
    report = check_physical(idler_free_probe(5, 10.0))
    assert report.ok
    assert report.min_symplectic_eigenvalue == pytest.approx(1.0, abs=1e-8)


def test_symmetric_cm_permutation_invariant(rng):
    m, mu, c = 4, 2.0, 0.3
    cm = symmetric_cm(m, mu, c)
    perm = rng.permutation(m)
    idx = np.array([[2 * p, 2 * p + 1] for p in perm]).ravel()
    assert np.array_equal(cm[np.ix_(idx, idx)], cm)


def test_max_symmetric_correlation_bounds():
    assert max_symmetric_correlation(2, 1.0) == 0.0
    with pytest.raises(DomainError):
        max_symmetric_correlation(1, 2.0)
    with pytest.raises(DomainError):
        max_symmetric_correlation(3, 0.5)


def test_build_probe_bipartite_is_product_of_pairs():
    spec = ProbeSpec(ProtocolKind.BIPARTITE, 3, 1.5)
    probe = build_probe(spec)
    assert probe.n_modes == 6
    pair = bipartite_probe(1.5)
    for box in range(3):
        block = keep_modes(probe, [2 * box, 2 * box + 1])
        assert np.array_equal(block.cm, pair.cm)
    # no cross-box correlations
    assert np.count_nonzero(probe.cm) == np.count_nonzero(pair.cm) * 3


@pytest.mark.parametrize("kind", [ProtocolKind.CLASSICAL, ProtocolKind.IDLER_FREE])
@pytest.mark.parametrize("n_s", [float("nan"), float("inf")])
def test_probe_spec_rejects_non_finite_energy(kind, n_s):
    with pytest.raises(DomainError, match="n_s"):
        ProbeSpec(kind, 2, n_s)


def test_probe_spec_validation():
    with pytest.raises(DomainError):
        ProbeSpec(ProtocolKind.CLASSICAL, 1, 1.0)
    with pytest.raises(DomainError):
        ProbeSpec(ProtocolKind.CLASSICAL, 2, -1.0)
    with pytest.raises(DomainError):
        ProbeSpec(ProtocolKind.MIXED, 2, 1.0)  # kappa required
    with pytest.raises(DomainError):
        ProbeSpec(ProtocolKind.MIXED, 2, 1.0, 1.5)
    with pytest.raises(DomainError):
        ProbeSpec(ProtocolKind.CLASSICAL, 2, 1.0, 0.5)  # kappa meaningless
