"""The direct path's full-size probes: energy bookkeeping, physicality,
symmetry, family endpoints."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpfkit import (
    DomainError,
    GaussianState,
    ProtocolKind,
    Scenario,
    check_physical,
    output_fidelity,
)
from cpfkit.protocols import FAMILY_KAPPA, build_probe
from helpers import keep_modes, photon_number, symmetric_cm


@pytest.mark.parametrize("kind", list(ProtocolKind), ids=lambda kind: kind.value)
@settings(max_examples=100, deadline=None)
@given(m=st.integers(2, 12), log_n_s=st.floats(-3.0, 2.0), kappa=st.floats(0.0, 1.0))
def test_every_probe_spends_n_s_per_mode_and_is_physical(kind, m, log_n_s, kappa):
    n_s = 10.0**log_n_s
    probe = build_probe(kind, m, n_s, FAMILY_KAPPA.get(kind, kappa))
    # every box mode, and for the bipartite probe every idler too
    assert probe.n_modes == (2 * m if kind is ProtocolKind.BIPARTITE else m)
    for mode in range(probe.n_modes):
        assert photon_number(probe, mode) == pytest.approx(n_s, rel=1e-12)
    report = check_physical(probe)
    assert report.ok
    if kind in (ProtocolKind.IDLER_FREE, ProtocolKind.BIPARTITE):
        # all energy in correlations: no amplitude, and the probe sits on the
        # physicality boundary
        assert not probe.mean.any()
        assert report.min_symplectic_eigenvalue == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("m", [2, 4])
def test_mixed_family_endpoints_exact(m):
    # on the direct path the mixed probe at kappa 0 and 1 is the classical
    # and the idler-free probe, bit for bit
    for kappa, family in ((0.0, "classical"), (1.0, "idler_free")):
        point = Scenario(m, 0.3, 0.8, 3.0, kappa=kappa)
        mixed = output_fidelity(point, "mixed", path="direct")
        fixed = output_fidelity(point, family, path="direct")
        assert mixed.value == fixed.value and mixed.diagnostics == fixed.diagnostics


def test_the_mixed_probe_is_symmetric_under_box_permutations(rng):
    probe = build_probe(ProtocolKind.MIXED, 4, 2.0, 0.3)
    perm = rng.permutation(4)
    idx = np.array([[2 * p, 2 * p + 1] for p in perm]).ravel()
    assert np.array_equal(probe.cm[np.ix_(idx, idx)], probe.cm)
    assert np.array_equal(probe.mean[idx], probe.mean)


def test_build_probe_bipartite_is_product_of_pairs():
    probe = build_probe(ProtocolKind.BIPARTITE, 3, 1.5, None)
    assert probe.n_modes == 6 and np.all(probe.mean == 0.0)
    # each pair, ordered (idler, signal), is the two-box idler-free probe
    pair = build_probe(ProtocolKind.IDLER_FREE, 2, 1.5, 1.0)
    for box in range(3):
        assert np.array_equal(keep_modes(probe, [2 * box, 2 * box + 1]).cm, pair.cm)
    # no cross-box correlations
    assert np.count_nonzero(probe.cm) == np.count_nonzero(pair.cm) * 3


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("n_s", [0.2, 1.0, 50.0])
def test_classical_probe_energy(m, n_s):
    probe = build_probe(ProtocolKind.CLASSICAL, m, n_s, 0.0)
    for mode in range(m):
        assert photon_number(probe, mode) == pytest.approx(n_s, rel=1e-12)


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("n_s", [0.2, 1.0, 50.0])
def test_idler_free_probe_energy(m, n_s):
    probe = build_probe(ProtocolKind.IDLER_FREE, m, n_s, 1.0)
    for mode in range(m):
        assert photon_number(probe, mode) == pytest.approx(n_s, rel=1e-12)
    assert np.all(probe.mean == 0.0)


@pytest.mark.parametrize("kappa", [0.0, 0.3, 0.7, 1.0])
def test_mixed_probe_energy_independent_of_kappa(kappa):
    probe = build_probe(ProtocolKind.MIXED, 3, 2.5, kappa)
    for mode in range(3):
        assert photon_number(probe, mode) == pytest.approx(2.5, rel=1e-12)


def test_bipartite_probe_energy_and_layout():
    pair = keep_modes(build_probe(ProtocolKind.BIPARTITE, 2, 4.0, None), [0, 1])
    assert photon_number(pair, 0) == pytest.approx(4.0, rel=1e-12)  # idler
    assert photon_number(pair, 1) == pytest.approx(4.0, rel=1e-12)  # signal
    # pure two-mode squeezed vacuum
    report = check_physical(pair)
    assert report.ok
    assert report.min_symplectic_eigenvalue == pytest.approx(1.0, abs=1e-9)


def test_idler_free_probe_sits_on_physicality_boundary():
    report = check_physical(build_probe(ProtocolKind.IDLER_FREE, 5, 10.0, 1.0))
    assert report.ok
    assert report.min_symplectic_eigenvalue == pytest.approx(1.0, abs=1e-8)


def test_symmetric_cm_permutation_invariant(rng):
    # the test fixture that test_gaussian and test_oracles build states from
    m, mu, c = 4, 2.0, 0.3
    cm = symmetric_cm(m, mu, c)
    perm = rng.permutation(m)
    idx = np.array([[2 * p, 2 * p + 1] for p in perm]).ravel()
    assert np.array_equal(cm[np.ix_(idx, idx)], cm)


def test_max_symmetric_correlation_bounds():
    # no energy in correlations leaves none (mu = 1, c = 0) ...
    assert not np.any(build_probe(ProtocolKind.MIXED, 2, 1.0, 0.0).cm[:2, 2:])
    # ... and all of it gives the largest physical correlation: any more is not
    for m in (2, 3, 5):
        probe = build_probe(ProtocolKind.IDLER_FREE, m, 1.5, 1.0)
        cm = probe.cm.copy()
        cm[np.kron(1.0 - np.eye(m), np.ones((2, 2))) == 1.0] *= 1.0 + 1e-6
        assert not check_physical(GaussianState(probe.mean, cm)).ok


@pytest.mark.parametrize("kind", [ProtocolKind.CLASSICAL, ProtocolKind.IDLER_FREE])
@pytest.mark.parametrize("n_s", [float("nan"), float("inf")])
def test_probe_spec_rejects_non_finite_energy(kind, n_s):
    # the direct path builds its probe only from a checked scenario
    with pytest.raises(DomainError, match="n_s"):
        output_fidelity(Scenario(2, 0.3, 0.8, n_s), kind, path="direct")


def test_probe_spec_validation():
    # the direct path refuses what no probe can be built from
    with pytest.raises(DomainError, match="^m "):
        output_fidelity(Scenario(1, 0.3, 0.8, 1.0), "classical", path="direct")
    with pytest.raises(DomainError, match="^n_s "):
        output_fidelity(Scenario(2, 0.3, 0.8, -1.0), "classical", path="direct")
    with pytest.raises(DomainError, match="^kappa is required"):
        output_fidelity(Scenario(2, 0.3, 0.8, 1.0), "mixed", path="direct")
    with pytest.raises(DomainError, match="^kappa "):
        output_fidelity(Scenario(2, 0.3, 0.8, 1.0, kappa=1.5), "mixed", path="direct")


# each family's fixed kappa in the mixed family; the bipartite probe is not in it
_FAMILY_KAPPA = {"classical": 0.0, "bipartite": None, "idler_free": 1.0, "mixed": 0.25}


@pytest.mark.parametrize("kind", [*ProtocolKind, *_FAMILY_KAPPA], ids=repr)
def test_build_probe_takes_each_family_as_a_kind_or_an_id(kind):
    family = ProtocolKind(kind)
    probe = build_probe(family, 3, 1.5, FAMILY_KAPPA.get(family, 0.25))
    if family is ProtocolKind.BIPARTITE:
        pair = build_probe(ProtocolKind.IDLER_FREE, 2, 1.5, 1.0)
        assert np.array_equal(probe.cm, np.kron(np.eye(3), pair.cm))
    else:
        expected = build_probe(ProtocolKind.MIXED, 3, 1.5, _FAMILY_KAPPA[family.value])
        assert np.array_equal(probe.cm, expected.cm)
        assert np.array_equal(probe.mean, expected.mean)
    # the direct path takes the family as a kind or an id and reports the kind
    point = Scenario(3, 0.3, 0.8, 1.5, kappa=0.25)
    report = output_fidelity(point, kind, path="direct")
    assert report.kind is family
    assert report == output_fidelity(point, family, path="direct")
    # the mixed family needs kappa, and every other reads its own
    bare = Scenario(3, 0.3, 0.8, 1.5)
    if family is ProtocolKind.MIXED:
        with pytest.raises(DomainError, match="^kappa "):
            output_fidelity(bare, kind, path="direct")
    else:
        assert output_fidelity(bare, kind, path="direct") == report


@pytest.mark.parametrize("kind", ["bogus", "MIXED", None, 3])
def test_build_probe_refuses_anything_but_the_four_families(kind):
    with pytest.raises(DomainError, match="^unknown protocol "):
        output_fidelity(Scenario(3, 0.3, 0.8, 1.5), kind, path="direct")
