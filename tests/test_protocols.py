"""Protocol fidelities: closed forms, reduction, dispatch, symmetries."""

import numpy as np
import pytest

from cpfkit import (
    DomainError,
    ProbeSpec,
    ProtocolKind,
    Scenario,
    apply_hypothesis,
    bipartite_fidelity,
    bipartite_fidelity_numeric,
    build_probe,
    classical_fidelity,
    gaussian_fidelity,
    idler_free_binary_fidelity,
    keep_modes,
    mixed_probe,
    output_fidelity,
    output_pair_arrays,
    reduced_output_pair,
    reduction_symplectic,
    symplectic_form,
    traced_block_cm,
)


def test_scenario_validation():
    with pytest.raises(DomainError):
        Scenario(1, 0.5, 0.5, 1.0)
    with pytest.raises(DomainError):
        Scenario(2, 1.5, 0.5, 1.0)
    with pytest.raises(DomainError):
        Scenario(2, 0.5, -0.1, 1.0)
    with pytest.raises(DomainError):
        Scenario(2, 0.5, 0.5, 0.0)
    with pytest.raises(DomainError):
        Scenario(2, 0.5, 0.5, 1.0, 0.5)
    with pytest.raises(DomainError):
        Scenario(2, 0.5, 0.5, 1.0, 1.0, 1.5)


@pytest.mark.parametrize(
    "field, value",
    [("eta_b", float("nan")), ("eta_t", float("inf")), ("n_s", float("inf")),
     ("n_s", float("nan")), ("m_probes", float("inf")), ("m_probes", float("nan")),
     ("kappa", float("nan"))],
)
def test_scenario_rejects_non_finite(field, value):
    fields = {"m": 2, "eta_b": 0.3, "eta_t": 0.5, "n_s": 1.0, "m_probes": 1.0, "kappa": None}
    fields[field] = value
    with pytest.raises(DomainError, match=field):
        Scenario(**fields)


# ------------------------------------------------------------ closed forms


def test_closed_forms_swap_symmetric():
    for form in (classical_fidelity, bipartite_fidelity, idler_free_binary_fidelity):
        assert form(0.3, 0.8, 5.0) == pytest.approx(form(0.8, 0.3, 5.0), rel=1e-14)


def test_quantum_forms_complement_symmetric():
    # eta -> 1 - eta leaves both entangled-probe fidelities unchanged
    for form in (bipartite_fidelity, idler_free_binary_fidelity):
        assert form(0.3, 0.8, 5.0) == pytest.approx(form(0.7, 0.2, 5.0), rel=1e-12)
    # the coherent-state fidelity is not complement symmetric
    assert abs(
        classical_fidelity(0.3, 0.8, 5.0) - classical_fidelity(0.7, 0.2, 5.0)
    ) > 1e-3


def test_closed_forms_equal_one_on_diagonal():
    for form in (classical_fidelity, bipartite_fidelity, idler_free_binary_fidelity):
        assert float(form(0.45, 0.45, 20.0)) == 1.0


def test_closed_forms_vectorize():
    etas = np.linspace(0.0, 1.0, 7)
    for form in (classical_fidelity, bipartite_fidelity, idler_free_binary_fidelity):
        batch = form(0.6, etas, 2.0)
        assert batch.shape == etas.shape
        assert batch[4] == pytest.approx(float(form(0.6, etas[4], 2.0)))


def test_closed_forms_reject_bad_domain():
    for form in (classical_fidelity, bipartite_fidelity, idler_free_binary_fidelity):
        with pytest.raises(DomainError):
            form(1.2, 0.5, 1.0)
        with pytest.raises(DomainError):
            form(0.5, 0.5, -1.0)


def test_bipartite_numeric_matches_closed_form():
    for eta_b, eta_t, n_s in [(0.9, 0.95, 50.0), (0.2, 0.7, 1.0), (0.0, 0.6, 5.0)]:
        numeric = bipartite_fidelity_numeric(eta_b, eta_t, n_s)
        assert numeric == pytest.approx(float(bipartite_fidelity(eta_b, eta_t, n_s)), abs=1e-11)


# --------------------------------------------------- direct-path agreement


@pytest.mark.parametrize("kind", ["classical", "bipartite", "idler_free"])
@pytest.mark.parametrize(
    "eta_b, eta_t, n_s", [(0.9, 0.95, 50.0), (0.2, 0.7, 1.0), (0.55, 0.9, 50.0)]
)
def test_direct_matches_closed_form_binary(kind, eta_b, eta_t, n_s):
    closed = {
        "classical": classical_fidelity,
        "bipartite": bipartite_fidelity,
        "idler_free": idler_free_binary_fidelity,
    }[kind]
    report = output_fidelity(Scenario(2, eta_b, eta_t, n_s), kind, path="direct")
    assert report.path == "direct"
    assert report.value == pytest.approx(float(closed(eta_b, eta_t, n_s)), abs=1e-11)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_reduced_matches_direct(m, rng):
    for _ in range(6):
        scenario = Scenario(
            m,
            float(rng.uniform(0.05, 0.95)),
            float(rng.uniform(0.05, 0.95)),
            float(10.0 ** rng.uniform(-1.0, 1.7)),
            kappa=float(rng.uniform(0.0, 1.0)),
        )
        reduced = output_fidelity(scenario, "mixed")
        direct = output_fidelity(scenario, "mixed", path="direct")
        assert reduced.path == "reduced"
        assert reduced.value == pytest.approx(direct.value, abs=1e-10)


def test_hypothesis_pairs_equivalent(rng):
    # outputs for any two distinct target positions have the same fidelity
    for m in (3, 4):
        scenario = Scenario(m, 0.7, 0.35, 2.0, kappa=0.6)
        probe = mixed_probe(m, scenario.n_s, scenario.kappa)
        outputs = [apply_hypothesis(probe, t, scenario) for t in range(m)]
        reference = gaussian_fidelity(outputs[0], outputs[1])
        for i in range(m):
            for j in range(i + 1, m):
                assert gaussian_fidelity(outputs[i], outputs[j]) == pytest.approx(
                    reference, abs=1e-10
                )


# -------------------------------------------------------------- reduction


@pytest.mark.parametrize("m", [3, 4, 6])
def test_reduction_symplectic_is_orthogonal_symplectic(m):
    s = reduction_symplectic(m)
    omega = symplectic_form(m)
    assert np.allclose(s @ s.T, np.eye(2 * m), atol=1e-12)
    assert np.allclose(s @ omega @ s.T, omega, atol=1e-12)


@pytest.mark.parametrize("m", [4, 5, 7])
def test_reduction_block_diagonalizes_output(m):
    scenario = Scenario(m, 0.8, 0.4, 3.0, kappa=0.5)
    probe = mixed_probe(m, scenario.n_s, scenario.kappa)
    out = apply_hypothesis(probe, 0, scenario)
    s = reduction_symplectic(m)
    cm = s @ out.cm @ s.T
    mean = s @ out.mean
    # the first three rotated modes decouple from the rest
    assert np.max(np.abs(cm[:6, 6:])) < 1e-10
    # kept block and mean match the reduced pair for the same hypothesis
    cov_1, _, mean_1, _ = output_pair_arrays(
        m, scenario.eta_b, scenario.eta_t, scenario.n_s, scenario.kappa
    )
    assert np.allclose(cm[:6, :6], cov_1, atol=1e-10)
    assert np.allclose(mean[:6], mean_1, atol=1e-10)
    # discarded block is hypothesis independent and matches its closed form
    assert np.allclose(cm[6:, 6:], traced_block_cm(scenario), atol=1e-10)
    assert np.allclose(mean[6:], 0.0, atol=1e-10)


def test_traced_block_requires_enough_boxes():
    with pytest.raises(DomainError):
        traced_block_cm(Scenario(3, 0.5, 0.5, 1.0))
    with pytest.raises(DomainError):
        reduced_output_pair(Scenario(2, 0.5, 0.5, 1.0))


def test_output_pair_arrays_broadcasts():
    etas = np.linspace(0.1, 0.9, 5)
    cov_1, cov_2, mean_1, mean_2 = output_pair_arrays(3, 0.8, etas, 2.0, 1.0)
    assert cov_1.shape == (5, 6, 6)
    assert mean_2.shape == (5, 6)
    # swapping the hypotheses exchanges the diagonal blocks of the first two modes
    assert np.allclose(cov_1[:, 0:2, 0:2], cov_2[:, 2:4, 2:4])
    with pytest.raises(DomainError):
        output_pair_arrays(3, 0.8, etas, 2.0, 1.5)


# --------------------------------------------------------------- dispatch


def test_output_fidelity_dispatch_labels():
    binary = Scenario(2, 0.6, 0.9, 5.0)
    assert output_fidelity(binary, "classical").path == "closed-form"
    assert output_fidelity(binary, "bipartite").path == "closed-form"
    assert output_fidelity(binary, "idler_free").path == "closed-form"
    assert output_fidelity(Scenario(3, 0.6, 0.9, 5.0), "idler_free").path == "reduced"
    mixed_binary = Scenario(2, 0.6, 0.9, 5.0, kappa=0.4)
    assert output_fidelity(mixed_binary, "mixed").path == "direct"
    assert output_fidelity(Scenario(3, 0.6, 0.9, 5.0, kappa=0.4), "mixed").path == "reduced"


def test_mixed_requires_kappa():
    with pytest.raises(DomainError):
        output_fidelity(Scenario(2, 0.6, 0.9, 5.0), "mixed")


def test_idler_free_ignores_scenario_kappa():
    # a stored mixing fraction must not leak into the idler-free evaluation
    with_kappa = Scenario(4, 0.6, 0.9, 5.0, kappa=0.3)
    without = Scenario(4, 0.6, 0.9, 5.0)
    f_with = output_fidelity(with_kappa, "idler_free").value
    f_without = output_fidelity(without, "idler_free").value
    assert f_with == f_without


def test_output_fidelity_rejects_bad_path():
    with pytest.raises(DomainError):
        output_fidelity(Scenario(2, 0.6, 0.9, 5.0), "classical", path="reduced")


def test_apply_hypothesis_validates():
    probe = build_probe(ProbeSpec(ProtocolKind.CLASSICAL, 3, 1.0))
    scenario = Scenario(3, 0.5, 0.9, 1.0)
    with pytest.raises(DomainError):
        apply_hypothesis(probe, 3, scenario)
    from cpfkit import InvalidStateError

    with pytest.raises(InvalidStateError):
        apply_hypothesis(keep_modes(probe, [0, 1]), 0, scenario)


def test_bipartite_direct_uses_idlers():
    # the 2m-mode probe keeps one idler per box; only signals meet the loss
    scenario = Scenario(2, 0.7, 0.2, 3.0)
    probe = build_probe(ProbeSpec(ProtocolKind.BIPARTITE, 2, 3.0))
    out = apply_hypothesis(probe, 0, scenario)
    from cpfkit import photon_number

    assert photon_number(out, 0) == pytest.approx(3.0, rel=1e-12)  # idler untouched
    assert photon_number(out, 1) == pytest.approx(0.2 * 3.0, rel=1e-12)  # target signal
    assert photon_number(out, 3) == pytest.approx(0.7 * 3.0, rel=1e-12)  # background
