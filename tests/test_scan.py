"""Scan engines: sweeps, mixing optimization, region maps, small expansions."""

import numpy as np
import pytest

from cpfkit import (
    PROTOCOL_IDS,
    DomainError,
    RegionSpec,
    Scenario,
    SweepSpec,
    classical_fidelity,
    expansion_coefficient,
    extreme_point_check,
    fidelity,
    idler_free_binary_fidelity,
    optimize_kappa,
    output_fidelity,
    region_scan,
    sweep,
)
from cpfkit.scan import WORKERS_ENV_VAR, _resolve_workers


# ------------------------------------------------------- fidelity wrappers


def test_idler_free_fidelity_dispatch():
    assert fidelity("idler_free", 2, 0.6, 0.9, 5.0)[0] == pytest.approx(
        float(idler_free_binary_fidelity(0.6, 0.9, 5.0)), rel=1e-14
    )
    etas = np.linspace(0.1, 0.9, 5)
    batch = fidelity("idler_free", 4, 0.6, etas, 5.0)[0]
    for i, eta in enumerate(etas):
        point = output_fidelity(Scenario(4, 0.6, float(eta), 5.0), "idler_free")
        assert batch[i] == pytest.approx(point.value, abs=1e-12)


@pytest.mark.parametrize("protocol", PROTOCOL_IDS)
@pytest.mark.parametrize(
    "field, value",
    [("eta_b", float("nan")), ("eta_t", float("nan")), ("eta_t", float("inf")),
     ("n_s", float("inf")), ("n_s", float("nan"))],
)
def test_dispatcher_rejects_non_finite(protocol, field, value):
    point = {"eta_b": 0.3, "eta_t": 0.5, "n_s": 1.0}
    point[field] = np.array([0.4, value])
    with pytest.raises(DomainError, match=field):
        fidelity(protocol, 3, **point)


def test_symmetric_pair_fidelity_endpoints():
    etas = np.linspace(0.05, 0.95, 7)
    classical = fidelity("mixed", 2, 0.7, etas, 8.0, 0.0)[0]
    assert np.allclose(classical, classical_fidelity(0.7, etas, 8.0), atol=1e-12)
    idler_free = fidelity("mixed", 2, 0.7, etas, 8.0, 1.0)[0]
    assert np.allclose(idler_free, idler_free_binary_fidelity(0.7, etas, 8.0), atol=1e-12)


# ---------------------------------------------------- mixing optimization


def test_optimize_kappa_matches_brute_force():
    for eta_b, eta_t, n_s in [(0.55, 0.9, 50.0), (0.2, 0.7, 1.0), (0.95, 0.5, 10.0)]:
        result = optimize_kappa(Scenario(2, eta_b, eta_t, n_s))
        grid = np.linspace(0.0, 1.0, 2001)
        brute = fidelity("mixed", 2, eta_b, eta_t, n_s, grid)[0]
        assert result.fidelity <= float(brute.min()) + 1e-9
        assert 0.0 <= result.kappa <= 1.0


def test_optimize_kappa_never_beaten_by_endpoints(rng):
    for _ in range(8):
        scenario = Scenario(
            2,
            float(rng.uniform(0.05, 0.95)),
            float(rng.uniform(0.05, 0.95)),
            float(10.0 ** rng.uniform(-1.0, 1.7)),
        )
        result = optimize_kappa(scenario)
        f_classical = float(
            classical_fidelity(scenario.eta_b, scenario.eta_t, scenario.n_s)
        )
        f_idler_free = float(
            idler_free_binary_fidelity(scenario.eta_b, scenario.eta_t, scenario.n_s)
        )
        assert result.fidelity <= min(f_classical, f_idler_free) + 1e-12


def test_optimize_kappa_degenerate_diagonal():
    # equal transmissivities make every kappa optimal; only the value is pinned
    result = optimize_kappa(Scenario(2, 0.6, 0.6, 30.0))
    assert 0.0 <= result.kappa <= 1.0
    assert result.fidelity == pytest.approx(1.0, abs=1e-12)


def test_optimize_kappa_three_boxes():
    result = optimize_kappa(Scenario(3, 0.55, 0.9, 50.0))
    f_if = float(fidelity("idler_free", 3, 0.55, 0.9, 50.0)[0])
    f_cl = float(classical_fidelity(0.55, 0.9, 50.0))
    assert result.fidelity <= min(f_if, f_cl) + 1e-12


# ------------------------------------------------------------------ sweeps


def test_sweep_spec_validation():
    base = Scenario(2, 0.5, 0.5, 1.0)
    with pytest.raises(DomainError):
        SweepSpec(base, "bogus", (0.1,))
    with pytest.raises(DomainError):
        SweepSpec(base, "eta_t", ())
    with pytest.raises(DomainError):
        SweepSpec(base, "eta_t", (0.1,), ("nope",))


def test_sweep_rows_grid_major_canonical_order():
    spec = SweepSpec(
        Scenario(2, 0.6, 0.5, 2.0),
        "eta_t",
        (0.2, 0.8),
        ("idler_free", "classical"),  # request order must not matter
    )
    rows = sweep(spec)
    assert [(r["value"], r["protocol"]) for r in rows] == [
        (0.2, "classical"),
        (0.2, "idler_free"),
        (0.8, "classical"),
        (0.8, "idler_free"),
    ]
    for row in rows:
        assert row["variable"] == "eta_t"
        assert row["kappa"] is None


def test_sweep_values_match_closed_forms():
    values = (0.3, 0.6, 0.9)
    spec = SweepSpec(Scenario(2, 0.7, 0.5, 4.0), "eta_t", values)
    rows = sweep(spec)
    by_protocol = {}
    for row in rows:
        by_protocol.setdefault(row["protocol"], []).append(row["fidelity"])
    assert np.allclose(
        by_protocol["classical"], [float(classical_fidelity(0.7, v, 4.0)) for v in values]
    )
    assert np.allclose(
        by_protocol["idler_free"],
        [float(idler_free_binary_fidelity(0.7, v, 4.0)) for v in values],
    )


def test_sweep_reversed_swaps_roles():
    spec = SweepSpec(
        Scenario(3, 0.9, 0.5, 5.0), "eta_t", (0.4,), ("idler_free", "idler_free_reversed")
    )
    rows = {r["protocol"]: r["fidelity"] for r in sweep(spec)}
    assert rows["idler_free"] == pytest.approx(
        float(fidelity("idler_free", 3, 0.9, 0.4, 5.0)[0]), rel=1e-12
    )
    assert rows["idler_free_reversed"] == pytest.approx(
        float(fidelity("idler_free", 3, 0.4, 0.9, 5.0)[0]), rel=1e-12
    )


def test_sweep_mixed_respects_pinned_kappa():
    pinned = SweepSpec(
        Scenario(2, 0.55, 0.5, 50.0, kappa=0.25), "eta_t", (0.9,), ("mixed",)
    )
    row = sweep(pinned)[0]
    assert row["kappa"] == 0.25
    assert row["fidelity"] == pytest.approx(
        float(fidelity("mixed", 2, 0.55, 0.9, 50.0, 0.25)[0]), rel=1e-12
    )
    free = SweepSpec(Scenario(2, 0.55, 0.5, 50.0), "eta_t", (0.9,), ("mixed",))
    optimized = sweep(free)[0]
    assert optimized["fidelity"] <= row["fidelity"] + 1e-12


def test_sweep_over_m_recurses():
    spec = SweepSpec(Scenario(2, 0.2, 0.7, 1.0), "m", (2.0, 3.0, 5.0), ("idler_free",))
    rows = sweep(spec)
    for row, m in zip(rows, (2, 3, 5)):
        assert row["fidelity"] == pytest.approx(
            float(fidelity("idler_free", m, 0.2, 0.7, 1.0)[0]), rel=1e-12
        )


@pytest.mark.parametrize(
    "variable, value",
    [("eta_t", float("nan")), ("eta_b", float("inf")), ("n_s", float("inf")),
     ("n_s", float("nan")), ("m", float("nan")), ("m", float("inf")),
     ("m_probes", float("inf"))],
)
def test_sweep_rejects_non_finite_grid(variable, value):
    first = 2.0 if variable == "m" else 0.5
    spec = SweepSpec(Scenario(2, 0.5, 0.6, 1.0), variable, (first, value), PROTOCOL_IDS)
    with pytest.raises(DomainError, match=variable):
        sweep(spec)


def test_sweep_rejects_nonpositive_energy_grid():
    spec = SweepSpec(Scenario(2, 0.5, 0.6, 1.0), "n_s", (0.0, 1.0))
    with pytest.raises(DomainError):
        sweep(spec)


# ------------------------------------------------------------ region maps


def _small_region_spec(quantum="idler_free", total_energy=None):
    return RegionSpec(
        Scenario(3, 1.0, 0.5, 1.0),
        "eta_t",
        np.linspace(0.7, 1.0, 7),
        "n_s",
        np.linspace(1.0, 21.0, 5),
        quantum=quantum,
        total_energy=total_energy,
    )


def test_region_spec_validation():
    base = Scenario(2, 0.5, 0.5, 1.0)
    with pytest.raises(DomainError):
        RegionSpec(base, "eta_t", (0.1,), "eta_t", (0.2,))
    with pytest.raises(DomainError):
        RegionSpec(base, "eta_t", (0.1,), "m", (3.0,))
    with pytest.raises(DomainError):
        RegionSpec(base, "eta_t", (), "eta_b", (0.2,))
    with pytest.raises(DomainError):
        RegionSpec(base, "eta_t", (0.1,), "eta_b", (0.2,), quantum="bogus")
    with pytest.raises(DomainError):
        RegionSpec(base, "eta_t", (0.1,), "eta_b", (0.2,), total_energy=0.0)


@pytest.mark.parametrize(
    "axes, total_energy, field",
    [((("eta_t", (0.1, float("nan"))), ("eta_b", (0.2,))), None, "eta_t"),
     ((("eta_t", (0.1,)), ("eta_b", (float("nan"),))), None, "eta_b"),
     ((("eta_t", (0.1,)), ("n_s", (1.0, float("inf")))), None, "n_s"),
     ((("eta_t", (0.1,)), ("n_s", (-1.0,))), None, "n_s"),
     ((("eta_t", (0.1,)), ("eta_b", (1.5,))), None, "eta_b"),
     ((("eta_t", (0.1,)), ("eta_b", (0.2,))), float("inf"), "total_energy"),
     ((("eta_t", (0.1,)), ("eta_b", (0.2,))), float("nan"), "total_energy")],
)
def test_region_spec_rejects_non_finite(axes, total_energy, field):
    (x_name, x_values), (y_name, y_values) = axes
    with pytest.raises(DomainError, match=field):
        RegionSpec(Scenario(2, 0.5, 0.5, 1.0), x_name, x_values, y_name, y_values,
                   total_energy=total_energy)


def test_region_scan_shapes_and_certificate():
    grid = region_scan(_small_region_spec(), workers=1)
    assert grid.f_quantum.shape == (5, 7)
    assert np.array_equal(grid.certificate, grid.f_quantum < grid.f_classical**2)
    assert grid.kappa_star is None
    assert grid.metadata["quantum"] == "idler_free"


def test_region_scan_worker_count_invariant():
    serial = region_scan(_small_region_spec(), workers=1)
    threaded = region_scan(_small_region_spec(), workers=5)
    for name in ("f_quantum", "f_classical", "ub_quantum", "lb_classical", "log10_ratio"):
        assert np.array_equal(getattr(serial, name), getattr(threaded, name))


def test_region_scan_fixed_energy_rounds():
    budget = 1800.0
    grid = region_scan(_small_region_spec(total_energy=budget), workers=1)
    n_s = np.asarray(grid.y_values)
    expected = budget / (3 * n_s)
    assert np.allclose(grid.m_probes, expected[:, None], rtol=1e-14)


def test_region_scan_log_ratio_survives_underflow():
    # eta_b = 1, eta_t far away, hundreds of rounds: both bounds underflow
    spec = RegionSpec(
        Scenario(3, 1.0, 0.5, 1.0),
        "eta_t",
        (0.0, 0.1),
        "n_s",
        (1.0, 2.0),
        total_energy=1800.0,
    )
    grid = region_scan(spec, workers=1)
    assert np.all(np.isfinite(grid.log10_ratio))


def test_region_scan_mixed_tracks_kappa():
    spec = RegionSpec(
        Scenario(2, 0.55, 0.5, 50.0),
        "eta_t",
        (0.9, 0.95),
        "eta_b",
        (0.55,),
        quantum="mixed",
    )
    grid = region_scan(spec, workers=1)
    assert grid.kappa_star.shape == (1, 2)
    point = optimize_kappa(Scenario(2, 0.55, 0.9, 50.0))
    assert grid.f_quantum[0, 0] == pytest.approx(point.fidelity, rel=1e-12)
    assert grid.kappa_star[0, 0] == pytest.approx(point.kappa, abs=1e-9)


def test_workers_resolution(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
    assert _resolve_workers(None) == 1
    monkeypatch.setenv(WORKERS_ENV_VAR, "6")
    assert _resolve_workers(None) == 6
    assert _resolve_workers(2) == 2
    with pytest.raises(DomainError):
        _resolve_workers(0)


@pytest.mark.parametrize("raw", ["abc", "1.5", "", "0", "-2"])
def test_workers_env_var_must_be_a_positive_integer(monkeypatch, raw):
    monkeypatch.setenv(WORKERS_ENV_VAR, raw)
    with pytest.raises(DomainError, match=WORKERS_ENV_VAR):
        _resolve_workers(None)


# ------------------------------------------------- expansions and extremes


def test_expansion_coefficient_classical_value():
    assert expansion_coefficient("classical", 0.5, 2.0) == pytest.approx(
        2.0 / (4.0 * 0.5), rel=1e-3
    )


def test_expansion_coefficient_domain():
    with pytest.raises(DomainError):
        expansion_coefficient("mixed", 0.5, 1.0)
    with pytest.raises(DomainError):
        expansion_coefficient("classical", 0.9999, 1.0)
    with pytest.raises(DomainError):
        expansion_coefficient("classical", 0.5, 0.0)


def test_extreme_point_check_values():
    report = extreme_point_check("idler_free", "eta_b_zero", 0.1, 2.0)
    assert report.reference == pytest.approx(1.0 / (1.0 + 2.0 * 0.1), rel=1e-14)
    assert report.abs_error < 1e-12


def test_extreme_point_check_validates():
    with pytest.raises(DomainError):
        extreme_point_check("classical", "sideways", 0.1, 1.0)
    with pytest.raises(DomainError):
        extreme_point_check("classical", "eta_b_zero", 0.0, 1.0)
    with pytest.raises(DomainError):
        extreme_point_check("mixed", "eta_b_zero", 0.1, 1.0)
