"""End-to-end acceptance checks.

Each test verifies one headline claim of the library at a pinned tolerance
and prints a single PASS/FAIL line (run with ``pytest -s`` to see them all).
"""

import time

import numpy as np
import pytest

from cpfkit import (
    RegionSpec,
    Scenario,
    fidelity,
    output_fidelity,
    perr_lower,
    perr_upper,
    region_scan,
)
from cpfkit.bounds import classical_perr_lower
from cpfkit.protocols import bipartite_fidelity
from helpers import (
    advantage_certificate,
    classical_closed,
    expansion_coefficient,
    extreme_point_check,
    idler_free_two_box,
    pgm_pure_upper,
)

CLOSED_FORMS = {
    "classical": classical_closed,
    "bipartite": bipartite_fidelity,
    "idler_free": idler_free_two_box,
}


def _report(ok: bool, label: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {label}{suffix}")
    assert ok, f"{label}{suffix}"


def test_closed_form_consistency_on_full_outputs():
    start = time.perf_counter()
    worst = 0.0
    etas = np.linspace(0.0, 1.0, 20)
    for n_s in (0.1, 1.0, 50.0):
        for eta_b in etas:
            for eta_t in etas:
                scenario = Scenario(2, float(eta_b), float(eta_t), n_s)
                for kind, form in CLOSED_FORMS.items():
                    direct = output_fidelity(scenario, kind, path="direct").value
                    closed = float(form(float(eta_b), float(eta_t), n_s))
                    worst = max(worst, abs(direct - closed))
    elapsed = time.perf_counter() - start
    _report(
        worst <= 1e-9 and elapsed < 10.0,
        "full-output fidelity matches the closed forms to 1e-9 on the "
        "20x20 grid x {0.1, 1, 50}",
        f"worst {worst:.2e}, {elapsed:.1f} s",
    )


def test_three_mode_reduction_matches_direct():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for m in range(3, 9):
        for _ in range(200):
            scenario = Scenario(
                m,
                float(rng.uniform(0.0, 1.0)),
                float(rng.uniform(0.0, 1.0)),
                float(10.0 ** rng.uniform(-1.0, 2.0)),
                kappa=float(rng.uniform(0.0, 1.0)),
            )
            reduced = output_fidelity(scenario, "mixed").value
            direct = output_fidelity(scenario, "mixed", path="direct").value
            worst = max(worst, abs(reduced - direct))
    elapsed = time.perf_counter() - start
    _report(
        worst <= 1e-8 and elapsed < 30.0,
        "three-mode reduction agrees with the full computation to 1e-8 "
        "over 200 draws per m in 3..8",
        f"worst {worst:.2e}, {elapsed:.1f} s",
    )


def test_quadratic_expansion_coefficients():
    worst_rel = 0.0
    for eta in (0.2, 0.5, 0.9):
        for n_s in (1.0, 50.0):
            targets = {
                "classical": n_s / (4.0 * eta),
                "idler_free": n_s / (4.0 * eta * (1.0 - eta)),
                "bipartite": n_s / (4.0 * eta * (1.0 - eta)),
            }
            for kind, target in targets.items():
                value = expansion_coefficient(kind, eta, n_s)
                worst_rel = max(worst_rel, abs(value / target - 1.0))
    _report(
        worst_rel <= 0.01,
        "quadratic coefficients of 1 - F match N_S/(4 eta) and "
        "N_S/(4 eta (1 - eta)) within 1%",
        f"worst rel {worst_rel:.2e}",
    )


def test_extreme_point_identities():
    worst = 0.0
    for epsilon in (0.01, 0.1):
        for n_s in (1.0, 50.0):
            opaque = extreme_point_check("idler_free", "eta_b_zero", epsilon, n_s)
            transparent = extreme_point_check("classical", "eta_b_one", epsilon, n_s)
            worst = max(worst, opaque.abs_error, transparent.abs_error)
    _report(
        worst <= 1e-10,
        "boundary identities 1/(1 + N_S eps) and exp(-N_S (1 - sqrt(1-eps))^2) "
        "hold to 1e-10",
        f"worst {worst:.2e}",
    )


def test_binary_advantage_threshold():
    m, n_s, rounds, eta_b = 2, 20.0, 20.0, 1.0
    threshold = None
    for eta_t in np.arange(0.30, 0.90, 0.001):
        f_if = float(fidelity("idler_free", 2, eta_b, float(eta_t), n_s)[0])
        upper = float(perr_upper(f_if, m, rounds))
        lower = float(classical_perr_lower(eta_b, float(eta_t), n_s, m, rounds))
        if upper < lower:
            threshold = float(eta_t)
            break
    ok = threshold is not None and 0.57 <= threshold <= 0.61
    _report(
        ok,
        "smallest eta_T with idler-free UB below classical LB at "
        "m=2, N_S=20, M=20, eta_B=1 lies in 0.59 +/- 0.02",
        f"threshold {threshold}",
    )


def test_idler_free_crossover_three_boxes():
    eta_b, n_s, m = 0.95, 50.0, 3
    crossover = None
    for eta_t in np.arange(0.50, 0.94, 0.001):
        f_if = float(fidelity("idler_free", m, eta_b, float(eta_t), n_s)[0])
        f_cl = float(fidelity("classical", m, eta_b, float(eta_t), n_s)[0])
        if f_if < f_cl:
            crossover = float(eta_t)
            break
    ok = crossover is not None and 0.73 <= crossover <= 0.77
    _report(
        ok,
        "idler-free fidelity drops below classical at eta_T = 0.75 +/- 0.02 "
        "for eta_B=0.95, N_S=50, m=3",
        f"crossover {crossover}",
    )


def test_mixed_certificate_region():
    eta_b, n_s, m = 0.55, 50.0, 2
    failures = []
    for eta_t in np.linspace(0.88, 1.0, 61):
        f_cl = float(fidelity("classical", 2, eta_b, float(eta_t), n_s)[0])
        f_if = float(fidelity("idler_free", 2, eta_b, float(eta_t), n_s)[0])
        best = float(fidelity("mixed", m, eta_b, float(eta_t), n_s)[0])
        if not (
            advantage_certificate(best, f_cl)
            and advantage_certificate(best, f_if)
        ):
            failures.append(float(eta_t))
    _report(
        not failures,
        "mixed strategy certifies an advantage over classical and idler-free "
        "for every eta_T >= 0.88 at eta_B=0.55, m=2, N_S=50",
        f"{len(failures)} failures" if failures else "61/61 points",
    )


def test_fixed_energy_advantage_region():
    spec = RegionSpec(
        Scenario(3, 1.0, 0.5, 1.0),
        "eta_t",
        np.linspace(0.0, 1.0, 201),
        "n_s",
        np.linspace(1.0, 50.0, 201),
        quantum="idler_free",
        total_energy=1800.0,
    )
    grid = region_scan(spec, workers=1)
    advantage = grid.ub_quantum < grid.lb_classical
    xs = np.asarray(grid.x_values)
    ys = np.asarray(grid.y_values)
    has_x = advantage.any(axis=0)
    has_y = advantage.any(axis=1)
    x_lo = float(xs[has_x].min())
    x_hi = float(xs[has_x].max())
    y_lo = float(ys[has_y].min())
    ok = (
        abs(x_lo - 0.83) <= 0.03
        and abs(x_hi - 0.97) <= 0.03
        and abs(y_lo - 6.0) <= 1.0
    )
    _report(
        ok,
        "fixed-budget advantage region at m=3, eta_B=1, m*M*N_S=1800 spans "
        "eta_T in [0.83, 0.97] +/- 0.03 and needs N_S >= 6 +/- 1",
        f"eta_T [{x_lo:.3f}, {x_hi:.3f}], min N_S {y_lo:.2f}",
    )


def test_large_energy_scaling_slopes():
    n_s = np.logspace(3.0, 5.0, 40)
    log_n = np.log10(n_s)
    slope_bip = np.polyfit(log_n, np.log10(bipartite_fidelity(0.2, 0.7, n_s)), 1)[0]
    slope_if = np.polyfit(log_n, np.log10(fidelity("idler_free", 2, 0.2, 0.7, n_s)[0]), 1)[0]
    decibels = 10.0 * np.log10(fidelity("classical", 2, 0.9, 0.95, n_s)[0])
    r = np.corrcoef(n_s, decibels)[0, 1]
    ok = abs(slope_bip + 2.0) <= 0.05 and abs(slope_if + 1.0) <= 0.05 and r * r > 0.9999
    _report(
        ok,
        "large-N_S slopes: bipartite -2 +/- 0.05, idler-free -1 +/- 0.05, "
        "classical linear in dB (R^2 > 0.9999)",
        f"slopes {slope_bip:.4f}, {slope_if:.4f}, R^2 {r * r:.6f}",
    )


def test_idler_free_levels_off_with_more_boxes():
    values = [float(fidelity("idler_free", m, 0.2, 0.7, 1.0)[0]) for m in range(2, 11)]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    flattens = abs(values[-1] - values[-2]) < abs(values[1] - values[0])
    _report(
        increasing and flattens,
        "idler-free fidelity strictly increases on m in 2..10 and levels off",
        f"first gap {values[1] - values[0]:.3e}, last gap {values[-1] - values[-2]:.3e}",
    )


def test_bound_sanity_and_pgm_endpoint():
    rng = np.random.default_rng(11)
    fs = rng.uniform(0.0, 1.0, 10_000)
    ms = rng.integers(2, 9, 10_000)
    rounds = 10.0 ** rng.uniform(0.0, 2.0, 10_000)
    ordered = all(
        float(perr_lower(f, int(m), r)) <= float(perr_upper(f, int(m), r))
        for f, m, r in zip(fs, ms, rounds)
    )
    exact = all(pgm_pure_upper(1.0, m) == (m - 1.0) / m for m in range(2, 7))
    _report(
        ordered and exact,
        "perr_lower <= perr_upper on 10^4 random draws and "
        "pgm_pure_upper(1, m) = (m-1)/m exactly for m in 2..6",
    )


def test_mixed_strategy_dominates_endpoints():
    eta_b, n_s, m = 0.55, 50.0, 2
    worst = -np.inf
    for eta_t in np.linspace(0.0, 1.0, 50):
        f_cl = float(fidelity("classical", 2, eta_b, float(eta_t), n_s)[0])
        f_if = float(fidelity("idler_free", 2, eta_b, float(eta_t), n_s)[0])
        best = float(fidelity("mixed", m, eta_b, float(eta_t), n_s)[0])
        worst = max(worst, best - min(f_cl, f_if))
    _report(
        worst <= 1e-12,
        "optimized mixing never loses to the classical or idler-free endpoints "
        "across a 50-point eta_T sweep",
        f"worst excess {worst:.2e}",
    )
