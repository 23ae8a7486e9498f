"""Parameter scans: sweeps, mixing optimization, and advantage maps.

All engines here are deterministic: grids are evaluated cell by cell with no
stateful accumulation, so results are byte-identical across runs and across
worker counts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .bounds import classical_perr_lower, log10_bound_ratio, perr_upper_raw
from .errors import DomainError
from .probes import ProtocolKind
from .protocols import (
    PROTOCOL_IDS,
    Scenario,
    bipartite_fidelity,
    classical_fidelity,
    idler_free_binary_fidelity,
    route,
)

KAPPA_GRID_POINTS = 101
KAPPA_TOL = 1e-6
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

WORKERS_ENV_VAR = "CPFKIT_WORKERS"


def _resolve_workers(workers: int | None) -> int:
    source = "workers"
    if workers is None:
        source, raw = WORKERS_ENV_VAR, os.environ.get(WORKERS_ENV_VAR, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise DomainError(f"{source} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise DomainError(f"{source} must be at least 1, got {workers}")
    return workers


# scenario fields a grid may vary, with the domain of their values
_GRID_DOMAINS = {
    "eta_b": ("in [0, 1]", lambda v: (v >= 0.0) & (v <= 1.0)),
    "eta_t": ("in [0, 1]", lambda v: (v >= 0.0) & (v <= 1.0)),
    "n_s": ("positive", lambda v: v > 0.0),
    "m": ("integers >= 2", lambda v: (v >= 2.0) & (v == np.round(v))),
    "m_probes": ("at least 1", lambda v: v >= 1.0),
}


def _check_grid(name: str, values) -> np.ndarray:
    """The grid of scenario field ``name`` as floats, each finite and in its domain."""
    values = np.asarray(values, dtype=float)
    rule, inside = _GRID_DOMAINS[name]
    bad = ~(np.isfinite(values) & inside(values))
    if bad.any():
        raise DomainError(f"{name} grid values must be finite and {rule}, got {values[bad][0]}")
    return values


def fidelity(protocol, m: int, eta_b, eta_t, n_s, kappa=None):
    """Output fidelity of any protocol in :data:`PROTOCOL_IDS`, vectorized.

    Returns (fidelity, kappa_used, path).  Parameters broadcast.  The mixed
    protocol uses ``kappa`` when given and otherwise minimizes over it per
    element (path "optimized"); its kappa_used has the fidelity's shape, and
    every other protocol's is None.  The rest is :func:`protocols.route`:
    closed forms, the two-mode pair at m = 2 or the reduced three-mode pair.
    """
    if protocol == "mixed" and kappa is None:
        kappa, value = _optimize_kappa_batch(m, eta_b, eta_t, n_s)
        return value, kappa, "optimized"
    value, path, _ = route(protocol, m, eta_b, eta_t, n_s, kappa)
    if protocol != "mixed":
        return value, None, path
    return value, np.broadcast_to(np.asarray(kappa, dtype=float), np.shape(value)), path


@dataclass(frozen=True)
class KappaResult:
    """Optimal mixing fraction and the fidelity it attains."""

    kappa: float
    fidelity: float


def _optimize_kappa_batch(m: int, eta_b, eta_t, n_s) -> Tuple[np.ndarray, np.ndarray]:
    """Minimize the mixed-probe fidelity over kappa, element-wise on a batch.

    Coarse 101-point grid first (ties keep the smallest kappa), then a
    golden-section refinement of the bracketing cells down to |dk| <= 1e-6.
    The result is the best point ever evaluated, so it can never lose to the
    kappa = 0 (classical) or kappa = 1 (idler-free) endpoints.
    """
    eta_b = np.asarray(eta_b, dtype=float)
    eta_t = np.asarray(eta_t, dtype=float)
    n_s = np.asarray(n_s, dtype=float)
    batch = np.broadcast_shapes(eta_b.shape, eta_t.shape, n_s.shape)
    eta_b, eta_t, n_s = (np.broadcast_to(v, batch) for v in (eta_b, eta_t, n_s))

    grid = np.linspace(0.0, 1.0, KAPPA_GRID_POINTS)
    f_grid = route("mixed", m, eta_b[..., None], eta_t[..., None], n_s[..., None], grid)[0]
    idx = np.argmin(f_grid, axis=-1)  # ties resolve to the smallest kappa
    best_f = np.take_along_axis(f_grid, idx[..., None], axis=-1)[..., 0]
    best_k = grid[idx]

    def evaluate(kappa):
        return route("mixed", m, eta_b, eta_t, n_s, kappa)[0]

    def absorb(kappa, value):
        nonlocal best_k, best_f
        better = value < best_f
        best_k = np.where(better, kappa, best_k)
        best_f = np.where(better, value, best_f)

    cell = 1.0 / (KAPPA_GRID_POINTS - 1)
    lo = np.maximum(best_k - cell, 0.0)
    hi = np.minimum(best_k + cell, 1.0)
    left = hi - _INV_PHI * (hi - lo)
    right = lo + _INV_PHI * (hi - lo)
    f_left = evaluate(left)
    f_right = evaluate(right)
    absorb(left, f_left)
    absorb(right, f_right)

    while float(np.max(hi - lo)) > KAPPA_TOL:
        keep_left = f_left < f_right
        hi = np.where(keep_left, right, hi)
        lo = np.where(keep_left, lo, left)
        reused_x = np.where(keep_left, left, right)
        reused_f = np.where(keep_left, f_left, f_right)
        fresh = np.where(
            keep_left, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
        )
        f_fresh = evaluate(fresh)
        absorb(fresh, f_fresh)
        left = np.where(keep_left, fresh, reused_x)
        f_left = np.where(keep_left, f_fresh, reused_f)
        right = np.where(keep_left, reused_x, fresh)
        f_right = np.where(keep_left, reused_f, f_fresh)

    return best_k, best_f


def optimize_kappa(scenario: Scenario) -> KappaResult:
    """Best mixing fraction for one scenario (smallest output fidelity).

    With eta_b = eta_t every kappa gives fidelity 1 and the grid minimum,
    kappa = 0, is returned.
    """
    kappa, fidelity = _optimize_kappa_batch(
        scenario.m,
        np.asarray(scenario.eta_b, dtype=float),
        np.asarray(scenario.eta_t, dtype=float),
        np.asarray(scenario.n_s, dtype=float),
    )
    return KappaResult(float(kappa), float(fidelity))


@dataclass(frozen=True)
class SweepSpec:
    """A one-dimensional fidelity sweep.

    ``variable`` names the scenario field to vary ("eta_b", "eta_t", "n_s",
    "m" or "m_probes"); ``values`` is the grid; ``protocols`` the requested
    subset of :data:`PROTOCOL_IDS`.
    """

    scenario: Scenario
    variable: str
    values: Tuple[float, ...]
    protocols: Tuple[str, ...] = ("classical", "bipartite", "idler_free")

    def __post_init__(self):
        if self.variable not in ("eta_b", "eta_t", "n_s", "m", "m_probes"):
            raise DomainError(f"unknown sweep variable {self.variable!r}")
        if not self.values:
            raise DomainError("sweep needs at least one grid value")
        unknown = [p for p in self.protocols if p not in PROTOCOL_IDS]
        if unknown:
            raise DomainError(f"unknown protocols {unknown}; valid: {PROTOCOL_IDS}")


def _sweep_column(spec: SweepSpec, protocol: str, values: np.ndarray):
    """Fidelity grid and kappa grid (None unless mixed) for one protocol."""
    base = spec.scenario
    if spec.variable == "m":
        # structural variable: matrix sizes change, evaluate point by point
        points = [
            fidelity(protocol, int(m), base.eta_b, base.eta_t, base.n_s, base.kappa)
            for m in values
        ]
        fids, kappas = np.stack([p[0] for p in points]), [p[1] for p in points]
        return fids, None if kappas[0] is None else np.stack(kappas)
    eta_b, eta_t, n_s = (
        values if spec.variable == name else np.full(values.shape, getattr(base, name))
        for name in ("eta_b", "eta_t", "n_s")
    )
    return fidelity(protocol, base.m, eta_b, eta_t, n_s, base.kappa)[:2]


def _sweep_columns(spec: SweepSpec) -> dict:
    """(fidelity, kappa) grids per requested protocol, in canonical order."""
    values = _check_grid(spec.variable, spec.values)
    return {p: _sweep_column(spec, p, values) for p in PROTOCOL_IDS if p in spec.protocols}


def sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate the sweep and return rows in deterministic order.

    Rows are grid-major: all protocols for the first grid value, then the
    next value, with protocols in canonical :data:`PROTOCOL_IDS` order.  Each
    row carries the variable name, value, protocol, fidelity and (for the
    mixed protocol) the kappa used.
    """
    columns = _sweep_columns(spec)
    rows = []
    for i, value in enumerate(spec.values):
        for protocol, (fids, kappa) in columns.items():
            rows.append(
                {
                    "variable": spec.variable,
                    "value": float(value),
                    "protocol": protocol,
                    "fidelity": float(fids[i]),
                    "kappa": None if kappa is None else float(kappa[i]),
                }
            )
    return rows


@dataclass(frozen=True)
class RegionSpec:
    """A two-dimensional advantage map.

    Axes are named scenario fields ("eta_b", "eta_t" or "n_s"); remaining
    parameters come from ``scenario``.  ``quantum`` picks the protocol whose
    upper bound is compared against the classical lower bound, and
    ``total_energy`` switches to the fixed-budget mode where the number of
    rounds per cell is total_energy / (m * n_s) instead of
    scenario.m_probes.
    """

    scenario: Scenario
    x_name: str
    x_values: Tuple[float, ...]
    y_name: str
    y_values: Tuple[float, ...]
    quantum: str = "idler_free"
    total_energy: float | None = None

    def __post_init__(self):
        for name in (self.x_name, self.y_name):
            if name not in ("eta_b", "eta_t", "n_s"):
                raise DomainError(f"region axes must be eta_b, eta_t or n_s, got {name!r}")
        if self.x_name == self.y_name:
            raise DomainError("region axes must differ")
        if self.quantum not in ("idler_free", "bipartite", "mixed"):
            raise DomainError(f"unknown quantum protocol {self.quantum!r}")
        object.__setattr__(self, "x_values", tuple(float(v) for v in self.x_values))
        object.__setattr__(self, "y_values", tuple(float(v) for v in self.y_values))
        if not self.x_values or not self.y_values:
            raise DomainError("region axes need at least one value each")
        _check_grid(self.x_name, self.x_values)
        _check_grid(self.y_name, self.y_values)
        energy = self.total_energy
        if energy is not None and not (energy > 0 and math.isfinite(energy)):
            raise DomainError(f"total_energy must be positive and finite, got {energy}")


@dataclass(frozen=True)
class RegionGrid:
    """Result of :func:`region_scan`; arrays are indexed [y, x]."""

    x_name: str
    x_values: np.ndarray
    y_name: str
    y_values: np.ndarray
    f_quantum: np.ndarray
    f_classical: np.ndarray
    ub_quantum: np.ndarray
    lb_classical: np.ndarray
    log10_ratio: np.ndarray
    certificate: np.ndarray
    m_probes: np.ndarray
    kappa_star: np.ndarray | None
    metadata: dict


def region_scan(spec: RegionSpec, workers: int | None = None) -> RegionGrid:
    """Evaluate an advantage map row by row.

    Per cell: one-shot quantum and classical fidelities, the raw (unclamped)
    quantum upper bound and classical lower bound at M rounds, their ratio as
    log10 (computed in log space, so huge M cannot underflow it), and the
    M-independent certificate flag F_quantum < F_classical^2.  Rows may be
    evaluated concurrently; assembly order is fixed by the grid alone.
    """
    workers = _resolve_workers(workers)
    x = np.asarray(spec.x_values, dtype=float)
    y = np.asarray(spec.y_values, dtype=float)
    base = spec.scenario
    ny, nx = y.size, x.size

    f_quantum = np.empty((ny, nx))
    f_classical = np.empty((ny, nx))
    ub = np.empty((ny, nx))
    lb = np.empty((ny, nx))
    ratio = np.empty((ny, nx))
    rounds = np.empty((ny, nx))
    kappa_star = np.empty((ny, nx)) if spec.quantum == "mixed" else None

    def axis_value(name: str, iy: int) -> np.ndarray:
        if spec.x_name == name:
            return x
        if spec.y_name == name:
            return np.full(nx, y[iy])
        return np.full(nx, getattr(base, name))

    def fill_row(iy: int) -> None:
        eta_b = axis_value("eta_b", iy)
        eta_t = axis_value("eta_t", iy)
        n_s = axis_value("n_s", iy)
        if spec.total_energy is not None:
            m_rounds = spec.total_energy / (base.m * n_s)
        else:
            m_rounds = np.full(nx, float(base.m_probes))
        f_c = fidelity("classical", base.m, eta_b, eta_t, n_s)[0]
        f_q, kappa, _ = fidelity(spec.quantum, base.m, eta_b, eta_t, n_s)
        if kappa_star is not None:
            kappa_star[iy] = kappa
        with np.errstate(divide="ignore", under="ignore"):
            ub[iy] = perr_upper_raw(f_q, base.m, m_rounds)
            lb[iy] = classical_perr_lower(eta_b, eta_t, n_s, base.m, m_rounds)
            ratio[iy] = log10_bound_ratio(f_q, eta_b, eta_t, n_s, base.m, m_rounds)
        f_quantum[iy] = f_q
        f_classical[iy] = f_c
        rounds[iy] = m_rounds

    if workers == 1:
        for iy in range(ny):
            fill_row(iy)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill_row, range(ny)))

    certificate = f_quantum < f_classical**2
    metadata = {
        "m": base.m,
        "n_s": base.n_s,
        "eta_b": base.eta_b,
        "eta_t": base.eta_t,
        "m_probes": base.m_probes,
        "quantum": spec.quantum,
        "mode": "log_ratio",
        "total_energy": spec.total_energy,
    }
    return RegionGrid(
        spec.x_name,
        x,
        spec.y_name,
        y,
        f_quantum,
        f_classical,
        ub,
        lb,
        ratio,
        certificate,
        rounds,
        kappa_star,
        metadata,
    )


_EXPANSION_FORMS = {
    ProtocolKind.CLASSICAL: classical_fidelity,
    ProtocolKind.BIPARTITE: bipartite_fidelity,
    ProtocolKind.IDLER_FREE: idler_free_binary_fidelity,
}

_EXPANSION_STEPS = (1e-3, 5e-4)


def expansion_coefficient(kind, eta: float, n_s: float) -> float:
    """Quadratic coefficient c2 of 1 - F at eta_t = eta_b = eta.

    Evaluates (1 - F(eta_b = eta + eps, eta_t = eta)) / eps^2 at two steps and
    Richardson-extrapolates the linear error away.  Defined for the three
    closed-form protocols (binary idler-free for the idler-free kind).
    """
    kind = ProtocolKind(kind)
    if kind not in _EXPANSION_FORMS:
        raise DomainError(f"no expansion for protocol {kind.value!r}")
    big = max(_EXPANSION_STEPS)
    if not 0.0 < eta <= 1.0 - big:
        raise DomainError(f"eta must lie in (0, {1.0 - big}], got {eta}")
    if not n_s > 0:
        raise DomainError(f"n_s must be positive, got {n_s}")
    form = _EXPANSION_FORMS[kind]

    def quotient(eps: float) -> float:
        return (1.0 - float(form(eta + eps, eta, n_s))) / eps**2

    f_big, f_small = quotient(_EXPANSION_STEPS[0]), quotient(_EXPANSION_STEPS[1])
    return 2.0 * f_small - f_big


@dataclass(frozen=True)
class ExtremePointCheck:
    """Protocol fidelity at a boundary point against its simplified form."""

    fidelity: float
    reference: float
    abs_error: float


def extreme_point_check(kind, which: str, epsilon: float, n_s: float) -> ExtremePointCheck:
    """Evaluate a protocol at an extreme transmissivity pair.

    ``which`` = "eta_b_zero" evaluates F(eta_b = 0, eta_t = epsilon);
    "eta_b_one" evaluates F(eta_b = 1, eta_t = 1 - epsilon).  The reference
    is the simplified boundary expression for that protocol.
    """
    kind = ProtocolKind(kind)
    if kind not in _EXPANSION_FORMS:
        raise DomainError(f"no closed form for protocol {kind.value!r}")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not n_s > 0:
        raise DomainError(f"n_s must be positive, got {n_s}")
    form = _EXPANSION_FORMS[kind]
    if which == "eta_b_zero":
        value = float(form(0.0, epsilon, n_s))
        references = {
            ProtocolKind.CLASSICAL: math.exp(-n_s * epsilon),
            ProtocolKind.IDLER_FREE: 1.0 / (1.0 + n_s * epsilon),
            ProtocolKind.BIPARTITE: (1.0 + n_s * (1.0 - math.sqrt(1.0 - epsilon))) ** -2.0,
        }
    elif which == "eta_b_one":
        value = float(form(1.0, 1.0 - epsilon, n_s))
        references = {
            ProtocolKind.CLASSICAL: math.exp(-n_s * (1.0 - math.sqrt(1.0 - epsilon)) ** 2),
            ProtocolKind.IDLER_FREE: 1.0 / (1.0 + n_s * epsilon),
            ProtocolKind.BIPARTITE: (1.0 + n_s * (1.0 - math.sqrt(1.0 - epsilon))) ** -2.0,
        }
    else:
        raise DomainError(f"which must be 'eta_b_zero' or 'eta_b_one', got {which!r}")
    reference = references[kind]
    return ExtremePointCheck(value, reference, abs(value - reference))
