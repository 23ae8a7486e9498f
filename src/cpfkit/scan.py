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
from .errors import DomainError, check
from .protocols import PROTOCOL_IDS, Scenario, route

KAPPA_GRID_POINTS = 101
KAPPA_TOL = 1e-6
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

WORKERS_ENV_VAR = "CPFKIT_WORKERS"

SWEEP_VARIABLES = ("eta_b", "eta_t", "n_s", "m", "m_probes")
REGION_AXES = ("eta_b", "eta_t", "n_s")
QUANTUM_PROTOCOLS = ("idler_free", "bipartite", "mixed")


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

    ``variable`` names the scenario field to vary, one of
    :data:`SWEEP_VARIABLES`; ``values`` is the grid; ``protocols`` the
    requested subset of :data:`PROTOCOL_IDS`.
    """

    scenario: Scenario
    variable: str
    values: Tuple[float, ...]
    protocols: Tuple[str, ...] = ("classical", "bipartite", "idler_free")

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise DomainError(f"unknown sweep variable {self.variable!r}")
        if not self.values:
            raise DomainError("sweep needs at least one grid value")
        if not self.protocols:
            raise DomainError("needs at least one protocol", "protocols")
        unknown = [p for p in self.protocols if p not in PROTOCOL_IDS]
        if unknown:
            raise DomainError(f"has unknown entries {unknown}; valid: {list(PROTOCOL_IDS)}",
                              "protocols")


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
    values = check(spec.variable, spec.values)
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

    Axes are named scenario fields from :data:`REGION_AXES`; remaining
    parameters come from ``scenario``.  ``quantum``, one of
    :data:`QUANTUM_PROTOCOLS`, picks the protocol whose upper bound is
    compared against the classical lower bound, and ``total_energy`` switches
    to the fixed-budget mode where the number of rounds per cell is
    total_energy / (m * n_s) instead of scenario.m_probes.
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
            if name not in REGION_AXES:
                raise DomainError(f"region axes must be eta_b, eta_t or n_s, got {name!r}")
        if self.x_name == self.y_name:
            raise DomainError("region axes must differ")
        if self.quantum not in QUANTUM_PROTOCOLS:
            raise DomainError(f"unknown quantum protocol {self.quantum!r}")
        object.__setattr__(self, "x_values", tuple(float(v) for v in self.x_values))
        object.__setattr__(self, "y_values", tuple(float(v) for v in self.y_values))
        if not self.x_values or not self.y_values:
            raise DomainError("region axes need at least one value each")
        check(self.x_name, self.x_values)
        check(self.y_name, self.y_values)
        if self.total_energy is not None:
            check("total_energy", self.total_energy)
            n_s = self.x_values if self.x_name == "n_s" else (
                self.y_values if self.y_name == "n_s" else self.scenario.n_s)
            try:
                check("m_probes", self.rounds(n_s))
            except DomainError as exc:
                raise DomainError(f"sets rounds per cell, total/(m*n_s), that {exc.reason}",
                                  "total_energy") from None

    def rounds(self, n_s) -> np.ndarray:
        """Probe rounds M per cell of energy ``n_s``: scenario.m_probes, or
        total_energy / (m * n_s) under a fixed budget."""
        if self.total_energy is None:
            return np.full(np.shape(n_s), float(self.scenario.m_probes))
        return self.total_energy / (self.scenario.m * np.asarray(n_s))


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
    """Evaluate an advantage map.

    Per cell: one-shot quantum and classical fidelities, the raw (unclamped)
    quantum upper bound and classical lower bound at M rounds, their ratio as
    log10 (computed in log space, so huge M cannot underflow it), and the
    M-independent certificate flag F_quantum < F_classical^2.  Everything is
    evaluated on the whole grid at once except the quantum fidelity, which
    goes row by row to bound the mixed protocol's kappa-grid batches; rows
    may be evaluated concurrently, and assembly order is fixed by the grid.
    """
    workers = _resolve_workers(workers)
    x = np.asarray(spec.x_values, dtype=float)
    y = np.asarray(spec.y_values, dtype=float)
    base = spec.scenario
    axes = dict(zip((spec.x_name, spec.y_name), np.meshgrid(x, y)))
    eta_b, eta_t, n_s = (
        axes[name] if name in axes else np.full((y.size, x.size), getattr(base, name))
        for name in ("eta_b", "eta_t", "n_s")
    )

    def quantum_row(iy: int):
        return fidelity(spec.quantum, base.m, eta_b[iy], eta_t[iy], n_s[iy])

    if workers == 1:
        rows = [quantum_row(iy) for iy in range(y.size)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(quantum_row, range(y.size)))
    f_quantum = np.stack([row[0] for row in rows])
    kappa_star = np.stack([row[1] for row in rows]) if spec.quantum == "mixed" else None

    f_classical = fidelity("classical", base.m, eta_b, eta_t, n_s)[0]
    rounds = spec.rounds(n_s)
    with np.errstate(divide="ignore", under="ignore"):
        ub = perr_upper_raw(f_quantum, base.m, rounds)
        lb = classical_perr_lower(eta_b, eta_t, n_s, base.m, rounds)
        ratio = log10_bound_ratio(f_quantum, eta_b, eta_t, n_s, base.m, rounds)
    metadata = {"m": base.m, "n_s": base.n_s, "eta_b": base.eta_b, "eta_t": base.eta_t,
                "m_probes": base.m_probes, "quantum": spec.quantum, "mode": "log_ratio",
                "total_energy": spec.total_energy}
    return RegionGrid(spec.x_name, x, spec.y_name, y, f_quantum, f_classical, ub, lb, ratio,
                      f_quantum < f_classical**2, rounds, kappa_star, metadata)
