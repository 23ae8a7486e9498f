"""Fidelity dispatch, parameter scans: sweeps, mixing optimization, and
advantage maps.

:func:`fidelity` checks an API caller's values, and :func:`output_fidelity`,
the sweeps and the maps take those their entry checked; all of them answer
through :func:`_fidelity`, which checks nothing again.  All engines here are
deterministic: every cell is evaluated on its own, with no stateful
accumulation, in protocols._cellwise's chunks and threads, so results are
byte-identical across runs, worker counts and chunk sizes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import protocols
from .bounds import classical_perr_lower, log10_bound_ratio, perr_upper_raw
from .errors import DomainError, NumericError, check, one
from .protocols import PROTOCOL_IDS, FidelityReport, ProtocolKind, Scenario

# The mixed-probe kappa search runs in t = log(kappa).  Its coarse grid is
# kappa = 0 and KAPPA_NODES nodes evenly spaced in t from KAPPA_FLOOR squeezed
# photons (kappa * n_s), or from kappa = KAPPA_FLOOR_MAX if that is lower, up
# to kappa = 1.  A cell's refinement stops when its bracket in t is about
# 4 * KAPPA_TOL wide, when its parabolic step falls under KAPPA_TOL, when its
# three best points agree to KAPPA_FTOL relative (below that the kernel's
# rounding decides), or after KAPPA_MAX_STEPS steps.  KAPPA_EDGE_STEP is the
# step in t that tests whether a best node at kappa = 1 is a minimum.
KAPPA_NODES = 24
KAPPA_FLOOR = 1e-4
KAPPA_FLOOR_MAX = 1e-2
KAPPA_TOL = 1e-6
KAPPA_FTOL = 1e-13
KAPPA_MAX_STEPS = 16
KAPPA_EDGE_STEP = 1e-4
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0

SWEEP_VARIABLES = ("eta_b", "eta_t", "n_s", "m", "m_probes")
REGION_AXES = ("eta_b", "eta_t", "n_s")
QUANTUM_PROTOCOLS = ("idler_free", "bipartite", "mixed")


def fidelity(protocol, m: int, eta_b, eta_t, n_s, kappa=None, *, workers: int = 1):
    """Output fidelity of any protocol in :data:`PROTOCOL_IDS`, vectorized.

    Returns (fidelity, kappa_used, path).  Parameters broadcast.  The
    checked entry for API callers: m, eta_b, eta_t and n_s are checked once,
    under the caller's field names, before a swapped protocol exchanges the
    etas, and a given mixed kappa too; then :func:`_fidelity`, which checks
    none of them again, answers.  Classical, bipartite and the two-box
    idler-free protocol (the mixed pair's form at kappa = 1) use closed
    forms (path "closed-form").  The mixed protocol uses ``kappa`` when
    given and otherwise minimizes over it per element (path "optimized");
    its kappa_used has the fidelity's shape, and every other protocol's is
    None.  The idler-free protocol at m >= 3 and the mixed one at a given
    kappa are :func:`protocols.pair_fidelity`'s, path "direct" at m = 2
    (the pair's closed form, with no output pair built) and "reduced"
    beyond (the kernel on the reduced pair).  Where eta_b == eta_t the
    value is exactly 1.  ``workers`` (an integer >= 1) threads take the
    chunks of protocols._cellwise; a closed form is one vectorized call.
    """
    m = int(one(check("m", m), "m"))
    eta_b, eta_t, n_s = check("eta_b", eta_b), check("eta_t", eta_t), check("n_s", n_s)
    kappa = check("kappa", kappa) if protocol == "mixed" and kappa is not None else kappa
    return _fidelity(protocol, m, eta_b, eta_t, n_s, kappa, workers)


def _fidelity(protocol, m, eta_b, eta_t, n_s, kappa=None, workers=1):
    """:func:`fidelity` on values checked where they entered (a Scenario, a RegionSpec,
    the CLI's grid or fidelity); it refuses only what no entry carries, an unknown
    protocol id and a bad ``workers``."""
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise DomainError(f"must be an integer >= 1, got {workers!r}", "workers")
    kind, eta_b, eta_t, kappa = protocols._oriented(protocol, eta_b, eta_t, kappa)
    mixed = kind is ProtocolKind.MIXED
    if mixed and kappa is None:
        kappa, value = _optimize_kappa_batch(m, eta_b, eta_t, n_s, workers)
        return value, kappa, "optimized"
    # through the protocols module's attributes, as in _search_log_kappa
    if kind is ProtocolKind.CLASSICAL:
        value = protocols.classical_fidelity(eta_b, eta_t, n_s)
    elif kind is ProtocolKind.BIPARTITE:
        value = protocols.bipartite_fidelity(eta_b, eta_t, n_s)
    elif kind is ProtocolKind.IDLER_FREE and m == 2:
        with np.errstate(invalid="ignore"):  # 0/0 at equal etas of 0, overwritten below
            value = protocols._mixed_binary_fidelity(eta_b, eta_t, n_s, kappa)
    else:
        value, = protocols._cellwise(lambda *c: (protocols.pair_fidelity(m, *c),), (1.0,),
                                     eta_b, eta_t, n_s, kappa, workers=workers)
        kappa = np.broadcast_to(kappa, np.shape(value)) if mixed else None
        return value, kappa, "direct" if m == 2 else "reduced"
    # the etas, not the arrays: sqrt(eta * eta) need not equal eta
    same = np.equal(eta_b, eta_t)
    return (np.where(same, 1.0, value) if same.any() else value), None, "closed-form"


def output_fidelity(scenario: Scenario, kind, path: str = "auto") -> FidelityReport:
    """One-shot output fidelity for a protocol, with the evaluation path taken.

    ``kind`` is a :class:`ProtocolKind` or any id in :data:`PROTOCOL_IDS`.
    The auto path is :func:`fidelity`'s: the mixed protocol without
    scenario.kappa is minimized over kappa (path "optimized"), and the
    report's kappa is the mixed protocol's, given or optimized (else None).
    ``path="direct"`` forces the full m-mode (2m for bipartite) computation
    for any protocol, which exists as a cross-check of the fast paths, and
    needs scenario.kappa for the mixed protocol.  Whenever the fidelity
    comes from an output pair at a given kappa (on the auto path built here
    too), the report carries the smaller min symplectic eigenvalue of the
    two states and a warning for each unphysical one.  :func:`_fidelity`
    takes the scenario's checked fields unchecked; a None in m, eta_b, eta_t
    or n_s is refused as required.
    """
    if path not in ("auto", "direct"):
        raise DomainError(f"path must be 'auto' or 'direct', got {path!r}")
    m, eta_b, eta_t, n_s = (_required(scenario, name) for name in ("m", "eta_b", "eta_t", "n_s"))
    probe, pair_b, pair_t, kappa = protocols._oriented(kind, eta_b, eta_t, scenario.kappa)
    if path == "direct":
        kappa = _required(scenario, "kappa") if probe is ProtocolKind.MIXED else kappa
        pair = protocols._direct_pair(probe, m, pair_b, pair_t, n_s, kappa)
        try:
            value, label = protocols.fidelity_from_arrays(*pair), "direct"
        except NumericError as exc:
            raise DomainError(f"direct cannot evaluate this point: {exc}", "path") from exc
    else:
        value, used, label = _fidelity(kind, m, eta_b, eta_t, n_s, scenario.kappa)
        pair = (protocols.output_pair_arrays(m, pair_b, pair_t, n_s, kappa)
                if label in ("direct", "reduced") else None)
        kappa = used
    report = ({}, ()) if pair is None else protocols._physicality(pair)
    kappa = float(kappa) if probe is ProtocolKind.MIXED else None
    return FidelityReport(float(value), label, probe, *report, kappa)


def _optimize_kappa_batch(m: int, eta_b, eta_t, n_s, workers: int = 1) -> tuple:
    """Minimize the mixed-probe fidelity over kappa, element-wise on a batch.

    Returns (kappa, fidelity) with the broadcast shape of the parameters,
    which were checked where they entered; like :func:`protocols.pair_fidelity`
    it checks nothing.  Through :func:`protocols._cellwise`, a cell at
    eta_b == eta_t returns kappa = 0 and fidelity 1 unsearched, and every
    other cell is searched on its own, whatever its batch.  The search works in
    t = log(kappa), which resolves the sqrt(kappa * n_s) boundary layer of F
    at kappa = 0.  One call evaluates the coarse grid, which holds both
    endpoints.  A Brent search (safeguarded parabolic steps, golden-section
    fallback) then refines the bracket of the best node's neighbours, one
    call per step for the cells still open; the KAPPA_* constants say when a
    cell stops.  A call is :func:`protocols.pair_fidelity`, unchecked: the
    kernel on the reduced pair, or at m = 2 the pair's closed form.  A best
    node at kappa = 0 is kept; one at kappa = 1 is refined only if
    kappa = exp(-KAPPA_EDGE_STEP) is lower.  F(kappa) can have several wells
    (often a second one at kappa = 1, past a local maximum near 0.98), and
    only the best node's bracket is refined.  The result is the best point
    evaluated, so it never loses to either endpoint.
    """
    return protocols._cellwise(lambda *c: _search_log_kappa(m, *map(np.ravel, c)), (0.0, 1.0),
                               eta_b, eta_t, n_s, workers=workers)


def _search_log_kappa(m: int, eta_b, eta_t, n_s) -> tuple:
    """:func:`_optimize_kappa_batch` on checked 1-d cells with eta_b != eta_t."""

    def mixed(cells, kappa):
        # through the protocols module's attribute, so that a wrapper
        # installed there sees every call
        return protocols.pair_fidelity(m, eta_b[cells], eta_t[cells], n_s[cells], kappa)

    every = np.arange(eta_b.size)
    t_floor = np.minimum(math.log(KAPPA_FLOOR) - np.log(n_s), math.log(KAPPA_FLOOR_MAX))
    nodes = np.concatenate((np.full((every.size, 1), -np.inf),
                            t_floor[:, None] * np.linspace(1.0, 0.0, KAPPA_NODES)), axis=1)
    f_nodes = mixed(every[:, None], np.exp(nodes))
    best = np.argmin(f_nodes, axis=1)  # ties keep the smallest kappa
    t_best, f_best = nodes[every, best], f_nodes[every, best]

    # Brent's state per open cell: the bracket [a, b] around x, the best
    # point so far; w and v, the second and third best; d, the last step and
    # e, the one before.  Below the floor node the bracket reaches one grid
    # step down, unevaluated.  At kappa = 1 it is [node below, 0] with x = b,
    # and the first step tests t = -KAPPA_EDGE_STEP.
    i = best[best > 0]
    cells = every[best > 0]
    x, fx = nodes[cells, i], f_nodes[cells, i]
    low, high = np.maximum(i - 1, 1), np.minimum(i + 1, KAPPA_NODES)
    a = np.where(i > 1, nodes[cells, low], 2.0 * nodes[cells, 1] - nodes[cells, 2])
    b = nodes[cells, high]
    fa, fb = f_nodes[cells, low], f_nodes[cells, high]
    inner = (i > 1) & (i < KAPPA_NODES)
    w_is_a = (i == KAPPA_NODES) | (inner & (fa <= fb))
    w, fw = np.where(w_is_a, a, b), np.where(w_is_a, fa, fb)
    v = np.where(inner, np.where(w_is_a, b, a), w)
    fv = np.where(inner, np.where(w_is_a, fb, fa), fw)
    d = e = b - a
    tol, tol2 = KAPPA_TOL, 2.0 * KAPPA_TOL
    for steps in range(KAPPA_MAX_STEPS + 1):
        mid = 0.5 * (a + b)
        # the parabola through x, w and v, taken if its step lands inside the
        # bracket and is under half the step before last; else a golden step
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        parabolic = ((np.abs(e) > tol) & (np.abs(p) < np.abs(0.5 * q * e))
                     & (p > q * (a - x)) & (p < q * (b - x)))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = p / q
        done = ((np.abs(x - mid) <= tol2 - 0.5 * (b - a))
                | (parabolic & (np.abs(step) < tol))
                | ((np.abs(fw - fx) <= KAPPA_FTOL * fx) & (np.abs(fv - fx) <= KAPPA_FTOL * fx))
                | ((x == b) & (b - a <= KAPPA_EDGE_STEP))
                | (steps == KAPPA_MAX_STEPS))
        if done.all():
            t_best[cells], f_best[cells] = x, fx
            break
        if done.any():  # the open cells' state is re-indexed only when one closes
            t_best[cells[done]], f_best[cells[done]] = x[done], fx[done]
            go = ~done
            cells, x, fx, a, b, w, fw, v, fv, d, e, mid, parabolic, step = (
                z[go] for z in (cells, x, fx, a, b, w, fw, v, fv, d, e, mid, parabolic, step))

        step = np.where((x + step - a < tol2) | (b - x - step < tol2),
                        np.copysign(tol, mid - x), step)
        golden = np.where(x >= mid, a - x, b - x)
        edge = x == b  # at kappa = 1, before the first step
        e = np.where(edge, e, np.where(parabolic, d, golden))
        d = np.where(edge, d, np.where(parabolic, step, _GOLDEN * golden))
        u = np.where(edge, x - KAPPA_EDGE_STEP,
                     x + np.where(np.abs(d) >= tol, d, np.copysign(tol, d)))
        fu = mixed(cells, np.exp(u))

        better = fu <= fx
        a, b = (np.where(better, np.where(u >= x, x, a), np.where(u < x, u, a)),
                np.where(better, np.where(u >= x, b, x), np.where(u < x, b, u)))
        second = ~better & ((fu <= fw) | (w == x))
        third = ~better & ~second & ((fu <= fv) | (v == x) | (v == w))
        v, fv = (np.where(better | second, w, np.where(third, u, v)),
                 np.where(better | second, fw, np.where(third, fu, fv)))
        w, fw = (np.where(better, x, np.where(second, u, w)),
                 np.where(better, fx, np.where(second, fu, fw)))
        x, fx = np.where(better, u, x), np.where(better, fu, fx)
    return np.exp(t_best), f_best


def _required(scenario: Scenario, name: str):
    """The (checked) field ``name`` of ``scenario``; a None is refused."""
    value = getattr(scenario, name)
    if value is None:
        raise DomainError("is required", name)
    return value


def _sweep_column(base: Scenario, variable: str, protocol: str, values: np.ndarray):
    """Fidelity grid and kappa grid (None unless mixed) for one protocol."""
    fixed = {name: _required(base, name) for name in ("m", "eta_b", "eta_t", "n_s")
             if name != variable}
    if variable == "m":
        # structural variable: matrix sizes change, evaluate point by point
        points = [_fidelity(protocol, int(m), **fixed, kappa=base.kappa) for m in values]
        fids, kappas = np.stack([p[0] for p in points]), [p[1] for p in points]
        return fids, None if kappas[0] is None else np.stack(kappas)
    cells = values[:1] if variable == "m_probes" else values  # no fidelity reads M
    eta_b, eta_t, n_s = (cells if variable == name else np.full(cells.shape, fixed[name])
                         for name in ("eta_b", "eta_t", "n_s"))
    return tuple(grid if grid is None else np.broadcast_to(grid, values.shape)
                 for grid in _fidelity(protocol, fixed["m"], eta_b, eta_t, n_s, base.kappa)[:2])


def _sweep_columns(scenario: Scenario, variable: str, values: np.ndarray, protocols) -> dict:
    """(fidelity, kappa) grids along the checked float grid ``values`` of
    ``variable``, one of :data:`SWEEP_VARIABLES`, per protocol in
    ``protocols``, in canonical order.  :func:`_fidelity` takes the
    scenario's checked fields unchecked (a None it reads is refused as
    required), and its ``variable`` field is None or ignored."""
    return {p: _sweep_column(scenario, variable, p, values)
            for p in PROTOCOL_IDS if p in protocols}


@dataclass(frozen=True)
class RegionSpec:
    """A two-dimensional advantage map.

    Axes are named scenario fields from :data:`REGION_AXES`, each with a 1-d
    grid of values; the fields the axes set are None in ``scenario`` (a value
    given there is replaced by None), and every other parameter comes from
    it.  ``quantum``, one of :data:`QUANTUM_PROTOCOLS`, picks the protocol
    whose upper bound is compared against the classical lower bound, and
    ``total_energy`` switches to the fixed-budget mode where the number of
    rounds per cell is total_energy / (m * n_s) instead of scenario.m_probes,
    which may then be None.
    """

    scenario: Scenario
    x_name: str
    x_values: np.ndarray
    y_name: str
    y_values: np.ndarray
    quantum: str = "idler_free"
    total_energy: float | None = None

    def __post_init__(self):
        axes = (self.x_name, self.y_name)
        for name in axes:
            if name not in REGION_AXES:
                raise DomainError(f"region axes must be eta_b, eta_t or n_s, got {name!r}")
        if self.x_name == self.y_name:
            raise DomainError("region axes must differ")
        if self.quantum not in QUANTUM_PROTOCOLS:
            raise DomainError(f"unknown quantum protocol {self.quantum!r}")
        for attr, name in zip(("x_values", "y_values"), axes):
            values = check(name, getattr(self, attr)).copy()
            if values.ndim != 1 or not values.size:
                raise DomainError(f"axis must be 1-d with at least one value, got shape "
                                  f"{values.shape}", name)
            object.__setattr__(self, attr, values)
        if any(getattr(self.scenario, name) is not None for name in axes):
            object.__setattr__(self, "scenario", replace(self.scenario, **dict.fromkeys(axes)))
        for name in ("m", *REGION_AXES, "m_probes"):
            if name not in axes and (name != "m_probes" or self.total_energy is None):
                _required(self.scenario, name)
        if self.total_energy is not None:
            total_energy = one(check("total_energy", self.total_energy), "total_energy")
            object.__setattr__(self, "total_energy", total_energy)
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
    M-independent certificate flag F_quantum < F_classical^2, each evaluated
    on the whole grid at once.  The spec has checked every value, and
    :func:`_fidelity` takes them unchecked: the quantum fidelity (with its
    kappa search for the mixed protocol) is one call with ``workers``
    threads (None is 1), which refuses what is not an integer >= 1.
    """
    x, y, base = spec.x_values, spec.y_values, spec.scenario
    axes = dict(zip((spec.x_name, spec.y_name), np.meshgrid(x, y)))
    eta_b, eta_t, n_s = (
        axes[name] if name in axes else np.full((y.size, x.size), getattr(base, name))
        for name in ("eta_b", "eta_t", "n_s")
    )
    f_quantum, kappa_star = _fidelity(spec.quantum, base.m, eta_b, eta_t, n_s,
                                      workers=1 if workers is None else workers)[:2]
    f_classical = _fidelity("classical", base.m, eta_b, eta_t, n_s)[0]
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
