"""Output fidelities for channel position finding on pure-loss channels.

One of m boxes applies transmissivity eta_t to whatever passes through it,
the other m-1 apply eta_b.  Discriminating which box is the target reduces
to telling apart the m possible output states, whose pairwise fidelity is
what everything downstream (error bounds, advantage maps) consumes.  This
module provides the closed forms where they exist and Gaussian-numerics
paths (full-size "direct" and three-mode "reduced") where they do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Tuple

import numpy as np

from .errors import DomainError, InvalidStateError
from .gaussian import (
    GaussianState,
    check_physical,
    fidelity_from_arrays,
    gaussian_fidelity,
    pure_loss,
)
from .probes import ProbeSpec, ProtocolKind, bipartite_probe, build_probe


@dataclass(frozen=True)
class Scenario:
    """A channel position finding setting.

    m boxes, background/target transmissivities eta_b/eta_t, mean photon
    number n_s per probe mode, m_probes repetitions (enters the error-
    probability bounds, not the one-shot fidelity), and an optional mixing
    fraction kappa for the mixed protocol.
    """

    m: int
    eta_b: float
    eta_t: float
    n_s: float
    m_probes: float = 1.0
    kappa: float | None = None

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 2:
            raise DomainError(f"m must be an integer >= 2, got {self.m}")
        for name in ("eta_b", "eta_t"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DomainError(f"{name} must lie in [0, 1], got {value}")
        if not (self.n_s > 0 and math.isfinite(self.n_s)):
            raise DomainError(f"n_s must be positive and finite, got {self.n_s}")
        if not (self.m_probes >= 1 and math.isfinite(self.m_probes)):
            raise DomainError(f"m_probes must be finite and at least 1, got {self.m_probes}")
        if self.kappa is not None and not 0.0 <= self.kappa <= 1.0:
            raise DomainError(f"kappa must lie in [0, 1], got {self.kappa}")


@dataclass(frozen=True)
class FidelityReport:
    """Result of :func:`output_fidelity`: value plus how it was computed."""

    value: float
    path: str  # "closed-form" | "reduced" | "direct"
    kind: ProtocolKind
    diagnostics: dict = field(default_factory=dict)
    warnings: Tuple[str, ...] = ()


# protocol id -> (probe family, whether eta_b and eta_t swap roles), in the
# canonical emission order for tables
_PROTOCOLS = {
    "classical": (ProtocolKind.CLASSICAL, False),
    "bipartite": (ProtocolKind.BIPARTITE, False),
    "idler_free": (ProtocolKind.IDLER_FREE, False),
    "idler_free_reversed": (ProtocolKind.IDLER_FREE, True),
    "mixed": (ProtocolKind.MIXED, False),
}
PROTOCOL_IDS = tuple(_PROTOCOLS)


def listed_protocols(m: int) -> tuple:
    """The protocol ids worth a row at m boxes: at m = 2 the idler-free
    fidelity is symmetric in eta_b and eta_t, so a swapped row repeats it."""
    return tuple(p for p, (_, swapped) in _PROTOCOLS.items() if m > 2 or not swapped)


def _oriented(protocol, eta_b, eta_t):
    """The probe family of a protocol id and the (eta_b, eta_t) it sees."""
    if protocol not in _PROTOCOLS:
        raise DomainError(f"unknown protocol {protocol!r}; valid: {PROTOCOL_IDS}")
    kind, swapped = _PROTOCOLS[protocol]
    if not swapped:
        return kind, eta_b, eta_t
    # checked before the swap, so that a message names the caller's field
    return kind, _check_eta("eta_t", eta_t), _check_eta("eta_b", eta_b)


def _check_eta(name: str, value) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    if not np.all((value >= 0.0) & (value <= 1.0)):  # also refuses nan
        raise DomainError(f"{name} must lie in [0, 1]")
    return value


def _check_n_s(value) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    if not np.all((value >= 0.0) & (value < math.inf)):  # also refuses nan
        raise DomainError("n_s must be nonnegative and finite")
    return value


def classical_fidelity(eta_b, eta_t, n_s):
    """Output fidelity of the coherent-state protocol, one probe round.

    The two hypotheses differ on two modes, each a coherent state, giving
    exp(-n_s (sqrt(eta_b) - sqrt(eta_t))^2) independent of m.
    """
    eta_b, eta_t = _check_eta("eta_b", eta_b), _check_eta("eta_t", eta_t)
    n_s = _check_n_s(n_s)
    return np.exp(-n_s * (np.sqrt(eta_b) - np.sqrt(eta_t)) ** 2)


def bipartite_fidelity(eta_b, eta_t, n_s):
    """Output fidelity with one two-mode squeezed pair per box, idlers retained."""
    eta_b, eta_t = _check_eta("eta_b", eta_b), _check_eta("eta_t", eta_t)
    n_s = _check_n_s(n_s)
    gap = 1.0 - np.sqrt((1.0 - eta_b) * (1.0 - eta_t)) - np.sqrt(eta_b * eta_t)
    # the gap is nonnegative by Cauchy-Schwarz; round-off can leave -1e-16
    return (1.0 + n_s * np.maximum(0.0, gap)) ** -2.0


def idler_free_binary_fidelity(eta_b, eta_t, n_s):
    """Output fidelity of the two-box idler-free probe (a squeezed pair split
    across the boxes)."""
    eta_b, eta_t = _check_eta("eta_b", eta_b), _check_eta("eta_t", eta_t)
    n_s = _check_n_s(n_s)
    gap = (
        eta_b
        + eta_t
        - 2.0 * eta_b * eta_t
        - 2.0 * np.sqrt(eta_b * eta_t * (1.0 - eta_b) * (1.0 - eta_t))
    )
    # algebraically (sqrt(eta_b(1-eta_t)) - sqrt(eta_t(1-eta_b)))^2 >= 0
    return (1.0 + n_s * np.maximum(0.0, gap)) ** -1.0


def bipartite_fidelity_numeric(eta_b: float, eta_t: float, n_s: float) -> float:
    """Bipartite fidelity via Gaussian numerics on a single retained pair.

    The outputs differ only on two boxes, and each differing box contributes
    the fidelity between a pair whose signal passed eta_t and one whose signal
    passed eta_b, so the total is that pair fidelity squared.
    """
    probe = bipartite_probe(n_s)
    through_t = pure_loss(probe, 1, eta_t)
    through_b = pure_loss(probe, 1, eta_b)
    return gaussian_fidelity(through_t, through_b) ** 2


def apply_hypothesis(probe: GaussianState, target: int, scenario: Scenario) -> GaussianState:
    """Send a probe through the boxes with the target at position ``target``.

    The probe must have m modes (one per box) or 2m modes (idler, signal per
    box, only signals pass through).
    """
    m = scenario.m
    if not 0 <= target < m:
        raise DomainError(f"target must lie in [0, {m}), got {target}")
    if probe.n_modes == m:
        box_modes = list(range(m))
    elif probe.n_modes == 2 * m:
        box_modes = [2 * k + 1 for k in range(m)]
    else:
        raise InvalidStateError(
            f"probe must have {m} or {2 * m} modes for m = {m}, got {probe.n_modes}"
        )
    out = probe
    for box, mode in enumerate(box_modes):
        out = pure_loss(out, mode, scenario.eta_t if box == target else scenario.eta_b)
    return out


def reduction_symplectic(m: int) -> np.ndarray:
    """Symplectic of the collective rotation that decouples boxes 3..m.

    Acts as the identity on modes 0 and 1 (the two boxes that differ between
    the hypotheses) and mixes modes 2..m-1 so that only their balanced
    combination stays correlated with the first two.  Orthogonal as well as
    symplectic, so it preserves both the trace and the vacuum.
    """
    if m < 3:
        raise DomainError(f"the reduction needs m >= 3, got {m}")
    size = m - 2
    s = np.eye(2 * m)
    phi = 2.0 * math.pi / size
    norm = 1.0 / math.sqrt(size)
    for j in range(size):
        for k in range(size):
            cos, sin = math.cos(j * k * phi), math.sin(j * k * phi)
            r, c = 2 * (2 + j), 2 * (2 + k)
            s[r, c] = norm * cos
            s[r, c + 1] = -norm * sin
            s[r + 1, c] = norm * sin
            s[r + 1, c + 1] = norm * cos
    return s


def _set_block(cov: np.ndarray, i: int, j: int, alpha, beta) -> None:
    # every block here is alpha*I + beta*Z, so only the two diagonal entries move
    cov[..., 2 * i, 2 * j] = alpha + beta
    cov[..., 2 * i + 1, 2 * j + 1] = alpha - beta
    if i != j:
        cov[..., 2 * j, 2 * i] = alpha + beta
        cov[..., 2 * j + 1, 2 * i + 1] = alpha - beta


def output_pair_arrays(m: int, eta_b, eta_t, n_s, kappa):
    """Covariances and means of the two distinguishable outputs, batched.

    For m = 2 these are the exact two-mode outputs; for m >= 3 the equivalent
    three-mode reduced pair (the remaining m-3 collective modes decouple and
    are identical under both hypotheses).  ``kappa`` = 1 gives the idler-free
    probe; parameters broadcast, and the returned covariances have shape
    (..., 2k, 2k) with k = min(m, 3).

    Returns (cov_1, cov_2, mean_1, mean_2) with the target at box 0 resp. 1.
    """
    if m < 2:
        raise DomainError(f"m must be at least 2, got {m}")
    eta_b, eta_t = _check_eta("eta_b", eta_b), _check_eta("eta_t", eta_t)
    n_s = _check_n_s(n_s)
    kappa = np.asarray(kappa, dtype=float)
    if not np.all((kappa >= 0.0) & (kappa <= 1.0)):
        raise DomainError("kappa must lie in [0, 1]")

    batch = np.broadcast_shapes(eta_b.shape, eta_t.shape, n_s.shape, kappa.shape)
    eta_b, eta_t, n_s, kappa = (
        np.broadcast_to(a, batch) for a in (eta_b, eta_t, n_s, kappa)
    )

    mu = 1.0 + 2.0 * kappa * n_s
    c = np.sqrt(np.maximum(mu * mu - 1.0, 0.0)) / (m - 1)
    d_b = eta_b * mu + 1.0 - eta_b
    d_t = eta_t * mu + 1.0 - eta_t
    g_b = eta_b * c
    g_t = np.sqrt(eta_b * eta_t) * c
    amp = 2.0 * np.sqrt((1.0 - kappa) * n_s)
    a_b = np.sqrt(eta_b) * amp
    a_t = np.sqrt(eta_t) * amp

    n_kept = 2 if m == 2 else 3
    cov_1 = np.zeros(batch + (2 * n_kept, 2 * n_kept))
    cov_2 = np.zeros_like(cov_1)
    mean_1 = np.zeros(batch + (2 * n_kept,))
    mean_2 = np.zeros_like(mean_1)

    _set_block(cov_1, 0, 0, d_t, 0.0)
    _set_block(cov_1, 1, 1, d_b, 0.0)
    _set_block(cov_1, 0, 1, 0.0, g_t)
    _set_block(cov_2, 0, 0, d_b, 0.0)
    _set_block(cov_2, 1, 1, d_t, 0.0)
    _set_block(cov_2, 0, 1, 0.0, g_t)
    mean_1[..., 0], mean_1[..., 2] = a_t, a_b
    mean_2[..., 0], mean_2[..., 2] = a_b, a_t

    if m > 2:
        root = math.sqrt(m - 2.0)
        _set_block(cov_1, 2, 2, d_b, (m - 3.0) * g_b)
        _set_block(cov_2, 2, 2, d_b, (m - 3.0) * g_b)
        _set_block(cov_1, 0, 2, 0.0, root * g_t)
        _set_block(cov_1, 1, 2, 0.0, root * g_b)
        _set_block(cov_2, 0, 2, 0.0, root * g_b)
        _set_block(cov_2, 1, 2, 0.0, root * g_t)
        mean_1[..., 4] = root * a_b
        mean_2[..., 4] = root * a_b

    return cov_1, cov_2, mean_1, mean_2


def _scenario_kappa(scenario: Scenario) -> float:
    # the idler-free probe is the kappa = 1 member of the mixed family
    return 1.0 if scenario.kappa is None else scenario.kappa


def reduced_output_pair(scenario: Scenario) -> Tuple[GaussianState, GaussianState]:
    """The three-mode output pair equivalent to the full m-mode outputs (m >= 3).

    Uses scenario.kappa when set, otherwise the idler-free probe.  Fidelities
    computed on this pair match the full direct computation because the
    decoupled collective modes are identical under both hypotheses.
    """
    if scenario.m < 3:
        raise DomainError(f"the reduced pair needs m >= 3, got m = {scenario.m}")
    cov_1, cov_2, mean_1, mean_2 = output_pair_arrays(
        scenario.m, scenario.eta_b, scenario.eta_t, scenario.n_s, _scenario_kappa(scenario)
    )
    return GaussianState(mean_1, cov_1), GaussianState(mean_2, cov_2)


def traced_block_cm(scenario: Scenario) -> np.ndarray:
    """Covariance of the m-3 collective modes the reduction discards (m >= 4).

    Hypothesis-independent: d_b on the diagonal, and a +/- gamma_b
    anti-diagonal coupling (+ for p, - for q) between collective indices
    j and k with j + k = m - 2.
    """
    if scenario.m < 4:
        raise DomainError(f"there are no traced modes unless m >= 4, got m = {scenario.m}")
    kappa = _scenario_kappa(scenario)
    mu = 1.0 + 2.0 * kappa * scenario.n_s
    c = math.sqrt(max(mu * mu - 1.0, 0.0)) / (scenario.m - 1)
    d_b = scenario.eta_b * mu + 1.0 - scenario.eta_b
    g_b = scenario.eta_b * c
    size = scenario.m - 3
    cm = np.zeros((2 * size, 2 * size))
    for j in range(1, size + 1):
        for k in range(1, size + 1):
            alpha = d_b if j == k else 0.0
            beta = g_b if j + k == scenario.m - 2 else 0.0
            cm[2 * (j - 1), 2 * (k - 1)] = alpha - beta
            cm[2 * (j - 1) + 1, 2 * (k - 1) + 1] = alpha + beta
    return cm


def _direct_fidelity(scenario: Scenario, kind: ProtocolKind) -> Tuple[float, float]:
    """Full-size output fidelity and the smaller min symplectic eigenvalue."""
    kappa = scenario.kappa if kind is ProtocolKind.MIXED else None
    spec = ProbeSpec(kind, scenario.m, scenario.n_s, kappa)
    probe = build_probe(spec)
    out_1 = apply_hypothesis(probe, 0, scenario)
    out_2 = apply_hypothesis(probe, 1, scenario)
    reports = (check_physical(out_1), check_physical(out_2))
    value = gaussian_fidelity(out_1, out_2, validate=False)
    return value, min(r.min_symplectic_eigenvalue for r in reports)


def route(protocol, m: int, eta_b, eta_t, n_s, kappa=None):
    """Fixed-kappa fidelity of one protocol, batched: (value, path, pair).

    Classical, bipartite and the two-box idler-free protocol use their closed
    forms (path "closed-form", ``pair`` None).  The idler-free protocol at
    m >= 3 and the mixed protocol at the given ``kappa`` run on the output
    pair of :func:`output_pair_arrays`, "direct" at m = 2 and "reduced"
    beyond, and ``pair`` holds its arrays.
    """
    kind, eta_b, eta_t = _oriented(protocol, eta_b, eta_t)
    if kind is ProtocolKind.CLASSICAL:
        return classical_fidelity(eta_b, eta_t, n_s), "closed-form", None
    if kind is ProtocolKind.BIPARTITE:
        return bipartite_fidelity(eta_b, eta_t, n_s), "closed-form", None
    if kind is ProtocolKind.IDLER_FREE and m == 2:
        return idler_free_binary_fidelity(eta_b, eta_t, n_s), "closed-form", None
    if kind is ProtocolKind.MIXED and kappa is None:
        raise DomainError("the mixed protocol needs a kappa")
    # the idler-free probe is the kappa = 1 member of the mixed family
    kappa = 1.0 if kind is ProtocolKind.IDLER_FREE else kappa
    pair = output_pair_arrays(m, eta_b, eta_t, n_s, kappa)
    return fidelity_from_arrays(*pair), "direct" if m == 2 else "reduced", pair


def output_fidelity(scenario: Scenario, kind, path: str = "auto") -> FidelityReport:
    """One-shot output fidelity for a protocol, with the evaluation path taken.

    ``kind`` is a :class:`ProtocolKind` or any id in :data:`PROTOCOL_IDS`;
    the auto path is :func:`route`'s, and the mixed protocol needs
    scenario.kappa.  ``path="direct"`` forces the full m-mode (2m for
    bipartite) computation for any protocol, which exists as a cross-check
    of the fast paths.
    """
    if path not in ("auto", "direct"):
        raise DomainError(f"path must be 'auto' or 'direct', got {path!r}")
    probe, eta_b, eta_t = _oriented(kind, scenario.eta_b, scenario.eta_t)
    if path == "direct":
        oriented = replace(scenario, eta_b=eta_b, eta_t=eta_t)
        value, min_nu = _direct_fidelity(oriented, probe)
        return FidelityReport(value, "direct", probe, {"min_symplectic_eigenvalue": min_nu})

    value, label, pair = route(
        kind, scenario.m, scenario.eta_b, scenario.eta_t, scenario.n_s, scenario.kappa
    )
    if pair is None:
        return FidelityReport(float(value), label, probe)
    cov_1, cov_2, mean_1, mean_2 = pair
    reports = (check_physical(GaussianState(mean_1, cov_1)),
               check_physical(GaussianState(mean_2, cov_2)))
    warnings = tuple(
        f"output state {i} has min symplectic eigenvalue {r.min_symplectic_eigenvalue:.12g}"
        for i, r in enumerate(reports)
        if not r.ok
    )
    return FidelityReport(
        float(value),
        label,
        probe,
        {"min_symplectic_eigenvalue": min(r.min_symplectic_eigenvalue for r in reports)},
        warnings,
    )
