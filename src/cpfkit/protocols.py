"""Output fidelities for channel position finding on pure-loss channels.

One of m boxes applies transmissivity eta_t to whatever passes through it,
the other m-1 apply eta_b.  Discriminating which box is the target reduces
to telling apart the m possible output states, whose pairwise fidelity is
what everything downstream (error bounds, advantage maps) consumes.  This
module provides the closed forms where they exist and Gaussian-numerics
paths (full-size "direct" and three-mode "reduced") where they do not.
Only Scenario checks its inputs: the internals here are unchecked, and
scan._fidelity calls them with values checked where they entered.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Tuple

import numpy as np

from .errors import DomainError, NumericError, check
from .gaussian import GaussianState, check_physical, fidelity_from_arrays, pure_loss


class ProtocolKind(str, Enum):
    """The four probe families, at equal energy n_s per box mode: coherent
    states, two-mode squeezed pairs with retained idlers, the idler-free
    symmetric correlated state, and their mix at a correlation fraction."""

    CLASSICAL = "classical"
    BIPARTITE = "bipartite"
    IDLER_FREE = "idler_free"
    MIXED = "mixed"


# the correlation fraction of each probe family that is a fixed member of the
# mixed family
FAMILY_KAPPA = {ProtocolKind.CLASSICAL: 0.0, ProtocolKind.IDLER_FREE: 1.0}


@dataclass(frozen=True)
class Scenario:
    """A channel position finding setting.

    m boxes, background/target transmissivities eta_b/eta_t, mean photon
    number n_s per probe mode, m_probes repetitions (enters the error-
    probability bounds, not the one-shot fidelity), and an optional mixing
    fraction kappa for the mixed protocol, each checked and kept as an int
    (m) or a float.  A field is None where a sweep's grid or a map's axis
    sets it; what needs it then refuses it as required.
    """

    m: int | None
    eta_b: float | None
    eta_t: float | None
    n_s: float | None
    m_probes: float | None = 1.0
    kappa: float | None = None  # the mixed protocol's, given or optimized

    def __post_init__(self):
        for name in ("m", "eta_b", "eta_t", "n_s", "m_probes", "kappa"):
            if getattr(self, name) is not None:
                value = check(name, getattr(self, name))
                object.__setattr__(self, name, int(value) if name == "m" else float(value))


@dataclass(frozen=True)
class FidelityReport:
    """Result of :func:`output_fidelity`: value plus how it was computed."""

    value: float
    # "closed-form" | "reduced" | "direct" | "optimized": "direct" is the full-size
    # pair, and also the two-mode pair of the auto path at m = 2, whose mixed-probe
    # value is the pair's closed form rather than the kernel's
    path: str
    kind: ProtocolKind
    diagnostics: dict = field(default_factory=dict)
    warnings: Tuple[str, ...] = ()
    kappa: float | None = None  # the mixed protocol's, given or optimized


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


def _oriented(protocol, eta_b, eta_t, kappa) -> tuple:
    """(family, eta_b, eta_t, kappa) that a protocol id's output pair sees,
    unchecked: a swapped protocol's etas exchanged, and the family's own
    kappa where it has one.  An unknown id is refused."""
    if protocol not in _PROTOCOLS:
        raise DomainError(f"unknown protocol {protocol!r}; valid: {PROTOCOL_IDS}")
    kind, swapped = _PROTOCOLS[protocol]
    eta_b, eta_t = (eta_t, eta_b) if swapped else (eta_b, eta_t)
    return kind, eta_b, eta_t, FAMILY_KAPPA.get(kind, kappa)


def classical_fidelity(eta_b, eta_t, n_s):
    """Output fidelity of the coherent-state protocol, one probe round.

    The two hypotheses differ on two modes, each a coherent state, giving
    exp(-n_s (sqrt(eta_b) - sqrt(eta_t))^2) independent of m.
    """
    return np.exp(-n_s * (np.sqrt(eta_b) - np.sqrt(eta_t)) ** 2)


def bipartite_fidelity(eta_b, eta_t, n_s):
    """Output fidelity with one two-mode squeezed pair per box, idlers retained."""
    gap = 1.0 - np.sqrt((1.0 - eta_b) * (1.0 - eta_t)) - np.sqrt(eta_b * eta_t)
    # the gap is nonnegative by Cauchy-Schwarz; round-off can leave -1e-16
    return (1.0 + n_s * np.maximum(0.0, gap)) ** -2.0


def idler_free_binary_fidelity(eta_b, eta_t, n_s):
    """Output fidelity of the two-box idler-free probe (a squeezed pair split
    across the boxes)."""
    gap = (
        eta_b
        + eta_t
        - 2.0 * eta_b * eta_t
        - 2.0 * np.sqrt(eta_b * eta_t * (1.0 - eta_b) * (1.0 - eta_t))
    )
    # algebraically (sqrt(eta_b(1-eta_t)) - sqrt(eta_t(1-eta_b)))^2 >= 0
    return (1.0 + n_s * np.maximum(0.0, gap)) ** -1.0


def _mixed_binary_fidelity(eta_b, eta_t, n_s, kappa):
    """Fidelity of the two-box mixed-probe output pair, element-wise.

    Unchecked: the parameters must lie in their domains, and eta_b != eta_t
    (equal etas divide 0 by 0 where both are 0).  In the basis
    (e_0 +/- e_1)/sqrt(2) both covariance sums are diagonal, and both
    eigenvalues of the kernel's XY are equal, so with x = 2 kappa n_s
    (= mu - 1), h = eta_b(1-eta_t) + eta_t(1-eta_b) and gap = |eta_b - eta_t|

        F = (2 + x h + sqrt(disc)) / (2 (1 + P))
            * exp(-(1 - kappa) n_s (sqrt(eta_b) - sqrt(eta_t))^2 / w),

    with P = x h + (x gap / 2)^2, disc = (2 + x h)^2 - 4 (1 + P) and w half
    the q covariance sum along e_0 - e_1.  disc and w are evaluated as
    products and sums of nonnegative terms, so that no digits cancel; the
    kernel's snap and its failure on a singular sum have no counterpart
    here.  Within 1e-12 relative of the mpmath oracle on its m = 2 audit
    points and up to n_s = 1e75, also at eta = 1 and at nearly equal etas,
    where the kernel loses digits (tests/test_kernel_oracle.py).
    """
    x = 2.0 * kappa * n_s
    lo, hi = np.minimum(eta_b, eta_t), np.maximum(eta_b, eta_t)
    gap = hi - lo
    h = eta_b * (1.0 - eta_t) + eta_t * (1.0 - eta_b)
    half = 0.5 * x * gap
    p = x * h + half * half
    s = np.sqrt(1.0 + p)
    # (2 + x h)^2 - 4 (1 + P) as a product, 0 exactly where an output is pure
    # (lo = 0 or hi = 1), where the difference would keep only rounding
    disc = (2.0 * x * lo * (1.0 - hi) / (s + 1.0 + half) * (p / (s + 1.0) + half)
            * (2.0 + x * h + 2.0 * s))
    root = np.sqrt(eta_b * eta_t)
    dist = (gap / (np.sqrt(eta_b) + np.sqrt(eta_t))) ** 2  # (sqrt(eta_b) - sqrt(eta_t))^2
    # half the covariance sum along e_0 - e_1; 1 - eta_b eta_t = (1 - hi) + hi (1 - lo)
    w = (0.5 * x * dist + ((1.0 - hi) + hi * (1.0 - lo)) / (1.0 + root)
         + root / (1.0 + x + np.sqrt(x * (x + 2.0))))
    value = ((2.0 + x * h + np.sqrt(disc)) / (2.0 * (1.0 + p))
             * np.exp(-(1.0 - kappa) * n_s * dist / w))
    return np.minimum(value, 1.0)


def output_pair_arrays(m: int, eta_b, eta_t, n_s, kappa):
    """Covariances and means of the two distinguishable outputs, batched.

    For m = 2 these are the exact two-mode outputs; for m >= 3 the equivalent
    three-mode reduced pair (the remaining m-3 collective modes decouple and
    are identical under both hypotheses).  ``kappa`` = 1 gives the idler-free
    probe; parameters broadcast, and the returned covariances have shape
    (..., 2k, 2k) with k = min(m, 3).

    Returns (cov_1, cov_2, mean_1, mean_2) with the target at box 0 resp. 1.
    """
    # the element-wise terms broadcast as they are assigned into the batch
    batch = np.broadcast_shapes(*map(np.shape, (eta_b, eta_t, n_s, kappa)))
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
    mean_1 = np.zeros(batch + (2 * n_kept,))
    # block (i, j) of the target-at-box-0 output is alpha*I + beta*Z
    blocks = [(0, 0, d_t, 0.0), (1, 1, d_b, 0.0), (0, 1, 0.0, g_t)]
    mean_1[..., 0], mean_1[..., 2] = a_t, a_b
    if m > 2:
        root = math.sqrt(m - 2.0)
        blocks += [(2, 2, d_b, (m - 3.0) * g_b), (0, 2, 0.0, root * g_t),
                   (1, 2, 0.0, root * g_b)]
        mean_1[..., 4] = root * a_b
    q, p = cov_1[..., 0::2, 0::2], cov_1[..., 1::2, 1::2]  # views into cov_1
    for i, j, alpha, beta in blocks:
        q[..., i, j] = q[..., j, i] = alpha + beta
        p[..., i, j] = p[..., j, i] = alpha - beta

    # the target at box 1 is the target at box 0 with boxes 0 and 1 swapped
    swap = np.array([2, 3, 0, 1, 4, 5][: 2 * n_kept])
    return cov_1, cov_1[..., swap[:, None], swap], mean_1, mean_1[..., swap]


_CHUNK = 512  # evaluated cells per kernel or closed-form call of a pair or a kappa search


def _cellwise(evaluate, defaults, eta_b, eta_t, *rest, workers: int = 1) -> tuple:
    """Per default, an array of the broadcast shape (one point: a scalar), the
    default where eta_b == eta_t (one output state; the kernel fails there),
    else evaluate(eta_b, eta_t, *rest) on _CHUNK raveled cells at a time, in
    min(workers, chunks) threads (one: the caller's thread), written by index."""
    if not any(map(np.ndim, (eta_b, eta_t, *rest))):  # one point, unraveled: scalar arithmetic
        values = defaults if eta_b == eta_t else evaluate(eta_b, eta_t, *rest)
        return tuple(np.reshape(value, ())[()] for value in values)
    arrays = np.broadcast_arrays(eta_b, eta_t, *rest)
    cells = [array.ravel() for array in arrays]
    out = [np.full(cells[0].size, default) for default in defaults]
    todo = np.flatnonzero(cells[0] != cells[1])
    chunks = [todo[start:start + _CHUNK] for start in range(0, todo.size, _CHUNK)]

    def run(chunk):
        for array, value in zip(out, evaluate(*(cell[chunk] for cell in cells))):
            array[chunk] = value

    threads = min(workers, len(chunks))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, chunks))  # re-raises the first failing chunk's error
    else:
        list(map(run, chunks))
    return tuple(array.reshape(arrays[0].shape) for array in out)


def pair_fidelity(m: int, eta_b, eta_t, n_s, kappa):
    """Fidelity of the mixed (at kappa = 1 idler-free) output pair, batched
    and unchecked: at m = 2 the pair's closed form (eta_b != eta_t), beyond
    it the kernel on the reduced pair.  The kernel fails only where a large
    n_s leaves V_a + V_b numerically singular (eta_b and eta_t nearly
    equal); that is refused as a :class:`DomainError` on n_s with its reason.
    """
    if m == 2:
        return _mixed_binary_fidelity(eta_b, eta_t, n_s, kappa)
    try:
        return fidelity_from_arrays(*output_pair_arrays(m, eta_b, eta_t, n_s, kappa))
    except NumericError as exc:
        raise DomainError(f"is too large for the fidelity kernel at this point: {exc}",
                          "n_s") from exc


# Largest m the direct path takes: it builds 2m x 2m covariances (4m x 4m
# bipartite) and runs a 2m-mode kernel (3.5 s of CPU at m = 256).
DIRECT_M_MAX = 128


_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def build_probe(kind: ProtocolKind, m: int, n_s, kappa) -> GaussianState:
    """The direct path's full-size probe of family ``kind`` for m boxes at
    energy n_s per box mode, unchecked: m, n_s and a mixed kappa have been
    checked, and ``kappa`` is the family's own.  The bipartite probe is the
    tensor product of m two-mode squeezed pairs, ordered (idler, signal)
    per box, and ignores ``kappa``.  Every other probe is the symmetric
    mixed one: it spends kappa*n_s on correlations (mu*I on the diagonal,
    the largest physical c*Z off it) and the rest on coherent amplitude.
    """
    boxes = m
    if kind is ProtocolKind.BIPARTITE:  # a pair is the idler-free probe of two boxes
        m, kappa = 2, 1.0
    mu = 2.0 * kappa * n_s + 1.0
    c = math.sqrt(mu * mu - 1.0) / (m - 1)
    cm = np.kron(np.eye(m), mu * np.eye(2)) + np.kron(1.0 - np.eye(m), c * _Z)
    if kind is ProtocolKind.BIPARTITE:
        return GaussianState(np.zeros(4 * boxes), np.kron(np.eye(boxes), cm))
    mean = np.zeros(2 * m)
    mean[0::2] = 2.0 * math.sqrt((1.0 - kappa) * n_s)
    return GaussianState(mean, cm)


def _direct_pair(kind: ProtocolKind, m: int, eta_b, eta_t, n_s, kappa) -> tuple:
    """The full-size output pair, in :func:`output_pair_arrays`'s order."""
    if m > DIRECT_M_MAX:
        raise DomainError(f"must be at most {DIRECT_M_MAX} on the direct path, got {m}", "m")
    probe = build_probe(kind, m, n_s, kappa)
    # the box modes: every mode, or every signal (odd) mode of the bipartite probe
    step = probe.n_modes // m
    modes = np.arange(step - 1, probe.n_modes, step)
    out_1, out_2 = (pure_loss(probe, modes, np.where(np.arange(m) == target, eta_t, eta_b))
                    for target in (0, 1))
    return out_1.cm, out_2.cm, out_1.mean, out_2.mean


def _physicality(pair) -> tuple:
    """(diagnostics, warnings) of an output pair in :func:`output_pair_arrays`'s
    order: the smaller min symplectic eigenvalue of the two states, and a
    warning for each unphysical one."""
    reports = [check_physical(GaussianState(mean, cov)) for cov, mean in zip(pair[:2], pair[2:])]
    nus = [r.min_symplectic_eigenvalue for r in reports]
    warnings = tuple(f"output state {i} has min symplectic eigenvalue {nu:.12g}"
                     for i, (nu, r) in enumerate(zip(nus, reports)) if not r.ok)
    return {"min_symplectic_eigenvalue": min(nus)}, warnings
