"""Gaussian-state toolbox for continuous-variable sensing calculations.

States are (mean, covariance) pairs in the convention q = a + a†,
p = i(a† − a), so the vacuum covariance matrix is the identity and a
coherent state of amplitude α has mean (2 Re α, 2 Im α).  Quadratures are
ordered (q₁, p₁, …, qₙ, pₙ).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidStateError, NumericError

# A covariance matrix is accepted as physical when its smallest symplectic
# eigenvalue is at least 1 - PHYSICALITY_TOL.
PHYSICALITY_TOL = 1e-9

# fidelity kernel: eigenvalues of XY within SNAP_ULPS * eps * ||X||_F ||Y||_F
# of 1 are treated as exactly 1
SNAP_ULPS = 64.0
_EPS = float(np.finfo(float).eps)

_SYMMETRY_RTOL = 1e-12


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2n x 2n symplectic form Omega, a direct sum of [[0,1],[-1,0]]."""
    if n_modes < 1:
        raise DomainError(f"n_modes must be at least 1, got {n_modes}")
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


@dataclass(frozen=True)
class GaussianState:
    """An n-mode Gaussian state: quadrature mean vector and covariance matrix.

    ``mean`` has length 2n, ``cm`` is 2n x 2n and symmetric.  Construction
    checks shape, finiteness and symmetry only; physicality (positive
    definiteness and symplectic eigenvalues >= 1) is reported separately by
    :func:`check_physical` so that diagnostic states can still be built.
    """

    mean: np.ndarray
    cm: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cm = np.asarray(self.cm, dtype=float)
        if mean.ndim != 1 or mean.size == 0 or mean.size % 2:
            raise InvalidStateError(f"mean must have even length 2n, got shape {mean.shape}")
        if cm.shape != (mean.size, mean.size):
            raise InvalidStateError(
                f"cm must be {mean.size} x {mean.size} to match the mean, got {cm.shape}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cm))):
            raise InvalidStateError("state contains non-finite entries")
        scale = max(1.0, float(np.abs(cm).max()))
        if float(np.abs(cm - cm.T).max()) > _SYMMETRY_RTOL * scale:
            raise InvalidStateError("covariance matrix is not symmetric")
        object.__setattr__(self, "mean", mean.copy())
        # store the exactly symmetric part so downstream eigensolves are stable
        object.__setattr__(self, "cm", (cm + cm.T) / 2.0)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True)
class PhysicalityReport:
    """Outcome of a physicality check; ``ok`` is the overall verdict."""

    min_symplectic_eigenvalue: float
    positive_definite: bool
    ok: bool


def pure_loss(state: GaussianState, mode, eta) -> GaussianState:
    """Send a mode, or each of a sequence of distinct modes, through a
    pure-loss channel of transmissivity ``eta`` (a sequence of equal length).

    A mode's mean scales by sqrt(eta), its diagonal covariance block becomes
    eta*block + (1-eta)*I, and cross blocks scale by sqrt(eta).  The result
    rounds exactly as the modes sent one at a time in ascending order.
    """
    modes, etas = np.asarray(mode), np.asarray(eta, dtype=float)
    if modes.shape != etas.shape:
        raise DomainError(f"mode and eta must have the same length, got {mode} and {eta}")
    if not np.all((etas >= 0.0) & (etas <= 1.0)):
        raise DomainError(f"eta must lie in [0, 1], got {eta}")
    if modes.dtype.kind not in "iu":
        raise InvalidStateError(f"mode must be an integer, got {mode!r}")
    if not np.all((modes >= 0) & (modes < state.n_modes)):
        raise InvalidStateError(f"mode {mode} out of range for {state.n_modes}-mode state")
    if np.unique(modes).size != modes.size:
        raise InvalidStateError(f"modes must be distinct, got {mode}")
    transmit = np.ones(2 * state.n_modes)  # eta per quadrature, 1 where no loss
    transmit.reshape(-1, 2)[modes] = etas[..., None]
    root = np.sqrt(transmit)
    # one mode at a time scales an entry by its lower mode's root first
    full = state.cm * root[:, None] * root
    cm = np.triu(full) + np.triu(full, 1).T
    cm[np.diag_indices_from(cm)] += 1.0 - transmit
    return GaussianState(state.mean * root, cm)


def _symplectic_moduli(cm: np.ndarray) -> np.ndarray:
    """Moduli of the eigenvalues of Omega V, one per mode, ascending."""
    omega = symplectic_form(cm.shape[-1] // 2)
    mods = np.sort(np.abs(np.linalg.eigvals(omega @ cm)), axis=-1)
    # eigenvalues come in +/- i nu pairs; keep one of each
    return mods[..., ::2]


def check_physical(state: GaussianState) -> PhysicalityReport:
    """Report whether ``state`` is a valid quantum state.  Never raises."""
    pd = bool(np.linalg.eigvalsh(state.cm)[0] > 0.0)
    min_nu = float(_symplectic_moduli(state.cm)[0])
    return PhysicalityReport(min_nu, pd, pd and min_nu >= 1.0 - PHYSICALITY_TOL)


@functools.lru_cache(maxsize=None)
def _quadrature_index(n_modes: int):
    """Index arrays that gather the (q, p) diagonal blocks of a 2n x 2n matrix
    as a (..., 2, n, n) stack, the mask of its q-p entries, and the n x n
    identity."""
    q = np.arange(0, 2 * n_modes, 2)
    rows = np.stack((q, q + 1))[:, :, None]
    cols = rows.swapaxes(-1, -2)
    mask = np.add.outer(np.arange(2 * n_modes), np.arange(2 * n_modes)) % 2 == 1
    eye = np.eye(n_modes)
    for constant in (rows, cols, mask, eye):
        constant.flags.writeable = False
    return rows, cols, mask, eye


def fidelity_from_arrays(
    cov_a: np.ndarray, cov_b: np.ndarray, mean_a: np.ndarray, mean_b: np.ndarray
) -> np.ndarray:
    """Uhlmann fidelity F = Tr sqrt(sqrt(rho_a) rho_b sqrt(rho_a)) for Gaussian states
    whose covariances have no q-p entries, as every state cpfkit builds.

    Batched core: covariances have shape (..., 2n, 2n) and means (..., 2n)
    for one n >= 1, and leading dimensions broadcast; other shapes, and a
    covariance with a q-p entry, raise :class:`InvalidStateError`.  No
    physicality validation is performed here; :func:`check_physical`
    reports it.

    Banchi-Braunstein-Pirandola formula (PRL 115, 260501, 2015): with
    G = (V_a+V_b)^-1 and V_aux = Omega^T G (Omega + V_b Omega V_a),

        F_tot^4 = det[(sqrt(I + (V_aux Omega)^-2) + I) V_aux] / det((V_a+V_b)/2)
        F = F_tot * exp(-1/4 du^T G du),  du = u_b - u_a.

    For physical inputs the eigenvalues of V_aux Omega are pairs +/- i nu_j
    with nu_j >= 1, and the numerator determinant equals
    prod_j (nu_j + sqrt(nu_j^2 - 1))^2, accumulated in log space as a sum of
    arccosh(nu_j) terms (determinants overflow doubles once entries grow like
    mu^2n).  Without q-p entries V = V_q (+) V_p, V_aux Omega squares to
    -(YX) (+) -(XY) with X = G_q (I + V_b,q V_a,p) and
    Y = G_p (I + V_b,p V_a,q), so nu_j^2 = lambda_j are the eigenvalues of
    the real n x n product XY, log det and the exponent split into q and p
    parts, and arccosh(nu) = arcsinh(sqrt(lambda - 1)) with lambda - 1 taken
    from the eigenvalues of XY - I.  A pure direction of the Uhlmann product
    operator has lambda = 1 exactly, where a rounding error delta in lambda
    would cost sqrt(delta) through the square-root kink, so lambda is set to
    1 when |lambda - 1| <= SNAP_ULPS * eps * ||X||_F ||Y||_F, a multiple of
    the rounding error of the product XY.

    Accuracy against a 60-digit mpmath evaluation of the same formula, on
    the output pairs of the audit grid in tests/test_kernel_oracle.py
    (m in {2, 3, 5}, n_s from 1e-6 to 1e6, kappa from 0 to 1, eta pairs
    including 0, 1 and eta_b ~ eta_t): at most 2.3e-7 absolute when both
    eta < 1, the largest errors coming from the snap on nearly vacuum
    outputs; at most 6.6e-5 when an eta equals 1, where XY - I is nearly
    nilpotent and its eigenvalues lose half the digits.
    """
    cov_a, cov_b = np.asarray(cov_a, dtype=float), np.asarray(cov_b, dtype=float)
    shapes = (cov_a.shape[-2:], cov_b.shape[-2:], np.shape(mean_a)[-1:], np.shape(mean_b)[-1:])
    two_n = cov_a.shape[-1] if cov_a.ndim else 0
    if not two_n or two_n % 2 or shapes != ((two_n, two_n),) * 2 + ((two_n,),) * 2:
        raise InvalidStateError("the fidelity kernel needs 2n x 2n covariances and length-2n "
                                f"means of one n, got last axes {shapes}")
    delta = np.asarray(mean_b, dtype=float) - np.asarray(mean_a, dtype=float)
    rows, cols, qp, eye = _quadrature_index(two_n // 2)
    if (cov_a * qp).any() or (cov_b * qp).any():
        raise InvalidStateError("the fidelity kernel needs covariances without q-p entries")
    a = cov_a[..., rows, cols]  # (..., 2, n, n): V_a,q and V_a,p
    b = cov_b[..., rows, cols]
    total = a + b
    sign, logdet = np.linalg.slogdet(total)
    if not ((sign > 0.0).all() and np.isfinite(logdet).all()):
        raise NumericError("covariance sum V_a + V_b is singular or indefinite")
    # LU, not cofactors: a cofactor inverse carries the rounding error of
    # det(total) as a common factor into XY and shifts every lambda by it
    g = np.linalg.inv(total)
    # X = G_q (I + V_b,q V_a,p) and Y = G_p (I + V_b,p V_a,q)
    xy = g @ (eye + b @ a[..., ::-1, :, :])
    x, y = xy[..., 0, :, :], xy[..., 1, :, :]
    excess = np.linalg.eigvals(x @ y - eye).real  # lambda_j - 1
    if not np.isfinite(excess).all():
        raise NumericError("eigenvalue computation for the fidelity kernel failed")
    squares = (xy * xy).sum(axis=(-2, -1))
    # a product of the norms, not of their squares, which overflows from n_s ~ 1e77
    tol = SNAP_ULPS * _EPS * np.sqrt(squares[..., 0]) * np.sqrt(squares[..., 1])
    excess = np.where(np.abs(excess) <= tol[..., None], 0.0, np.maximum(excess, 0.0))
    # arccosh(sqrt(1 + x)) = arcsinh(sqrt(x)); each nu_j stands for a +/- pair
    log_num = 2.0 * np.arcsinh(np.sqrt(excess)).sum(axis=-1)
    d = delta[..., rows[..., 0]]
    exponent = -0.25 * np.einsum("...si,...sij,...sj->...", d, g, d)
    log_f = 0.25 * (log_num - logdet.sum(axis=-1) + two_n * math.log(2.0)) + exponent
    return np.minimum(np.exp(log_f), 1.0)
