"""The fidelity kernel of Gaussian states, and a physicality test of a
covariance.  Both work on arrays.

A state is its quadrature mean vector and covariance matrix, in the
convention q = a + a†, p = i(a† − a), so the vacuum covariance matrix is
the identity and a coherent state of amplitude α has mean
(2 Re α, 2 Im α).  Quadratures are ordered (q₁, p₁, …, qₙ, pₙ).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InvalidStateError, NumericError

# A covariance matrix is accepted as physical when its smallest symplectic
# eigenvalue is at least 1 - PHYSICALITY_TOL.
PHYSICALITY_TOL = 1e-9

# fidelity kernel: eigenvalues of XY within SNAP_ULPS * eps * ||X||_F ||Y||_F
# of 1 are treated as exactly 1
SNAP_ULPS = 64.0
_EPS = float(np.finfo(float).eps)


def _symplectic_moduli(cm: np.ndarray) -> np.ndarray:
    """Moduli of the eigenvalues of Omega V, one per mode, ascending, with
    Omega the direct sum of [[0, 1], [-1, 0]]."""
    omega = np.kron(np.eye(cm.shape[-1] // 2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    mods = np.sort(np.abs(np.linalg.eigvals(omega @ cm)), axis=-1)
    # eigenvalues come in +/- i nu pairs; keep one of each
    return mods[..., ::2]


def check_physical(cm: np.ndarray) -> tuple:
    """(min symplectic eigenvalue, ok) of a finite symmetric covariance: ok
    when it is positive definite and that eigenvalue is at least
    1 - PHYSICALITY_TOL, so that it is the covariance of a quantum state."""
    positive = bool(np.linalg.eigvalsh(cm)[0] > 0.0)
    min_nu = float(_symplectic_moduli(cm)[0])
    return min_nu, positive and min_nu >= 1.0 - PHYSICALITY_TOL


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
