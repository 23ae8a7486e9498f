"""Error-probability bounds for discriminating m candidate output states.

Everything here consumes one-shot fidelities; using M probe rounds raises
the fidelity to the M-th power, which is what the ``m_probes`` argument
does.  Upper bounds certify what a strategy achieves, lower bounds what no
strategy can beat, so quantum UB < classical LB certifies an advantage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class BoundsResult:
    """Upper and lower error-probability bounds for one setting."""

    upper: float
    lower: float
    m: int
    m_probes: float
    fidelity_used: float


def _check_fidelity(fidelity, name: str = "fidelity") -> np.ndarray:
    fidelity = np.asarray(fidelity, dtype=float)
    if np.any((fidelity < 0.0) | (fidelity > 1.0)):
        raise DomainError(f"{name} must lie in [0, 1]")
    return fidelity


def _check_m_and_rounds(m: int, m_probes) -> None:
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise DomainError(f"m must be an integer >= 2, got {m}")
    if not np.all(np.asarray(m_probes, dtype=float) >= 1.0):
        raise DomainError(f"m_probes must be at least 1, got {m_probes}")


def perr_upper_raw(fidelity, m: int, m_probes: float = 1.0):
    """Unclamped (m-1) F^M, useful for ratios; may exceed 1.

    The uniform-prior case of the pretty-good-measurement bound of
    Barnum and Knill, J. Math. Phys. 43, 2097 (2002).
    """
    fidelity = _check_fidelity(fidelity)
    _check_m_and_rounds(m, m_probes)
    return (m - 1.0) * fidelity**m_probes


def perr_upper(fidelity, m: int, m_probes: float = 1.0):
    """Upper bound on the error probability with equiprobable hypotheses,
    (m-1) F^M clamped to [0, 1] (Barnum and Knill, J. Math. Phys. 43, 2097 (2002))."""
    return np.minimum(1.0, perr_upper_raw(fidelity, m, m_probes))


def perr_lower(fidelity, m: int, m_probes: float = 1.0):
    """Lower bound (m-1)/(2m) F^(2M) on the error probability with
    equiprobable hypotheses (Montanaro, IEEE Information Theory Workshop (ITW) 2008)."""
    fidelity = _check_fidelity(fidelity)
    _check_m_and_rounds(m, m_probes)
    return (m - 1.0) / (2.0 * m) * fidelity ** (2.0 * m_probes)


def _check_priors_and_matrix(priors, fidelities) -> tuple:
    priors = np.asarray(priors, dtype=float)
    fidelities = _check_fidelity(fidelities, "fidelities")
    m = priors.size
    if m < 2:
        raise DomainError(f"need at least two hypotheses, got {m}")
    if np.any(priors < 0.0) or abs(float(priors.sum()) - 1.0) > 1e-9:
        raise DomainError("priors must be nonnegative and sum to 1")
    if fidelities.shape != (m, m):
        raise DomainError(
            f"fidelity matrix must be {m} x {m} to match the priors, got {fidelities.shape}"
        )
    return priors, fidelities


def perr_upper_general(priors, fidelities, m_probes: float = 1.0):
    """General-prior upper bound, sum over i != j of sqrt(pi_i pi_j) F_ij^M,
    clamped to 1 (Barnum and Knill, J. Math. Phys. 43, 2097 (2002))."""
    priors, fidelities = _check_priors_and_matrix(priors, fidelities)
    if not m_probes >= 1:
        raise DomainError(f"m_probes must be at least 1, got {m_probes}")
    root = np.sqrt(np.outer(priors, priors))
    total = root * fidelities**m_probes
    value = float(total.sum() - np.trace(total))
    return min(1.0, value)


def perr_lower_general(priors, fidelities, m_probes: float = 1.0):
    """General-prior lower bound, 1/2 sum over i != j of pi_i pi_j F_ij^(2M)
    (Montanaro, IEEE Information Theory Workshop (ITW) 2008)."""
    priors, fidelities = _check_priors_and_matrix(priors, fidelities)
    if not m_probes >= 1:
        raise DomainError(f"m_probes must be at least 1, got {m_probes}")
    weight = np.outer(priors, priors)
    total = weight * fidelities ** (2.0 * m_probes)
    return 0.5 * float(total.sum() - np.trace(total))


def pgm_pure_upper(fidelity, m: int):
    """Upper bound achieved by the pretty good measurement on m symmetric
    pure states with pairwise overlap ``fidelity``.

    Written in the expanded form
    (m-1)/m^2 * (2 + (m-2)F - 2 sqrt((1+(m-1)F)(1-F))),
    algebraically (sqrt(1+(m-1)F) - sqrt(1-F))^2 but exact at F = 0 and 1.
    """
    fidelity = _check_fidelity(fidelity)
    _check_m_and_rounds(m, 1.0)
    square = 2.0 + (m - 2.0) * fidelity - 2.0 * np.sqrt(
        (1.0 + (m - 1.0) * fidelity) * (1.0 - fidelity)
    )
    return (m - 1.0) / (m * m) * square


def classical_perr_lower(eta_b, eta_t, n_s, m: int, m_probes: float = 1.0):
    """Error-probability floor for every classical strategy of total energy
    M n_s per box, (m-1)/(2m) exp(-2 M n_s (sqrt(eta_b)-sqrt(eta_t))^2)."""
    eta_b = np.asarray(eta_b, dtype=float)
    eta_t = np.asarray(eta_t, dtype=float)
    if np.any((eta_b < 0.0) | (eta_b > 1.0)) or np.any((eta_t < 0.0) | (eta_t > 1.0)):
        raise DomainError("transmissivities must lie in [0, 1]")
    n_s = np.asarray(n_s, dtype=float)
    if np.any(n_s < 0.0):
        raise DomainError("n_s must be nonnegative")
    _check_m_and_rounds(m, m_probes)
    gap = (np.sqrt(eta_b) - np.sqrt(eta_t)) ** 2
    return (m - 1.0) / (2.0 * m) * np.exp(-2.0 * m_probes * n_s * gap)


def evaluate_bounds(fidelity: float, m: int, m_probes: float = 1.0) -> BoundsResult:
    """Both uniform-prior bounds for one fidelity, packaged together."""
    return BoundsResult(
        float(perr_upper(fidelity, m, m_probes)),
        float(perr_lower(fidelity, m, m_probes)),
        int(m),
        float(m_probes),
        float(np.asarray(fidelity, dtype=float)),
    )


def advantage_certificate(fidelity_a, fidelity_b) -> bool:
    """True when strategy A provably beats strategy B for enough probe rounds.

    The condition is F_A < F_B^2 strictly: then A's upper bound sinks below
    B's lower bound as M grows.
    """
    fidelity_a = float(_check_fidelity(fidelity_a, "fidelity_a"))
    fidelity_b = float(_check_fidelity(fidelity_b, "fidelity_b"))
    return fidelity_a < fidelity_b * fidelity_b


def ratio_bound(fidelity_a, fidelity_b, m: int, m_probes: float = 1.0):
    """Bound 2m (F_A / F_B^2)^M on the ratio of A's error to B's floor."""
    fidelity_a = _check_fidelity(fidelity_a, "fidelity_a")
    fidelity_b = _check_fidelity(fidelity_b, "fidelity_b")
    _check_m_and_rounds(m, m_probes)
    if np.any(fidelity_b == 0.0):
        raise DomainError("fidelity_b must be positive, the ratio bound diverges at 0")
    return 2.0 * m * (fidelity_a / fidelity_b**2.0) ** m_probes


def log10_bound_ratio(fidelity_a, eta_b, eta_t, n_s, m: int, m_probes):
    """log10 of perr_upper_raw(F_A, m, M) / classical_perr_lower(...), evaluated
    in log space so huge M never underflows the power."""
    fidelity_a = _check_fidelity(fidelity_a, "fidelity_a")
    log_upper = math.log10(m - 1.0) + m_probes * np.log10(fidelity_a)
    gap = (np.sqrt(eta_b) - np.sqrt(eta_t)) ** 2
    log_lower = math.log10((m - 1.0) / (2.0 * m)) - (
        2.0 * m_probes * n_s * gap
    ) / math.log(10.0)
    return log_upper - log_lower
