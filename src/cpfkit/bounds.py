"""Error-probability bounds for discriminating m candidate output states.

Everything here consumes one-shot fidelities; using M probe rounds raises
the fidelity to the M-th power, which is what the ``m_probes`` argument
does.  Upper bounds certify what a strategy achieves, lower bounds what no
strategy can beat, so quantum UB < classical LB certifies an advantage.
:func:`perr_upper` and :func:`perr_lower` check their inputs; the rest are
unchecked internals of the advantage maps, which take checked values.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import check


def perr_upper_raw(fidelity, m: int, m_probes: float = 1.0):
    """Unclamped (m-1) F^M, useful for ratios; may exceed 1.

    The uniform-prior case of the pretty-good-measurement bound of
    Barnum and Knill, J. Math. Phys. 43, 2097 (2002).
    """
    return (m - 1.0) * np.power(fidelity, m_probes)  # on floats too, as perr_upper rounds


def perr_upper(fidelity, m: int, m_probes: float = 1.0):
    """Upper bound on the error probability with equiprobable hypotheses,
    (m-1) F^M clamped to [0, 1] (Barnum and Knill, J. Math. Phys. 43, 2097 (2002))."""
    fidelity, m, m_probes = check("fidelity", fidelity), check("m", m), check("m_probes", m_probes)
    return np.minimum(1.0, perr_upper_raw(fidelity, m, m_probes))


def perr_lower(fidelity, m: int, m_probes: float = 1.0):
    """Lower bound (m-1)/(2m) F^(2M) on the error probability with
    equiprobable hypotheses (Montanaro, IEEE Information Theory Workshop (ITW) 2008)."""
    fidelity, m, m_probes = check("fidelity", fidelity), check("m", m), check("m_probes", m_probes)
    return (m - 1.0) / (2.0 * m) * fidelity ** (2.0 * m_probes)


def classical_perr_lower(eta_b, eta_t, n_s, m: int, m_probes: float = 1.0):
    """Error-probability floor for every classical strategy of total energy
    M n_s per box, (m-1)/(2m) exp(-2 M n_s (sqrt(eta_b)-sqrt(eta_t))^2)."""
    return (m - 1.0) / (2.0 * m) * np.exp(-_classical_exponent(eta_b, eta_t, n_s, m_probes))


def _classical_exponent(eta_b, eta_t, n_s, m_probes):
    """2 M n_s (sqrt(eta_b) - sqrt(eta_t))^2, and 0 where the gap is 0: a huge
    M n_s overflows the product to inf, and inf * 0 would be nan.  Where 2 M n_s
    overflows, M is applied last, so that only an exponent that itself exceeds
    the double range is inf."""
    gap = (np.sqrt(eta_b) - np.sqrt(eta_t)) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = 2.0 * m_probes * n_s * gap
        exponent = np.where(np.isinf(exponent), m_probes * (2.0 * n_s * gap), exponent)
        return np.where(gap == 0.0, 0.0, exponent)


def log10_bound_ratio(fidelity_a, eta_b, eta_t, n_s, m: int, m_probes):
    """log10 of perr_upper_raw(F_A, m, M) / classical_perr_lower(...), evaluated
    in log space so huge M never underflows the power."""
    log_upper = math.log10(m - 1.0) + m_probes * np.log10(fidelity_a)
    log_lower = math.log10((m - 1.0) / (2.0 * m)) - _classical_exponent(
        eta_b, eta_t, n_s, m_probes
    ) / math.log(10.0)
    return log_upper - log_lower
