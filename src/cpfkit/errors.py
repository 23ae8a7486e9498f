"""Exception types shared across the package, and the domains of the
scenario fields and of fidelities, which entry points check inputs against."""

from __future__ import annotations

import numpy as np

# Largest mean photon number per probe mode accepted.  Every evaluation path
# stays finite beyond it; the first measured to overflow is the kernel on the
# reduced pair, from n_s = 1e147.
N_S_MAX = 1e75


class CpfError(Exception):
    """Base class for all errors raised by cpfkit."""


class DomainError(CpfError, ValueError):
    """A parameter lies outside its mathematical domain (e.g. eta > 1).

    ``field`` names the parameter at fault, when there is one; the message
    is then ``field`` followed by ``reason``.
    """

    def __init__(self, reason: str, field: str | None = None):
        super().__init__(reason if field is None else f"{field} {reason}")
        self.reason = reason
        self.field = field


class InvalidStateError(CpfError, ValueError):
    """A Gaussian state is malformed or unphysical."""


class NumericError(CpfError, ArithmeticError):
    """A numerical computation failed (singular matrix, non-finite result)."""


# scenario field, or a fidelity -> (rule, test of a float array); check() also
# refuses every non-finite value
DOMAINS = {
    "m": ("an integer >= 2", lambda v: (v >= 2.0) & (np.floor(v) == v)),
    "eta_b": ("in [0, 1]", lambda v: (v >= 0.0) & (v <= 1.0)),
    "eta_t": ("in [0, 1]", lambda v: (v >= 0.0) & (v <= 1.0)),
    "n_s": (f"in (0, {N_S_MAX:g}]", lambda v: (v > 0.0) & (v <= N_S_MAX)),
    "m_probes": ("finite and at least 1", lambda v: v >= 1.0),
    "kappa": ("in [0, 1]", lambda v: (v >= 0.0) & (v <= 1.0)),
    "total_energy": ("finite and positive", lambda v: v > 0.0),
    "fidelity": ("in [0, 1]", lambda v: (v >= 0.0) & (v <= 1.0)),
}


def check(field: str, values, name: str | None = None) -> np.ndarray:
    """``values`` as a float array, each finite and in ``field``'s domain.

    Otherwise raises a :class:`DomainError` whose ``field`` is ``name``
    (default ``field``), quoting the first offending value, saying that it
    is required when it is None, or no number (a bool, a string, a None in a list).
    """
    name = field if name is None else name
    if values is None:
        raise DomainError("is required", name)
    rule, inside = DOMAINS[field]
    # a list keeps its elements' types, which NumPy would read as numbers:
    # True as 1, "3" as 3, None as nan; a bool or text array is no number at all
    given = np.asarray(values, dtype=object if isinstance(values, (list, tuple)) else None)
    for value in given.flat if given.dtype.kind in "bSUO" else ():
        if value is None or isinstance(value, (bool, np.bool_, str, bytes)):
            value = value.item() if isinstance(value, np.generic) else value
            raise DomainError(f"must be a number, got {value!r}", name)
    try:
        array = np.asarray(given, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"must be a number, got {values!r}", name) from None
    ok = np.isfinite(array) & inside(array)
    if not ok.all():
        where = "" if name == field else f" for {field}"
        raise DomainError(f"must be {rule}{where}, got {array[~ok][0]:.12g}", name)
    return array


def one(array: np.ndarray, name: str) -> float:
    """A checked ``array`` of field ``name`` as a float: a field that takes
    one number refuses an array of them."""
    if array.ndim:
        raise DomainError(f"must be one number, got shape {array.shape}", name)
    return float(array)
