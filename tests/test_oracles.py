"""Frozen reference values.

Every number here was computed independently of the library (high-precision
Fock-basis sums, algebraic closed forms evaluated by hand or with mpmath) and
is asserted against the library's output.  These pins protect the formulas
against silent regressions; the property tests elsewhere cover the rest.
"""

import math

import numpy as np
import pytest

from cpfkit.gaussian import _symplectic_moduli
from cpfkit import fidelity
from cpfkit.protocols import bipartite_fidelity
from helpers import pgm_pure_upper, symmetric_cm, thermal_fidelity_oracle

# F between thermal states of mean photon number n1, n2: geometric series
# sum_k sqrt(p_k q_k) = 1 / (sqrt((n1+1)(n2+1)) (1 - sqrt(n1 n2 / ((n1+1)(n2+1)))))
THERMAL_CASES = [
    (0.0, 1.0, 0.7071067811865475),  # 1/sqrt(2)
    (1.0, 2.0, 0.9659258262890683),
    (5.0, 20.0, 0.8163450830893009),
    (0.5, 3.0, 0.8164965809277260),  # sqrt(2/3)
]


@pytest.mark.parametrize("n1, n2, expected", THERMAL_CASES)
def test_thermal_oracle_frozen(n1, n2, expected):
    assert thermal_fidelity_oracle(n1, n2) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("n", [0.0, 0.3, 1.0, 7.5])
def test_thermal_oracle_identity(n):
    assert thermal_fidelity_oracle(n, n) == pytest.approx(1.0, abs=1e-13)


def test_thermal_oracle_symmetric():
    assert thermal_fidelity_oracle(2.0, 5.0) == thermal_fidelity_oracle(5.0, 2.0)


def test_thermal_oracle_rejects_negative():
    from cpfkit import DomainError

    with pytest.raises(DomainError):
        thermal_fidelity_oracle(-0.1, 1.0)


def test_classical_fidelity_frozen():
    # exp(-1 * (sqrt(0.2) - sqrt(0.7))^2)
    assert fidelity("classical", 2, 0.2, 0.7, 1.0)[0] == pytest.approx(
        0.8592730631010618, rel=1e-13
    )
    # eta_b = 0: exp(-n_s eta_t) directly
    assert fidelity("classical", 2, 0.0, 0.5, 1.0)[0] == pytest.approx(
        math.exp(-0.5), rel=1e-14
    )


def test_bipartite_fidelity_frozen():
    assert bipartite_fidelity(0.9, 0.95, 50.0) == pytest.approx(
        0.6595218078861624, rel=1e-12
    )


def test_idler_free_binary_fidelity_frozen():
    assert fidelity("idler_free", 2, 0.55, 0.9, 50.0)[0] == pytest.approx(
        0.1101905493463533, rel=1e-12
    )
    # eta_b = 1, eta_t = 0.5, n_s = 1: gap = 1/2, F = 1/(1 + 1/2) = 2/3
    assert fidelity("idler_free", 2, 1.0, 0.5, 1.0)[0] == pytest.approx(
        2.0 / 3.0, rel=1e-14
    )


def test_pgm_pure_upper_frozen():
    # m = 2: (1/4)(sqrt(1 + F) - sqrt(1 - F))^2 = (2 - sqrt(3))/4 at F = 1/2
    assert pgm_pure_upper(0.5, 2) == pytest.approx((2.0 - math.sqrt(3.0)) / 4.0, rel=1e-14)


def test_symmetric_probe_eigenvalues_frozen():
    # m = 3, mu = 3 at maximal correlation c = sqrt(mu^2-1)/(m-1) = sqrt(2):
    # one pure direction (nu = 1) and a doubly degenerate nu = sqrt(mu^2 - c^2)
    nus = _symplectic_moduli(symmetric_cm(3, 3.0, math.sqrt(2.0)))
    assert np.allclose(nus, [1.0, math.sqrt(7.0), math.sqrt(7.0)], rtol=1e-12)
