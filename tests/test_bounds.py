"""Error-probability bounds: orderings, endpoints, prior generalizations."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cpfkit import DomainError, fidelity, perr_lower, perr_upper
from cpfkit.bounds import classical_perr_lower, log10_bound_ratio, perr_upper_raw
from cpfkit.cli import main
from helpers import (
    advantage_certificate,
    perr_lower_general,
    perr_upper_general,
    pgm_pure_upper,
)


def test_bounds_order_on_grid():
    fs = np.linspace(0.0, 1.0, 41)
    for m in (2, 3, 5):
        lower = perr_lower(fs, m)
        pgm = pgm_pure_upper(fs, m)
        upper = perr_upper(fs, m)
        assert np.all(lower <= pgm + 1e-15)
        assert np.all(pgm <= upper + 1e-15)


def test_perr_upper_clamps():
    assert perr_upper(1.0, 5) == 1.0
    assert perr_upper_raw(1.0, 5) == 4.0


def test_perr_endpoints():
    for m in (2, 3, 6):
        assert perr_lower(0.0, m) == 0.0
        assert perr_lower(1.0, m) == pytest.approx((m - 1) / (2 * m), rel=1e-15)
        assert perr_upper(0.0, m) == 0.0


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_pgm_exact_endpoints(m):
    assert pgm_pure_upper(0.0, m) == 0.0
    assert pgm_pure_upper(1.0, m) == (m - 1.0) / m


def test_pgm_monotone_in_fidelity():
    fs = np.linspace(0.0, 1.0, 101)
    for m in (2, 4):
        values = pgm_pure_upper(fs, m)
        assert np.all(np.diff(values) >= -1e-15)


def test_rounds_raise_fidelity_power():
    f, m, rounds = 0.8, 3, 7.0
    assert perr_upper_raw(f, m, rounds) == pytest.approx((m - 1) * f**rounds, rel=1e-14)
    assert perr_lower(f, m, rounds) == pytest.approx(
        (m - 1) / (2 * m) * f ** (2 * rounds), rel=1e-14
    )


def test_rounds_accept_arrays():
    rounds = np.array([1.0, 10.0, 100.0])
    values = perr_upper_raw(0.9, 2, rounds)
    assert values.shape == rounds.shape
    assert np.allclose(values, 0.9**rounds)


def test_fidelity_domain_checked():
    with pytest.raises(DomainError):
        perr_upper(1.1, 2)
    with pytest.raises(DomainError):
        perr_lower(-0.1, 2)
    with pytest.raises(DomainError):
        perr_upper(0.5, 1)
    with pytest.raises(DomainError):
        perr_upper(0.5, 2, 0.5)


@given(st.floats(0.0, 1.0), st.integers(2, 10**6), st.floats(1.0, 1e6))
@example(0.99999, 2, 671486.5)  # Python's ** and NumPy's power differ by an ulp here
def test_bounds_bracket_within_the_unit_interval(fidelity, m, rounds):
    lower, upper = perr_lower(fidelity, m, rounds), perr_upper(fidelity, m, rounds)
    assert 0.0 <= lower <= upper <= 1.0
    assert upper.tobytes() == np.minimum(1.0, perr_upper_raw(fidelity, m, rounds)).tobytes()


_NAN = float("nan")
_NAN_MATRIX = [[1.0, _NAN], [_NAN, 1.0]]
_NAN_CASES = [
    (perr_upper, (_NAN, 2), "fidelity"),
    (perr_lower, (_NAN, 2), "fidelity"),
    (pgm_pure_upper, (_NAN, 2), "fidelity"),
    (perr_upper_general, ([0.5, 0.5], _NAN_MATRIX), "fidelities"),
    (perr_lower_general, ([0.5, 0.5], _NAN_MATRIX), "fidelities"),
    (advantage_certificate, (_NAN, 0.5), "fidelity_a"),
    (advantage_certificate, (0.5, _NAN), "fidelity_b"),
]


@pytest.mark.parametrize("bound, args, name", _NAN_CASES,
                         ids=[f"{b.__name__}-{n}" for b, _, n in _NAN_CASES])
def test_bounds_refuse_a_nan_fidelity_naming_it(bound, args, name):
    with pytest.raises(DomainError) as info:
        bound(*args)
    assert info.value.field == name


def test_general_priors_reduce_to_uniform():
    m, f, rounds = 4, 0.7, 3.0
    priors = np.full(m, 1.0 / m)
    fidelities = np.full((m, m), f)
    np.fill_diagonal(fidelities, 1.0)
    assert perr_upper_general(priors, fidelities, rounds) == pytest.approx(
        float(perr_upper(f, m, rounds)), rel=1e-12
    )
    assert perr_lower_general(priors, fidelities, rounds) == pytest.approx(
        float(perr_lower(f, m, rounds)), rel=1e-12
    )


def test_general_priors_validate():
    with pytest.raises(DomainError):
        perr_upper_general([0.5, 0.6], np.full((2, 2), 0.5))
    with pytest.raises(DomainError):
        perr_upper_general([0.5, 0.5], np.full((3, 3), 0.5))
    with pytest.raises(DomainError):
        perr_lower_general([1.0], np.ones((1, 1)))


def test_certificate_strict():
    assert advantage_certificate(0.2, 0.5)  # 0.2 < 0.25
    assert not advantage_certificate(0.25, 0.5)  # equality fails
    assert not advantage_certificate(0.3, 0.5)


def test_certificate_implies_eventual_separation():
    # once F_A < F_B^2 there is a round count where A's upper bound
    # undercuts B's lower bound
    f_a, f_b, m = 0.5, 0.8, 2
    assert advantage_certificate(f_a, f_b)
    rounds = 60.0
    assert perr_upper(f_a, m, rounds) < perr_lower(f_b, m, rounds)
    assert perr_upper_raw(f_a, m, rounds) / perr_lower(f_b, m, rounds) < 1.0


def test_ratio_bound_formula():
    f_a, f_b, m, rounds = 0.3, 0.7, 3, 5.0
    expected = 2.0 * m * (f_a / f_b**2) ** rounds
    ratio = perr_upper_raw(f_a, m, rounds) / perr_lower(f_b, m, rounds)
    assert ratio == pytest.approx(expected, rel=1e-13)


def test_classical_perr_lower_matches_fidelity_form():
    eta_b, eta_t, n_s, m, rounds = 0.3, 0.8, 2.0, 4, 6.0
    f = float(fidelity("classical", m, eta_b, eta_t, n_s)[0])
    assert classical_perr_lower(eta_b, eta_t, n_s, m, rounds) == pytest.approx(
        float(perr_lower(f, m, rounds)), rel=1e-12
    )
    # no transmissivity contrast: the floor is (m-1)/(2m) at any round count
    assert classical_perr_lower(0.5, 0.5, 10.0, 3, 1e6) == pytest.approx(
        2.0 / 6.0, rel=1e-14
    )


def test_log10_bound_ratio_matches_direct_log():
    f_a, eta_b, eta_t, n_s, m, rounds = 0.6, 0.3, 0.8, 2.0, 3, 4.0
    direct = math.log10(
        float(perr_upper_raw(f_a, m, rounds))
        / float(classical_perr_lower(eta_b, eta_t, n_s, m, rounds))
    )
    assert log10_bound_ratio(f_a, eta_b, eta_t, n_s, m, rounds) == pytest.approx(
        direct, rel=1e-12
    )


def test_log10_bound_ratio_survives_underflow():
    # at 1e6 rounds both bounds underflow doubles, the log ratio must not
    value = log10_bound_ratio(0.9, 0.1, 0.9, 10.0, 2, 1e6)
    assert np.isfinite(value)


def test_no_contrast_floor_survives_an_overflowing_energy(recwarn):
    # 2 M n_s overflows to inf here, and inf times a zero gap was nan
    eta = np.array([0.5, 0.5])
    lower = classical_perr_lower(eta, np.array([0.5, 0.9]), 1e8, 2, 1e300)
    assert lower.tolist() == [0.25, 0.0]
    ratio = log10_bound_ratio(1.0, eta, np.array([0.5, 0.9]), 1e8, 2, 1e300)
    assert ratio[0] == pytest.approx(math.log10(4.0), rel=1e-14)
    # 2 M n_s gap is about 1.2e307, finite once M is applied last
    assert ratio[1] == pytest.approx(5.069016878e306, rel=1e-9)
    assert not recwarn.list


def test_log10_ratio_is_inf_only_where_the_classical_exponent_overflows(capsys):
    argv = ["region", "--quantum", "bipartite", "--ns", "1e8", "--m-probes", "1e300",
            "--x-points", "3", "--y-points", "3"]
    assert main(argv) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    column = header.split(",").index("log10_ratio")
    cells = {tuple(line.split(",")[:2]): line.split(",")[column] for line in lines}
    zero, half, one = "0.00000000000e+00", "5.00000000000e-01", "1.00000000000e+00"
    assert cells[half, zero] == cells[zero, half] == "4.34294332569e+307"
    assert cells[one, half] == cells[half, one] == "7.45130036328e+306"
    # 2 M n_s gap = 2e308 itself exceeds the double range
    assert cells[one, zero] == cells[zero, one] == "inf"
    assert cells[zero, zero] == cells[half, half] == cells[one, one] == "6.02059991328e-01"
