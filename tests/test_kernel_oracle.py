"""Accuracy gate: the Gaussian fidelity kernel against a 60-digit mpmath oracle.

The fixture (tests/data/kernel_oracle.json, written by kernel_oracle.py)
holds, for every audit point, the oracle value and the value of the complex
2k x 2k eigvals kernel that preceded the q/p split.  The gate compares the
current kernel with both; a few points are re-derived live so that the
fixture cannot go stale.  The fidelity the command line prints,
``scan.fidelity``, is gated on the same points: at m = 2 it comes from the
two-box pair's closed form, which is also pinned at points beyond the audit
grid.  Squeezed, displaced pairs outside the probe families are checked
against the oracle at the end.
"""

import json

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

import kernel_oracle as oracle  # noqa: E402
from cpfkit.cli import main  # noqa: E402
from cpfkit.gaussian import fidelity_from_arrays  # noqa: E402
from cpfkit.protocols import output_pair_arrays  # noqa: E402
from cpfkit.scan import fidelity  # noqa: E402

ROWS = oracle.load_fixture()

# the accuracy stated in README.md, "Accuracy"
TOL_ETA_BELOW_ONE = 1e-6
TOL_ETA_ONE = 1e-4
# relative, on the two-box mixed pair's closed form (1.8e-13 observed)
TOL_TWO_BOX = 1e-12
# relative, on the squeezed pairs at the end (3.1e-14 observed)
TOL_SPLIT = 1e-12


def _point(row):
    return tuple(row[name] for name in ("m", "eta_b", "eta_t", "n_s", "kappa"))


def _kernel(point):
    return float(fidelity_from_arrays(*output_pair_arrays(*point)))


@pytest.fixture(scope="module")
def errors():
    """(point, kernel error, seed kernel error) for every audit point."""
    return [
        (
            _point(row),
            abs(_kernel(_point(row)) - row["oracle"]),
            abs(row["seed_kernel"] - row["oracle"]),
        )
        for row in ROWS
    ]


def test_fixture_covers_the_audit_grid():
    assert [_point(row) for row in ROWS] == oracle.audit_grid()


def test_no_worse_than_seed_kernel(errors):
    worse = [
        (point, err, seed)
        for point, err, seed in errors
        if point[3] <= 1e5 and err > max(2.0 * seed, 1e-6)
    ]
    assert not worse


def test_worst_error_below_seed_worst(errors):
    worst = max(err for _, err, _ in errors)
    seed_worst = max(seed for _, _, seed in errors)
    assert worst < seed_worst


def test_stated_accuracy(errors):
    for point, err, _ in errors:
        eta_one = 1.0 in (point[1], point[2])
        assert err <= (TOL_ETA_ONE if eta_one else TOL_ETA_BELOW_ONE), point


def test_near_pure_outputs_fixed(errors):
    # the seed kernel's worst point: a nearly defective eigenvalue cluster
    by_point = {point: (err, seed) for point, err, seed in errors}
    err, seed = by_point[(2, 0.5, 0.5000001, 0.17, 0.0016)]
    assert seed > 1e-4
    assert err < 1e-12


@pytest.mark.parametrize("m", oracle.AUDIT_M)
def test_printed_fidelity_meets_the_oracle(m):
    # scan.fidelity at a fixed kappa, as the command line calls it, on every
    # audit point of this m at once
    rows = [row for row in ROWS if row["m"] == m]
    eta_b, eta_t, n_s, kappa = (np.array([row[name] for row in rows])
                                for name in ("eta_b", "eta_t", "n_s", "kappa"))
    values = fidelity("mixed", m, eta_b, eta_t, n_s, kappa)[0]
    for row, value in zip(rows, values):
        reference = row["oracle"]
        if m == 2:
            assert value == pytest.approx(reference, rel=TOL_TWO_BOX, abs=1e-300), _point(row)
        else:
            eta_one = 1.0 in (row["eta_b"], row["eta_t"])
            tol = TOL_ETA_ONE if eta_one else TOL_ETA_BELOW_ONE
            assert abs(value - reference) <= tol, _point(row)


# Two-box points beyond the audit grid, where the kernel loses digits or
# refuses: nearly equal etas at large n_s, n_s = N_S_MAX, and eta_t = 1.  The
# oracle needs 120 digits at n_s = 1e75, where 80 digits read 1.1e-6 off.
HARD_DIGITS = 120
HARD_POINTS = [
    (0.5, 0.500000001, 1e20, 0.1),
    (0.5, 0.500000001, 1e30, 0.1),
    (0.3, 0.5, 1e75, 1.0),
    (0.999, 1.0, 1e5, 1.0),
    (0.3, 1.0, 1e5, 0.3),
]


@pytest.mark.parametrize("point", HARD_POINTS, ids=str)
def test_two_box_closed_form_at_hard_points(point):
    reference = oracle.output_fidelity(2, *point, digits=HARD_DIGITS)
    value = float(fidelity("mixed", 2, *point)[0])
    assert value == pytest.approx(reference, rel=TOL_TWO_BOX)


# the printed two-box idler-free fidelity, the mixed pair's closed form at
# kappa = 1, at nearly equal etas and at a pure output, where the paper's
# form, its gap written as a difference, loses digits (99% at the first point)
IDLER_FREE_POINTS = [
    (0.5, 0.500000001, 1e20),
    (0.5, 0.500000001, 1e8),
    (0.5, 0.5000001, 1e6),
    (0.21038235709201447, 0.21204690385035185, 252278.6944643696),
    (0.999, 1.0, 1e5),
]


@pytest.mark.parametrize("point", IDLER_FREE_POINTS, ids=str)
def test_two_box_idler_free_meets_the_oracle(point):
    reference = oracle.output_fidelity(2, *point, 1.0, digits=HARD_DIGITS)
    for eta_b, eta_t in (point[:2], point[1::-1]):
        value = float(fidelity("idler_free", 2, eta_b, eta_t, point[2])[0])
        assert value == pytest.approx(reference, rel=1e-14, abs=0.0)


# the kernel refused these, on n_s, before the two-box closed form
_NEAR_LINE = ["--x", "eta_t", "--x-start", "0.500000001", "--x-stop", "0.500000001",
              "--x-points", "1", "--y", "eta_b", "--y-start", "0.5", "--y-stop", "0.5",
              "--y-points", "1"]
_ANSWERED = {
    "kappa": (["kappa", "--m", "2", "--eta-b", "0.5", "--eta-t", "0.500000001",
               "--ns", "1e50"], "kappa_star", "fidelity"),
    "region": (["region", "--quantum", "mixed", "--m", "2", "--ns", "1e50", *_NEAR_LINE],
               "kappa_star", "f_quantum"),
}


@pytest.mark.parametrize("case", _ANSWERED.values(), ids=_ANSWERED)
def test_near_equal_etas_at_two_boxes_are_answered(case, capsys):
    argv, kappa_column, fidelity_column = case
    assert main([*argv, "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    (row,) = (dict(zip(document["columns"], r)) for r in document["rows"])
    reference = oracle.output_fidelity(2, 0.5, 0.500000001, 1e50, row[kappa_column],
                                       digits=HARD_DIGITS)
    assert row[fidelity_column] == pytest.approx(reference, rel=TOL_TWO_BOX, abs=1e-300)


# every 101st audit point, which spans all m, eta pairs and kappa values
LIVE = ROWS[::101]


@pytest.mark.parametrize("row", LIVE, ids=[str(_point(r)) for r in LIVE])
def test_fixture_oracle_rederived(row):
    assert oracle.output_fidelity(*_point(row)) == pytest.approx(
        row["oracle"], rel=1e-14, abs=1e-300
    )


def test_kappa_optimum_is_not_a_kernel_artefact(capsys):
    # the complex eigvals kernel printed kappa_star 1.12e-2 with fidelity
    # 0.999858558524 here, 1.4e-4 below the true value at that kappa
    args = ["--m", "2", "--eta-b", "0.25375519476203323",
            "--eta-t", "0.2527819465204907", "--ns", "0.03337590306825458"]
    assert main(["kappa", *args]) == 0
    header, values = capsys.readouterr().out.strip().split("\n")
    row = dict(zip(header.split(","), values.split(",")))
    kappa_star, printed = float(row["kappa_star"]), float(row["fidelity"])
    reference = oracle.output_fidelity(
        2, 0.25375519476203323, 0.2527819465204907, 0.03337590306825458, kappa_star
    )
    assert abs(printed - reference) <= 1e-9


# ------------------------------------- the q/p split beyond the probe families


def _squeezed_thermal(nu, r):
    """nu diag(e^-2r, e^2r): a thermal mode of symplectic eigenvalue nu,
    squeezed by r in q."""
    return nu * mpmath.diag([mpmath.exp(-2 * r), mpmath.exp(2 * r)])


def _two_mode(nu_1, nu_2, r_1, r_2, t):
    """Squeezed thermal modes mixed on a beam splitter of angle t, which
    couples q_1 with q_2 and p_1 with p_2 but never a q with a p."""
    product = mpmath.zeros(4)
    for offset, block in ((0, _squeezed_thermal(nu_1, r_1)),
                          (2, _squeezed_thermal(nu_2, -r_2))):
        for i in range(2):
            for j in range(2):
                product[offset + i, offset + j] = block[i, j]
    c, s = mpmath.cos(t), mpmath.sin(t)
    splitter = mpmath.zeros(4)
    for i in range(2):
        splitter[i, i] = splitter[2 + i, 2 + i] = c
        splitter[i, 2 + i], splitter[2 + i, i] = s, -s
    return splitter * product * splitter.T


def _mp(*values):
    return [mpmath.mpf(v) for v in values]


# (builder, its parameters for state a and for state b, mean a, mean b)
_SPLIT_PAIRS = {
    "squeezed-thermal": (_squeezed_thermal, ("1.5", "0.4"), ("2", "-0.1"),
                         ("0.2", "-0.5"), ("1", "0.3")),
    "strongly-squeezed": (_squeezed_thermal, ("1.05", "1.5"), ("5", "0.8"),
                          ("0", "0"), ("2", "-1")),
    "two-mode": (_two_mode, ("1.2", "1.7", "0.5", "0.2", "0.4"),
                 ("1.4", "1.1", "0.3", "0.6", "1"),
                 ("0.3", "0.1", "-0.4", "0.8"), ("-0.2", "0.5", "0.6", "-0.1")),
    "two-mode-strongly-squeezed": (_two_mode, ("3", "1.02", "1.2", "0.9", "0.8"),
                                   ("1.1", "2.5", "0.1", "1.1", "0.3"),
                                   ("1", "0", "0", "-1"), ("0", "0.5", "-0.5", "0")),
}


@pytest.mark.parametrize("name", sorted(_SPLIT_PAIRS))
def test_split_path_matches_oracle(name):
    # squeezed, displaced pairs without the probe families' symmetry, against
    # the oracle's full 2k x 2k formula
    build, params_a, params_b, mean_a, mean_b = _SPLIT_PAIRS[name]
    with mpmath.workdps(oracle.DIGITS):
        pair = (build(*_mp(*params_a)), build(*_mp(*params_b)),
                mpmath.matrix(_mp(*mean_a)), mpmath.matrix(_mp(*mean_b)))
        reference = float(oracle.fidelity(*pair))
    cov_a, cov_b = (np.array(v.tolist(), dtype=float) for v in pair[:2])
    m_a, m_b = (np.array(v.tolist(), dtype=float).ravel() for v in pair[2:])
    assert not (cov_a[0::2, 1::2].any() or cov_b[0::2, 1::2].any())
    value = float(fidelity_from_arrays(cov_a, cov_b, m_a, m_b))
    assert value == pytest.approx(reference, rel=TOL_SPLIT)
