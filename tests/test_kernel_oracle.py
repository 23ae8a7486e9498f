"""Accuracy gate: the Gaussian fidelity kernel against a 60-digit mpmath oracle.

The fixture (tests/data/kernel_oracle.json, written by kernel_oracle.py)
holds, for every audit point, the oracle value and the value of the complex
2k x 2k eigvals kernel that preceded the q/p split.  The gate compares the
current kernel with both; a few points are re-derived live so that the
fixture cannot go stale.
"""

import pytest

pytest.importorskip("mpmath")

import kernel_oracle as oracle  # noqa: E402
from cpfkit.cli import main  # noqa: E402
from cpfkit.gaussian import fidelity_from_arrays  # noqa: E402
from cpfkit.protocols import output_pair_arrays  # noqa: E402

ROWS = oracle.load_fixture()

# the accuracy stated in README.md, "Accuracy"
TOL_ETA_BELOW_ONE = 1e-6
TOL_ETA_ONE = 1e-4


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
