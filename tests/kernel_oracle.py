"""High-precision reference for the Gaussian fidelity kernel.

Builds the channel-position-finding output pair from the scenario parameters
``(m, eta_b, eta_t, n_s, kappa)`` in mpmath and evaluates the
Banchi-Braunstein-Pirandola fidelity formula (PRL 115, 260501, 2015) on the
full 2k x 2k matrices, with no q/p split and no eigenvalue snapping.  The
pair is built from the parameters, never from float64 arrays: at eta = 1
exactly, the rounded arrays are ill-conditioned by themselves.

A nearly defective eigenvalue cluster at a pure direction loses about three
quarters of the working digits (half in the eigensolver, half again at the
square-root kink of arccosh), so ``DIGITS`` = 60 leaves about 15; on the
audit grid, 60 and 100 digits give the same double.

Run as a script to rewrite the audit fixture::

    PYTHONPATH=src python tests/kernel_oracle.py tests/data/kernel_oracle.json

Each fixture point holds the oracle value and the value of the kernel that
was current when the fixture was written (the complex 2k x 2k ``eigvals``
kernel, before the q/p split).  Regenerating the fixture must not replace
those reference values with the current kernel's, so the script keeps the
``seed_kernel`` entries of an existing fixture and only fills in missing ones.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import mpmath

from cpfkit.gaussian import fidelity_from_arrays
from cpfkit.protocols import output_pair_arrays

DIGITS = 60

AUDIT_M = (2, 3, 5)
AUDIT_NS = (1e-6, 1e-3, 0.17, 1.0, 10.0, 1e3, 1e5, 1e6)
AUDIT_KAPPA = (0.0, 1e-4, 1.6e-3, 1e-2, 0.3, 1.0)
AUDIT_ETAS = (
    (0.53, 0.45),
    (0.9, 0.95),
    (0.0, 0.7),
    (1.0, 0.3),
    (0.5, 0.5000001),
    (0.999, 1.0),
    (0.2, 0.7),
)

FIXTURE = Path(__file__).with_name("data") / "kernel_oracle.json"


def audit_grid():
    """Every audit point as an ``(m, eta_b, eta_t, n_s, kappa)`` tuple."""
    return [
        (m, eta_b, eta_t, n_s, kappa)
        for m, (eta_b, eta_t), n_s, kappa in itertools.product(
            AUDIT_M, AUDIT_ETAS, AUDIT_NS, AUDIT_KAPPA
        )
    ]


def _set_block(cov, i, j, alpha, beta):
    cov[2 * i, 2 * j] = alpha + beta
    cov[2 * i + 1, 2 * j + 1] = alpha - beta
    if i != j:
        cov[2 * j, 2 * i] = alpha + beta
        cov[2 * j + 1, 2 * i + 1] = alpha - beta


def output_pair(m, eta_b, eta_t, n_s, kappa):
    """The two-mode (m = 2) or reduced three-mode (m >= 3) output pair.

    Mirrors ``cpfkit.protocols.output_pair_arrays`` in exact-input mpmath
    arithmetic; returns ``(cov_1, cov_2, mean_1, mean_2)`` as mpmath matrices.
    """
    eta_b, eta_t, n_s, kappa = (mpmath.mpf(v) for v in (eta_b, eta_t, n_s, kappa))
    mu = 1 + 2 * kappa * n_s
    c = mpmath.sqrt(mu * mu - 1) / (m - 1)
    d_b = eta_b * mu + 1 - eta_b
    d_t = eta_t * mu + 1 - eta_t
    g_b = eta_b * c
    g_t = mpmath.sqrt(eta_b * eta_t) * c
    amp = 2 * mpmath.sqrt((1 - kappa) * n_s)
    a_b = mpmath.sqrt(eta_b) * amp
    a_t = mpmath.sqrt(eta_t) * amp

    k = 2 if m == 2 else 3
    cov_1, cov_2 = mpmath.zeros(2 * k), mpmath.zeros(2 * k)
    mean_1, mean_2 = mpmath.zeros(2 * k, 1), mpmath.zeros(2 * k, 1)
    _set_block(cov_1, 0, 0, d_t, 0)
    _set_block(cov_1, 1, 1, d_b, 0)
    _set_block(cov_1, 0, 1, 0, g_t)
    _set_block(cov_2, 0, 0, d_b, 0)
    _set_block(cov_2, 1, 1, d_t, 0)
    _set_block(cov_2, 0, 1, 0, g_t)
    mean_1[0], mean_1[2] = a_t, a_b
    mean_2[0], mean_2[2] = a_b, a_t
    if m > 2:
        root = mpmath.sqrt(m - 2)
        _set_block(cov_1, 2, 2, d_b, (m - 3) * g_b)
        _set_block(cov_2, 2, 2, d_b, (m - 3) * g_b)
        _set_block(cov_1, 0, 2, 0, root * g_t)
        _set_block(cov_1, 1, 2, 0, root * g_b)
        _set_block(cov_2, 0, 2, 0, root * g_b)
        _set_block(cov_2, 1, 2, 0, root * g_t)
        mean_1[4] = root * a_b
        mean_2[4] = root * a_b
    return cov_1, cov_2, mean_1, mean_2


def fidelity(cov_a, cov_b, mean_a, mean_b):
    """Banchi-Braunstein-Pirandola fidelity on full 2k x 2k mpmath matrices.

    Same convention as ``cpfkit.gaussian.fidelity_from_arrays`` (vacuum
    covariance = identity): with G = (V_a + V_b)^-1 and
    V_aux = Omega^T G (Omega + V_b Omega V_a), the eigenvalues of V_aux Omega
    are pairs +/- i nu_j and

        log F = (sum arccosh|w| - log det(V_a + V_b) + 2k log 2) / 4
                - du^T G du / 4.
    """
    two_n = cov_a.rows
    omega = mpmath.zeros(two_n)
    for i in range(0, two_n, 2):
        omega[i, i + 1], omega[i + 1, i] = 1, -1
    total = cov_a + cov_b
    g = mpmath.inverse(total)
    v_aux = omega.T * g * (omega + cov_b * omega * cov_a)
    w = mpmath.eig(v_aux * omega, left=False, right=False)
    log_num = mpmath.fsum(mpmath.acosh(max(abs(x), mpmath.mpf(1))) for x in w)
    delta = mean_b - mean_a
    exponent = -(delta.T * g * delta)[0] / 4
    log_f = (log_num - mpmath.log(mpmath.det(total)) + two_n * mpmath.log(2)) / 4
    return mpmath.exp(log_f + exponent)


def output_fidelity(m, eta_b, eta_t, n_s, kappa, digits=DIGITS):
    """Reference fidelity of the mixed-probe output pair, as a float."""
    with mpmath.workdps(digits):
        return float(fidelity(*output_pair(m, eta_b, eta_t, n_s, kappa)))


def _kernel_value(point):
    return float(fidelity_from_arrays(*output_pair_arrays(*point)))


FIELDS = ("m", "eta_b", "eta_t", "n_s", "kappa", "oracle", "seed_kernel")


def load_fixture(path: Path = FIXTURE):
    """Fixture rows as dicts keyed by :data:`FIELDS`."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return [dict(zip(doc["fields"], row)) for row in doc["points"]]


def write_fixture(path: Path) -> None:
    """Write the audit grid with oracle values; keep existing kernel values."""
    previous = {}
    if path.exists():
        previous = {
            (r["m"], r["eta_b"], r["eta_t"], r["n_s"], r["kappa"]): r["seed_kernel"]
            for r in load_fixture(path)
        }
    rows = []
    for point in audit_grid():
        seed = previous.get(point)
        seed = _kernel_value(point) if seed is None else seed
        rows.append(json.dumps([*point, output_fidelity(*point), seed]))
    text = (
        f'{{"digits": {DIGITS}, "fields": {json.dumps(list(FIELDS))}, "points": [\n'
        + ",\n".join(rows)
        + "\n]}\n"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


if __name__ == "__main__":
    write_fixture(Path(sys.argv[1]) if len(sys.argv) > 1 else FIXTURE)
