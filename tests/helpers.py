"""Helpers only the tests use: state fixtures, general-prior bounds and
independent references and checks built on cpfkit's public API, kept out of
the package."""

import contextlib
import json
import math
import sys
import threading
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from cpfkit import (
    DomainError,
    GaussianState,
    InvalidStateError,
    ProtocolKind,
    Scenario,
    check_physical,
    errors,
    fidelity_from_arrays,
    protocols,
    pure_loss,
)
from cpfkit.errors import check
from cpfkit.protocols import (
    bipartite_fidelity,
    classical_fidelity,
    idler_free_binary_fidelity,
    output_pair_arrays,
)


def vacuum_state(n_modes: int) -> GaussianState:
    """The n-mode vacuum: zero mean, identity covariance."""
    if n_modes < 1:
        raise DomainError(f"n_modes must be at least 1, got {n_modes}")
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def coherent_state(alphas: Sequence[complex]) -> GaussianState:
    """Product coherent state with one complex amplitude per mode."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=complex))
    mean = np.empty(2 * alphas.size)
    mean[0::2] = 2.0 * alphas.real
    mean[1::2] = 2.0 * alphas.imag
    return GaussianState(mean, np.eye(2 * alphas.size))


def thermal_state(n_bar: float) -> GaussianState:
    """Single-mode thermal state with mean photon number ``n_bar``."""
    if n_bar < 0:
        raise DomainError(f"mean photon number must be nonnegative, got {n_bar}")
    return GaussianState(np.zeros(2), (2.0 * n_bar + 1.0) * np.eye(2))


def symmetric_cm(m: int, mu: float, c: float) -> np.ndarray:
    """Fully symmetric m-mode covariance: mu*I on the diagonal, c*Z off it."""
    return np.kron(np.eye(m), mu * np.eye(2)) + np.kron(1.0 - np.eye(m), np.diag([c, -c]))


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Tensor product: means concatenate, covariances block-diagonal."""
    na, nb = a.mean.size, b.mean.size
    cm = np.zeros((na + nb, na + nb))
    cm[:na, :na] = a.cm
    cm[na:, na:] = b.cm
    return GaussianState(np.concatenate([a.mean, b.mean]), cm)


def keep_modes(state: GaussianState, modes: Sequence[int]) -> GaussianState:
    """Partial trace down to ``modes``, kept in the given order."""
    modes = list(modes)
    if len(set(modes)) != len(modes) or not modes:
        raise InvalidStateError(f"modes must be a non-empty set of distinct indices, got {modes}")
    if any(m < 0 or m >= state.n_modes for m in modes):
        raise InvalidStateError(f"mode index out of range for {state.n_modes}-mode state: {modes}")
    idx = np.array([[2 * m, 2 * m + 1] for m in modes]).ravel()
    return GaussianState(state.mean[idx], state.cm[np.ix_(idx, idx)])


def displace(state: GaussianState, offset: Sequence[float]) -> GaussianState:
    """Phase-space displacement: adds ``offset`` to the mean vector."""
    offset = np.asarray(offset, dtype=float)
    if offset.shape != state.mean.shape:
        raise InvalidStateError(
            f"offset must have shape {state.mean.shape}, got {offset.shape}"
        )
    return GaussianState(state.mean + offset, state.cm)


def photon_number(state: GaussianState, mode: int) -> float:
    """Mean photon number of one mode, thermal plus coherent contribution."""
    if not 0 <= mode < state.n_modes:
        raise InvalidStateError(f"mode {mode} out of range for {state.n_modes}-mode state")
    i, j = 2 * mode, 2 * mode + 1
    return (state.cm[i, i] + state.cm[j, j] - 2.0) / 4.0 + (
        state.mean[i] ** 2 + state.mean[j] ** 2
    ) / 4.0


def state_fidelity(a: GaussianState, b: GaussianState) -> float:
    """The fidelity of two physical states through the kernel."""
    assert check_physical(a).ok and check_physical(b).ok
    return float(fidelity_from_arrays(a.cm, b.cm, a.mean, b.mean))


def _check_priors_and_matrix(priors, fidelities) -> tuple:
    priors = np.asarray(priors, dtype=float)
    fidelities = check("fidelity", fidelities, "fidelities")
    m = priors.size
    check("m", m, "priors")  # one prior per hypothesis
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
    check("m_probes", m_probes)
    root = np.sqrt(np.outer(priors, priors))
    total = root * fidelities**m_probes
    value = float(total.sum() - np.trace(total))
    return min(1.0, value)


def perr_lower_general(priors, fidelities, m_probes: float = 1.0):
    """General-prior lower bound, 1/2 sum over i != j of pi_i pi_j F_ij^(2M)
    (Montanaro, IEEE Information Theory Workshop (ITW) 2008)."""
    priors, fidelities = _check_priors_and_matrix(priors, fidelities)
    check("m_probes", m_probes)
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
    fidelity = check("fidelity", fidelity)
    check("m", m)
    square = 2.0 + (m - 2.0) * fidelity - 2.0 * np.sqrt(
        (1.0 + (m - 1.0) * fidelity) * (1.0 - fidelity)
    )
    return (m - 1.0) / (m * m) * square


def advantage_certificate(fidelity_a, fidelity_b) -> bool:
    """True when strategy A provably beats strategy B for enough probe rounds.

    The condition is F_A < F_B^2 strictly: then A's upper bound sinks below
    B's lower bound as M grows.
    """
    fidelity_a = float(check("fidelity", fidelity_a, "fidelity_a"))
    fidelity_b = float(check("fidelity", fidelity_b, "fidelity_b"))
    return fidelity_a < fidelity_b * fidelity_b


def thermal_fidelity_oracle(n1: float, n2: float) -> float:
    """Closed-form fidelity between two thermal states, from the Fock-basis sum.

    Both states are diagonal in the number basis, so
    F = sum_k sqrt(p_k q_k) is a geometric series with ratio
    sqrt(n1 n2 / ((n1+1)(n2+1))).
    """
    if n1 < 0 or n2 < 0:
        raise DomainError(f"mean photon numbers must be nonnegative, got {n1}, {n2}")
    ratio = math.sqrt(n1 * n2 / ((n1 + 1.0) * (n2 + 1.0)))
    return 1.0 / (math.sqrt((n1 + 1.0) * (n2 + 1.0)) * (1.0 - ratio))


def bipartite_fidelity_numeric(eta_b: float, eta_t: float, n_s: float) -> float:
    """Bipartite fidelity via Gaussian numerics on a single retained pair.

    The outputs differ only on two boxes, and each differing box contributes
    the fidelity between a pair whose signal passed eta_t and one whose signal
    passed eta_b, so the total is that pair fidelity squared.
    """
    mu = 2.0 * n_s + 1.0  # a two-mode squeezed pair: mode 0 idler, mode 1 signal
    probe = GaussianState(np.zeros(4), symmetric_cm(2, mu, math.sqrt(mu * mu - 1.0)))
    through_t = pure_loss(probe, 1, eta_t)
    through_b = pure_loss(probe, 1, eta_b)
    return state_fidelity(through_t, through_b) ** 2


def reduction_symplectic(m: int) -> np.ndarray:
    """Symplectic of the collective rotation that decouples boxes 3..m.

    Acts as the identity on modes 0 and 1 (the two boxes that differ between
    the hypotheses) and mixes modes 2..m-1 so that only their balanced
    combination stays correlated with the first two.  Orthogonal as well as
    symplectic, so it preserves both the trace and the vacuum.
    """
    if m < 3:
        raise DomainError(f"the reduction needs m >= 3, got {m}")
    size = m - 2
    s = np.eye(2 * m)
    phi = 2.0 * math.pi / size
    norm = 1.0 / math.sqrt(size)
    for j in range(size):
        for k in range(size):
            cos, sin = math.cos(j * k * phi), math.sin(j * k * phi)
            r, c = 2 * (2 + j), 2 * (2 + k)
            s[r, c] = norm * cos
            s[r, c + 1] = -norm * sin
            s[r + 1, c] = norm * sin
            s[r + 1, c + 1] = norm * cos
    return s


def _scenario_kappa(scenario: Scenario) -> float:
    # the idler-free probe is the kappa = 1 member of the mixed family
    return 1.0 if scenario.kappa is None else scenario.kappa


def reduced_output_pair(scenario: Scenario) -> Tuple[GaussianState, GaussianState]:
    """The three-mode output pair equivalent to the full m-mode outputs (m >= 3).

    Uses scenario.kappa when set, otherwise the idler-free probe.  Fidelities
    computed on this pair match the full direct computation because the
    decoupled collective modes are identical under both hypotheses.
    """
    if scenario.m < 3:
        raise DomainError(f"the reduced pair needs m >= 3, got m = {scenario.m}")
    cov_1, cov_2, mean_1, mean_2 = output_pair_arrays(
        scenario.m, scenario.eta_b, scenario.eta_t, scenario.n_s, _scenario_kappa(scenario)
    )
    return GaussianState(mean_1, cov_1), GaussianState(mean_2, cov_2)


def traced_block_cm(scenario: Scenario) -> np.ndarray:
    """Covariance of the m-3 collective modes the reduction discards (m >= 4).

    Hypothesis-independent: d_b on the diagonal, and a +/- gamma_b
    anti-diagonal coupling (+ for p, - for q) between collective indices
    j and k with j + k = m - 2.
    """
    if scenario.m < 4:
        raise DomainError(f"there are no traced modes unless m >= 4, got m = {scenario.m}")
    kappa = _scenario_kappa(scenario)
    mu = 1.0 + 2.0 * kappa * scenario.n_s
    c = math.sqrt(max(mu * mu - 1.0, 0.0)) / (scenario.m - 1)
    d_b = scenario.eta_b * mu + 1.0 - scenario.eta_b
    g_b = scenario.eta_b * c
    size = scenario.m - 3
    cm = np.zeros((2 * size, 2 * size))
    for j in range(1, size + 1):
        for k in range(1, size + 1):
            alpha = d_b if j == k else 0.0
            beta = g_b if j + k == scenario.m - 2 else 0.0
            cm[2 * (j - 1), 2 * (k - 1)] = alpha - beta
            cm[2 * (j - 1) + 1, 2 * (k - 1) + 1] = alpha + beta
    return cm


_EXPANSION_FORMS = {
    ProtocolKind.CLASSICAL: classical_fidelity,
    ProtocolKind.BIPARTITE: bipartite_fidelity,
    ProtocolKind.IDLER_FREE: idler_free_binary_fidelity,
}

_EXPANSION_STEPS = (1e-3, 5e-4)


def expansion_coefficient(kind, eta: float, n_s: float) -> float:
    """Quadratic coefficient c2 of 1 - F at eta_t = eta_b = eta.

    Evaluates (1 - F(eta_b = eta + eps, eta_t = eta)) / eps^2 at two steps and
    Richardson-extrapolates the linear error away.  Defined for the three
    closed-form protocols (binary idler-free for the idler-free kind).
    """
    kind = ProtocolKind(kind)
    if kind not in _EXPANSION_FORMS:
        raise DomainError(f"no expansion for protocol {kind.value!r}")
    big = max(_EXPANSION_STEPS)
    if not 0.0 < eta <= 1.0 - big:
        raise DomainError(f"eta must lie in (0, {1.0 - big}], got {eta}")
    if not n_s > 0:
        raise DomainError(f"n_s must be positive, got {n_s}")
    form = _EXPANSION_FORMS[kind]

    def quotient(eps: float) -> float:
        return (1.0 - float(form(eta + eps, eta, n_s))) / eps**2

    f_big, f_small = quotient(_EXPANSION_STEPS[0]), quotient(_EXPANSION_STEPS[1])
    return 2.0 * f_small - f_big


@dataclass(frozen=True)
class ExtremePointCheck:
    """Protocol fidelity at a boundary point against its simplified form."""

    fidelity: float
    reference: float
    abs_error: float


def extreme_point_check(kind, which: str, epsilon: float, n_s: float) -> ExtremePointCheck:
    """Evaluate a protocol at an extreme transmissivity pair.

    ``which`` = "eta_b_zero" evaluates F(eta_b = 0, eta_t = epsilon);
    "eta_b_one" evaluates F(eta_b = 1, eta_t = 1 - epsilon).  The reference
    is the simplified boundary expression for that protocol.
    """
    kind = ProtocolKind(kind)
    if kind not in _EXPANSION_FORMS:
        raise DomainError(f"no closed form for protocol {kind.value!r}")
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not n_s > 0:
        raise DomainError(f"n_s must be positive, got {n_s}")
    form = _EXPANSION_FORMS[kind]
    if which == "eta_b_zero":
        value = float(form(0.0, epsilon, n_s))
        references = {
            ProtocolKind.CLASSICAL: math.exp(-n_s * epsilon),
            ProtocolKind.IDLER_FREE: 1.0 / (1.0 + n_s * epsilon),
            ProtocolKind.BIPARTITE: (1.0 + n_s * (1.0 - math.sqrt(1.0 - epsilon))) ** -2.0,
        }
    elif which == "eta_b_one":
        value = float(form(1.0, 1.0 - epsilon, n_s))
        references = {
            ProtocolKind.CLASSICAL: math.exp(-n_s * (1.0 - math.sqrt(1.0 - epsilon)) ** 2),
            ProtocolKind.IDLER_FREE: 1.0 / (1.0 + n_s * epsilon),
            ProtocolKind.BIPARTITE: (1.0 + n_s * (1.0 - math.sqrt(1.0 - epsilon))) ** -2.0,
        }
    else:
        raise DomainError(f"which must be 'eta_b_zero' or 'eta_b_one', got {which!r}")
    reference = references[kind]
    return ExtremePointCheck(value, reference, abs(value - reference))


def csv_cell_oracle(value) -> str:
    """One CSV cell: empty for None, 1/0 for bools, ints and strings as they
    are, floats to 12 significant digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, str)):
        return str(value)
    return "{:.11e}".format(value)


def render_csv_oracle(table) -> str:
    """A table as CSV, cell by cell."""
    lines = [",".join(table.columns)]
    lines.extend(",".join(csv_cell_oracle(v) for v in row) for row in table.rows)
    return "\n".join(lines) + "\n"


def render_json_oracle(table) -> str:
    """A table as indented JSON, with non-finite floats written as null."""

    def cell(value):
        return None if isinstance(value, float) and not math.isfinite(value) else value

    document = {"command": table.command,
                "parameters": {k: cell(v) for k, v in table.parameters.items()},
                "columns": table.columns,
                "rows": [[cell(v) for v in row] for row in table.rows]}
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


# A map row for the mixed optimizer's kernel-work budget, as
# `region --quantum mixed --ns 50 --x-points 21 --y-points 1 --y-start 0.55
# --y-stop 0.55` builds it: eta_t across [0, 1] at eta_b = 0.55.
KAPPA_BUDGET_ROW = {"eta_b": 0.55, "eta_t": np.linspace(0.0, 1.0, 21), "n_s": 50.0}
KAPPA_BUDGET_ARGV = ["region", "--quantum", "mixed", "--ns", "50", "--x-points", "21",
                     "--y-points", "1", "--y-start", "0.55", "--y-stop", "0.55"]


def count_kernel_elements(monkeypatch) -> list:
    """Make cpfkit.protocols.fidelity_from_arrays record the batch size of
    each call; returns the list it appends to."""
    sizes = []
    kernel = protocols.fidelity_from_arrays

    def counting(cov_a, cov_b, mean_a, mean_b):
        sizes.append(math.prod(np.broadcast_shapes(cov_a.shape[:-2], cov_b.shape[:-2])))
        return kernel(cov_a, cov_b, mean_a, mean_b)

    monkeypatch.setattr(protocols, "fidelity_from_arrays", counting)
    return sizes


def count_closed_form_elements(monkeypatch) -> list:
    """Make cpfkit.protocols._mixed_binary_fidelity, the two-box mixed pair's
    closed form, record the size of each call; returns the list it appends to."""
    sizes = []
    closed_form = protocols._mixed_binary_fidelity

    def counting(eta_b, eta_t, n_s, kappa):
        value = closed_form(eta_b, eta_t, n_s, kappa)
        sizes.append(np.size(value))
        return value

    monkeypatch.setattr(protocols, "_mixed_binary_fidelity", counting)
    return sizes


def count_pair_builds(monkeypatch) -> list:
    """Make cpfkit.protocols.output_pair_arrays record the batch shape of
    each pair it builds; returns the list it appends to."""
    shapes = []
    build = protocols.output_pair_arrays

    def counting(m, eta_b, eta_t, n_s, kappa):
        pair = build(m, eta_b, eta_t, n_s, kappa)
        shapes.append(pair[0].shape[:-2])
        return pair

    monkeypatch.setattr(protocols, "output_pair_arrays", counting)
    return shapes


@contextlib.contextmanager
def counting_checks(callers: bool = False):
    """Yield a list of the field of every cpfkit.errors.check call made while
    the block runs, in this thread or in a thread started in the block, found
    by its code object, so that a call through any module's imported name
    counts.  With ``callers`` each entry is (calling function, field), the
    function written as module.qualname."""
    fields = []
    code = errors.check.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            field = frame.f_locals["field"]
            if callers:
                caller = frame.f_back
                name = getattr(caller.f_code, "co_qualname", caller.f_code.co_name)
                field = (f"{caller.f_globals['__name__']}.{name}", field)
            fields.append(field)

    previous = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        yield fields
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
