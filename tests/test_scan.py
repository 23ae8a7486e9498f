"""Scan engines: sweeps, mixing optimization, region maps, small expansions."""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpfkit import (
    PROTOCOL_IDS,
    DomainError,
    RegionSpec,
    Scenario,
    fidelity,
    output_fidelity,
    protocols,
    region_scan,
    scan,
)
from cpfkit.cli import main
from cpfkit.scan import _optimize_kappa_batch, _sweep_columns
from helpers import (
    KAPPA_BUDGET_ROW,
    classical_closed,
    count_closed_form_elements,
    count_kernel_elements,
    count_pair_builds,
    counting_checks,
    expansion_coefficient,
    extreme_point_check,
    idler_free_two_box,
)
from kernel_oracle import output_fidelity as oracle_fidelity


# ------------------------------------------------------- fidelity wrappers


def test_idler_free_fidelity_dispatch():
    assert fidelity("idler_free", 2, 0.6, 0.9, 5.0)[0] == pytest.approx(
        float(idler_free_two_box(0.6, 0.9, 5.0)), rel=1e-14
    )
    etas = np.linspace(0.1, 0.9, 5)
    batch = fidelity("idler_free", 4, 0.6, etas, 5.0)[0]
    for i, eta in enumerate(etas):
        point = output_fidelity(Scenario(4, 0.6, float(eta), 5.0), "idler_free")
        assert batch[i] == pytest.approx(point.value, abs=1e-12)


_BAD_FIELDS = [("eta_b", float("nan")), ("eta_t", float("nan")), ("eta_t", float("inf")),
               ("n_s", float("inf")), ("n_s", float("nan")), ("eta_b", 1.2), ("n_s", -1.0)]
# (protocol, kappa): the mixed protocol both optimized and at a fixed kappa
_DISPATCHED = [(p, None) for p in PROTOCOL_IDS] + [("mixed", 0.4)]


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("protocol, kappa, field, value", [
    *((p, k, f, v) for p, k in _DISPATCHED for f, v in _BAD_FIELDS),
    ("mixed", 0.4, "kappa", 1.5), ("mixed", 0.4, "kappa", float("nan")),
])
def test_dispatcher_rejects_non_finite(m, protocol, kappa, field, value):
    # also out of the domain; a swapped protocol's refusal names the field
    # the caller set, not the one its probe family sees
    # a Python float too: fidelity cannot tell a Scenario's checked one
    for bad in (np.array([0.4, value]), value):
        point = {"eta_b": 0.3, "eta_t": 0.5, "n_s": 1.0, "kappa": kappa, field: bad}
        with pytest.raises(DomainError, match=f"^{field} must be ") as info:
            fidelity(protocol, m, **point)
        assert info.value.field == field


def test_a_fixed_kappa_two_box_fidelity_builds_no_pair(monkeypatch):
    builds, sizes = count_pair_builds(monkeypatch), count_kernel_elements(monkeypatch)
    eta_t = np.array([0.9, 0.6, 1.0])
    value, kappa, path = fidelity("mixed", 2, 0.6, eta_t, 5.0, 0.4)
    assert builds == [] and sizes == []
    assert path == "direct" and kappa.tolist() == [0.4] * 3 and value[1] == 1.0


def test_symmetric_pair_fidelity_endpoints():
    etas = np.linspace(0.05, 0.95, 7)
    classical = fidelity("mixed", 2, 0.7, etas, 8.0, 0.0)[0]
    assert np.allclose(classical, classical_closed(0.7, etas, 8.0), atol=1e-12)
    idler_free = fidelity("mixed", 2, 0.7, etas, 8.0, 1.0)[0]
    assert np.allclose(idler_free, idler_free_two_box(0.7, etas, 8.0), atol=1e-12)


# ---------------------------------------------------- mixing optimization


def test_optimize_kappa_matches_brute_force():
    for eta_b, eta_t, n_s in [(0.55, 0.9, 50.0), (0.2, 0.7, 1.0), (0.95, 0.5, 10.0)]:
        value, kappa, path = fidelity("mixed", 2, eta_b, eta_t, n_s)
        grid = np.linspace(0.0, 1.0, 2001)
        brute = fidelity("mixed", 2, eta_b, eta_t, n_s, grid)[0]
        assert path == "optimized"
        assert float(value) <= float(brute.min()) + 1e-9
        assert 0.0 <= float(kappa) <= 1.0


def test_optimize_kappa_never_beaten_by_endpoints(rng):
    for _ in range(8):
        scenario = Scenario(
            2,
            float(rng.uniform(0.05, 0.95)),
            float(rng.uniform(0.05, 0.95)),
            float(10.0 ** rng.uniform(-1.0, 1.7)),
        )
        value = float(fidelity("mixed", scenario.m, scenario.eta_b, scenario.eta_t,
                               scenario.n_s)[0])
        f_classical = float(fidelity("classical", 2, scenario.eta_b, scenario.eta_t,
                                     scenario.n_s)[0])
        f_idler_free = float(fidelity("idler_free", 2, scenario.eta_b, scenario.eta_t,
                                      scenario.n_s)[0])
        assert value <= min(f_classical, f_idler_free) + 1e-12


def test_optimize_kappa_degenerate_diagonal():
    # equal transmissivities make every kappa optimal; only the value is pinned
    value, kappa, _ = fidelity("mixed", 2, 0.6, 0.6, 30.0)
    assert 0.0 <= float(kappa) <= 1.0
    assert float(value) == pytest.approx(1.0, abs=1e-12)


def test_optimize_kappa_three_boxes():
    value = float(fidelity("mixed", 3, 0.55, 0.9, 50.0)[0])
    f_if = float(fidelity("idler_free", 3, 0.55, 0.9, 50.0)[0])
    f_cl = float(fidelity("classical", 3, 0.55, 0.9, 50.0)[0])
    assert value <= min(f_if, f_cl) + 1e-12


def _drawn_cells(count: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [(int(rng.choice((2, 3, 5, 8, 12))), float(rng.uniform()), float(rng.uniform()),
             float(10.0 ** rng.uniform(-3.0, 5.0))) for _ in range(count)]


# Cells (m, eta_b, eta_t, n_s) for the dense-reference test: the two wells
# near kappa = 0 that a linear kappa grid missed; a cell with its best well
# at kappa = 0.033 and a second minimum at kappa = 1, past a local maximum
# near 0.99; two wells 7e-6 apart in F (kappa = 0.42 and 1); three more
# wells the linear grid missed; and a seeded draw over m in {2, 3, 5, 8, 12}.
_WELLS = [(3, 0.911, 0.925, 2.93e4), (3, 0.905, 0.789, 135.0)]
_REFERENCE_CELLS = _WELLS + [
    (2, 0.55, 0.9, 50.0),
    (2, 0.2516651775815243, 0.11082077354630926, 3.089266239952981),
    (8, 0.8664392717878026, 0.8762899122438538, 50067.40135192459),
    (12, 0.8078668119013878, 0.8020806151389231, 19319.764327343666),
    (5, 0.6220897071828432, 0.628520015007522, 98920.61349144658),
] + _drawn_cells(33, 20261018)
# the kernel's own rounding makes dips of up to 3e-7 in F where the outputs
# are nearly vacuum; 1e-6 is above them and far below a missed well
_REFERENCE_TOL = 1e-6


def _dense_reference(m, eta_b, eta_t, n_s) -> float:
    """Smallest F on 2,001 linear kappa nodes and 1,201 nodes log-spaced in
    squeezed photons kappa * n_s from 1e-6 to 1e6."""
    squeezed = np.logspace(-6.0, 6.0, 1201) / n_s
    kappa = np.concatenate((np.linspace(0.0, 1.0, 2001), squeezed[squeezed < 1.0]))
    return float(fidelity("mixed", m, eta_b, eta_t, n_s, kappa)[0].min())


def test_optimize_kappa_matches_dense_reference():
    misses = []
    for cell in _REFERENCE_CELLS:
        kappa, value = _optimize_kappa_batch(*cell)
        reference = _dense_reference(*cell)
        if float(value) > reference + _REFERENCE_TOL:
            misses.append((cell, float(kappa), float(value), reference))
    assert not misses


@pytest.mark.parametrize("cell, kappa_range", [
    (_WELLS[0], (2e-6, 4e-6)),  # F = 0.1681 there; 0.2093 at kappa = 0
    (_WELLS[1], (4e-4, 8e-4)),  # F = 0.5460 there; 0.5789 at kappa = 1
])
def test_optimize_kappa_finds_the_wells_near_zero(cell, kappa_range):
    kappa, value = (float(v) for v in _optimize_kappa_batch(*cell))
    assert kappa_range[0] < kappa < kappa_range[1]
    assert value == pytest.approx(oracle_fidelity(*cell, kappa), abs=1e-8)
    endpoints = fidelity("mixed", cell[0], *cell[1:], np.array([0.0, 1.0]))[0]
    assert value < endpoints.min() - 0.03


@pytest.mark.parametrize("m", [2, 3, 8])
def test_optimize_kappa_is_independent_of_the_batch(m):
    rng = np.random.default_rng(100 + m)
    eta_b, eta_t = rng.uniform(0.0, 1.0, (2, 40))
    n_s = 10.0 ** rng.uniform(math.log10(0.5), math.log10(200.0), 40)
    eta_t[:3] = eta_b[:3]  # cells that skip the search ride along
    kappa, value = _optimize_kappa_batch(m, eta_b, eta_t, n_s)
    for i in range(eta_b.size):
        alone = _optimize_kappa_batch(m, eta_b[i], eta_t[i], n_s[i])
        assert alone[0].tobytes() == kappa[i].tobytes(), i
        assert alone[1].tobytes() == value[i].tobytes(), i
    order = rng.permutation(eta_b.size)
    shuffled = _optimize_kappa_batch(m, eta_b[order], eta_t[order], n_s[order])
    assert shuffled[0].tobytes() == kappa[order].tobytes()
    assert shuffled[1].tobytes() == value[order].tobytes()


@pytest.mark.parametrize("m", [2, 8])
def test_optimize_kappa_kernel_budget(m, monkeypatch):
    kernel = count_kernel_elements(monkeypatch)
    closed_form = count_closed_form_elements(monkeypatch)
    _optimize_kappa_batch(m, **KAPPA_BUDGET_ROW)
    # at m = 2 the pair's closed form takes the kernel's place, within its budget
    evaluated, unused = (closed_form, kernel) if m == 2 else (kernel, closed_form)
    assert unused == []
    assert 0 < sum(evaluated) <= 40 * KAPPA_BUDGET_ROW["eta_t"].size


def test_the_kappa_search_and_route_check_each_value_once(monkeypatch, capsys):
    # fidelity, the API's checked entry, checks m, eta_b, eta_t and n_s once
    # on each branch (closed form, kappa search, pair), and a mixed kappa only
    point = ["m", "eta_b", "eta_t", "n_s"]
    etas = np.linspace(0.0, 1.0, 5)
    for m in (2, 3):
        for protocol in PROTOCOL_IDS:
            for kappa in (None, 0.4):
                with counting_checks() as fields:
                    fidelity(protocol, m, 0.3, etas, 2.0, kappa)
                read = ["kappa"] if protocol == "mixed" and kappa is not None else []
                assert fields == point + read, (m, protocol, kappa)
    # the search behind it checks nothing, on entry or per Brent step
    kernel = count_kernel_elements(monkeypatch)
    with counting_checks() as fields:
        _optimize_kappa_batch(3, **KAPPA_BUDGET_ROW)
    assert len(kernel) > 2  # the coarse grid and several steps
    assert fields == []
    searched = len(kernel)
    with counting_checks() as fields:
        fidelity("mixed", 3, **KAPPA_BUDGET_ROW)
    assert len(kernel) == 2 * searched and fields == point
    # behind a RegionSpec, a sweep's Scenario or a report's Scenario nothing
    # is checked again: not the fidelities, not the bounds of a map
    for quantum, total_energy in (("mixed", None), ("idler_free", 1800.0)):
        spec = RegionSpec(Scenario(3, 0.55, None, 50.0), "eta_t", KAPPA_BUDGET_ROW["eta_t"],
                          "eta_b", (0.55, 0.9), quantum, total_energy)
        with counting_checks() as fields:
            region_scan(spec)
        assert fields == [], quantum
    pinned, free = Scenario(3, 0.5, None, 5.0, kappa=0.4), Scenario(None, 0.5, 0.6, 5.0)
    with counting_checks() as fields:
        _sweep_columns(pinned, "eta_t", etas, PROTOCOL_IDS)
        _sweep_columns(free, "m", np.array([2.0, 3.0]), ("mixed",))
    assert fields == []
    point_scenario = replace(pinned, eta_t=0.7)
    for protocol in PROTOCOL_IDS:
        with counting_checks() as fields:
            output_fidelity(point_scenario, protocol)
        assert fields == [], protocol
    # a fidelity table checks its bounds' fields once, not once per row
    argv = ["fidelity", "--protocol", "all", "--m", "3", "--eta-b", "0.3", "--eta-t", "0.5",
            "--ns", "2", "--m-probes", "4"]
    with counting_checks() as fields:
        assert main(argv) == 0
    assert capsys.readouterr().out.count("\n") == 1 + len(PROTOCOL_IDS)
    assert fields[-6:] == ["fidelity", "m", "m_probes"] * 2
    assert fields.count("fidelity") == 2 and fields.count("m_probes") == 3


def test_a_region_spec_checks_only_its_axes():
    # a scenario whose axis fields are None already is kept, not checked again
    scenario, xs, ys = Scenario(3, None, None, 50.0), np.linspace(0.0, 1.0, 3), [0.5, 0.9]
    with counting_checks() as fields:
        spec = RegionSpec(scenario, "eta_t", xs, "eta_b", ys)
    assert fields == ["eta_t", "eta_b"]
    assert spec.scenario is scenario
    # a value given on an axis is still replaced by None
    spec = RegionSpec(Scenario(3, 0.4, 0.6, 50.0), "eta_t", xs, "eta_b", ys)
    assert spec.scenario == scenario


def _sweep_batches(m, counter, monkeypatch, kappa=None, ids=("mixed",)) -> list:
    sizes = counter(monkeypatch)
    values = np.linspace(0.0, 1.0, 2000)
    _sweep_columns(Scenario(m, 0.5, None, 5.0, kappa=kappa), "eta_t", values, ids)
    return sizes


def test_optimize_kappa_batches_are_bounded_by_the_chunk(monkeypatch):
    sizes = _sweep_batches(3, count_kernel_elements, monkeypatch)
    # the largest batch is the coarse grid of a full chunk, not of the sweep
    assert max(sizes) == protocols._CHUNK * (scan.KAPPA_NODES + 1)


def test_optimize_kappa_closed_form_batches_are_bounded_by_the_chunk(monkeypatch):
    kernel = count_kernel_elements(monkeypatch)
    sizes = _sweep_batches(2, count_closed_form_elements, monkeypatch)
    assert kernel == []
    assert max(sizes) == protocols._CHUNK * (scan.KAPPA_NODES + 1)


def test_fixed_kappa_pair_batches_are_bounded_by_the_chunk(monkeypatch):
    # fidelity's pair branch chunks as the search does: two columns of 2,000
    # cells, none at eta_t == eta_b, in batches of at most one chunk
    sizes = _sweep_batches(3, count_kernel_elements, monkeypatch, 0.4, ("idler_free", "mixed"))
    assert max(sizes) == protocols._CHUNK
    assert sum(sizes) == 2 * 2000


def test_an_m_probes_sweep_searches_one_cell(monkeypatch, capsys):
    # no fidelity reads M: the grid's one distinct cell is searched once and
    # printed on every row
    cells, search = [], scan._search_log_kappa

    def counting(m, eta_b, eta_t, n_s):
        cells.append(eta_b.size)
        return search(m, eta_b, eta_t, n_s)

    monkeypatch.setattr(scan, "_search_log_kappa", counting)
    argv = ["sweep", "--variable", "m_probes", "--start", "1", "--stop", "50", "--points", "50",
            "--protocols", "mixed", "--m", "3", "--eta-b", "0.5", "--eta-t", "0.7", "--ns", "5"]
    assert main(argv) == 0
    assert cells == [1]
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 50 and len({row.split(",", 2)[2] for row in rows}) == 1


def test_optimize_kappa_equal_etas_skip_the_kernel(monkeypatch):
    sizes = count_kernel_elements(monkeypatch)
    etas = np.array([0.0, 0.3, 0.999, 1.0])
    kappa, value = _optimize_kappa_batch(3, etas, etas, np.array([1e-3, 1.0, 1e5, 1e75]))
    assert sizes == []
    assert kappa.tolist() == [0.0] * 4 and value.tolist() == [1.0] * 4


# ------------------------------------------------------------------ sweeps


def test_sweep_rows_grid_major_canonical_order(capsys):
    argv = ["sweep", "--m", "2", "--eta-b", "0.6", "--ns", "2", "--variable", "eta_t",
            "--start", "0.2", "--stop", "0.8", "--points", "2",
            "--protocols", "idler_free,classical"]  # request order must not matter
    assert main(argv) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert [(float(r["value"]), r["protocol"]) for r in rows] == [
        (0.2, "classical"),
        (0.2, "idler_free"),
        (0.8, "classical"),
        (0.8, "idler_free"),
    ]
    for row in rows:
        assert row["variable"] == "eta_t"
        assert row["kappa"] == ""  # CSV writes None as an empty cell


def test_sweep_values_match_closed_forms():
    values = (0.3, 0.6, 0.9)
    columns = _sweep_columns(Scenario(2, 0.7, None, 4.0), "eta_t", np.array(values),
                             ("classical", "idler_free"))
    by_protocol = {p: fids for p, (fids, _) in columns.items()}
    assert np.allclose(
        by_protocol["classical"], [float(classical_closed(0.7, v, 4.0)) for v in values]
    )
    assert np.allclose(
        by_protocol["idler_free"],
        [float(idler_free_two_box(0.7, v, 4.0)) for v in values],
    )


def test_sweep_reversed_swaps_roles():
    columns = _sweep_columns(Scenario(3, 0.9, None, 5.0), "eta_t", np.array([0.4]),
                             ("idler_free_reversed", "idler_free"))
    assert list(columns) == ["idler_free", "idler_free_reversed"]  # canonical order
    rows = {p: float(fids[0]) for p, (fids, _) in columns.items()}
    assert rows["idler_free"] == pytest.approx(
        float(fidelity("idler_free", 3, 0.9, 0.4, 5.0)[0]), rel=1e-12
    )
    assert rows["idler_free_reversed"] == pytest.approx(
        float(fidelity("idler_free", 3, 0.4, 0.9, 5.0)[0]), rel=1e-12
    )


def test_sweep_mixed_respects_pinned_kappa():
    pinned = Scenario(2, 0.55, None, 50.0, kappa=0.25)
    fids, kappas = _sweep_columns(pinned, "eta_t", np.array([0.9]), ("mixed",))["mixed"]
    assert kappas[0] == 0.25
    assert fids[0] == pytest.approx(
        float(fidelity("mixed", 2, 0.55, 0.9, 50.0, 0.25)[0]), rel=1e-12
    )
    free = Scenario(2, 0.55, None, 50.0)
    optimized = _sweep_columns(free, "eta_t", np.array([0.9]), ("mixed",))["mixed"][0]
    assert optimized[0] <= fids[0] + 1e-12


def test_sweep_over_m_recurses():
    columns = _sweep_columns(Scenario(None, 0.2, 0.7, 1.0), "m", np.array([2.0, 3.0, 5.0]),
                             ("idler_free",))
    fids, _ = columns["idler_free"]
    for value, m in zip(fids, (2, 3, 5)):
        assert value == pytest.approx(
            float(fidelity("idler_free", m, 0.2, 0.7, 1.0)[0]), rel=1e-12
        )


@pytest.mark.parametrize(
    "variable, value",
    [("eta_t", float("nan")), ("eta_b", float("inf")), ("n_s", float("inf")),
     ("n_s", float("nan")), ("m", float("nan")), ("m", float("inf")),
     ("m_probes", float("inf"))],
)
def test_sweep_rejects_non_finite_grid(variable, value, capsys):
    # the grid is checked where the flags set it, under the flag at fault
    first = 2.0 if variable in ("m", "m_probes") else 0.5
    argv = ["sweep", "--m", "2", "--eta-b", "0.5", "--eta-t", "0.6", "--ns", "1",
            "--variable", variable, "--start", str(first), "--stop", str(value),
            "--protocols", ",".join(PROTOCOL_IDS)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --stop must be ")


def test_sweep_rejects_nonpositive_energy_grid(capsys):
    argv = ["sweep", "--m", "2", "--eta-b", "0.5", "--eta-t", "0.6", "--variable", "n_s",
            "--start", "0.0", "--stop", "1.0", "--protocols", "classical"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --start must be in (0, ")


@pytest.mark.parametrize("variable, field", [("eta_t", "eta_b"), ("n_s", "eta_t"),
                                             ("eta_b", "n_s"), ("m", "eta_b")])
def test_sweep_requires_the_fields_its_grid_does_not_set(variable, field):
    scenario = Scenario(2, 0.5, 0.6, 1.0)
    scenario = replace(scenario, **{variable: None, field: None})
    values = np.array([2.0, 3.0] if variable == "m" else [0.2, 0.3])
    with pytest.raises(DomainError, match=f"^{field} is required$"):
        _sweep_columns(scenario, variable, values, ("classical",))


# ------------------------------------------------------------ region maps


def _small_region_spec(quantum="idler_free", total_energy=None):
    return RegionSpec(
        Scenario(3, 1.0, 0.5, 1.0),
        "eta_t",
        np.linspace(0.7, 1.0, 7),
        "n_s",
        np.linspace(1.0, 21.0, 5),
        quantum=quantum,
        total_energy=total_energy,
    )


def test_region_spec_validation():
    base = Scenario(2, 0.5, 0.5, 1.0)
    with pytest.raises(DomainError):
        RegionSpec(base, "eta_t", (0.1,), "eta_t", (0.2,))
    with pytest.raises(DomainError):
        RegionSpec(base, "eta_t", (0.1,), "m", (3.0,))
    with pytest.raises(DomainError):
        RegionSpec(base, "eta_t", (), "eta_b", (0.2,))
    with pytest.raises(DomainError):
        RegionSpec(base, "eta_t", (0.1,), "eta_b", (0.2,), quantum="bogus")
    with pytest.raises(DomainError):
        RegionSpec(base, "eta_t", (0.1,), "eta_b", (0.2,), total_energy=0.0)


@pytest.mark.parametrize(
    "axes, total_energy, field",
    [((("eta_t", (0.1, float("nan"))), ("eta_b", (0.2,))), None, "eta_t"),
     ((("eta_t", (0.1,)), ("eta_b", (float("nan"),))), None, "eta_b"),
     ((("eta_t", (0.1,)), ("n_s", (1.0, float("inf")))), None, "n_s"),
     ((("eta_t", (0.1,)), ("n_s", (-1.0,))), None, "n_s"),
     ((("eta_t", (0.1,)), ("eta_b", (1.5,))), None, "eta_b"),
     ((("eta_t", (0.1,)), ("eta_b", (0.2,))), float("inf"), "total_energy"),
     ((("eta_t", (0.1,)), ("eta_b", (0.2,))), float("nan"), "total_energy")],
)
def test_region_spec_rejects_non_finite(axes, total_energy, field):
    (x_name, x_values), (y_name, y_values) = axes
    with pytest.raises(DomainError, match=field):
        RegionSpec(Scenario(2, 0.5, 0.5, 1.0), x_name, x_values, y_name, y_values,
                   total_energy=total_energy)


@pytest.mark.parametrize("axis", [np.full((2, 2), 0.5), 0.5, "abc", ("a", "b")],
                         ids=["2-d", "scalar", "text", "texts"])
def test_region_spec_rejects_a_malformed_axis(axis):
    base = Scenario(2, 0.5, 0.5, 1.0)
    with pytest.raises(DomainError, match="^eta_t "):
        RegionSpec(base, "eta_t", axis, "eta_b", (0.5,))
    with pytest.raises(DomainError, match="^eta_b "):
        RegionSpec(base, "eta_t", (0.5,), "eta_b", axis)


@pytest.mark.parametrize("field", ["m", "eta_b", "n_s", "m_probes"])
def test_region_spec_requires_the_fields_no_axis_sets(field):
    scenario = replace(Scenario(2, 0.5, 0.5, 1.0, 3.0), **{field: None})
    with pytest.raises(DomainError, match=f"^{field} is required$"):
        RegionSpec(scenario, "eta_t", (0.5,), "eta_b" if field == "n_s" else "n_s", (1.0,))


def test_region_spec_sets_its_axes_fields_to_none():
    # a value at an axis's field is not used, and the metadata reports None
    spec = RegionSpec(Scenario(2, 0.3, 0.4, 5.0, 3.0), "eta_t", [0.5, 0.6], "eta_b", (0.2,))
    assert spec.scenario == Scenario(2, None, None, 5.0, 3.0)
    assert spec.x_values.tolist() == [0.5, 0.6] and spec.y_values.tolist() == [0.2]
    grid = region_scan(spec, 1)
    assert grid.metadata["eta_t"] is None and grid.metadata["eta_b"] is None
    # under an energy budget M per cell is set by the budget, so M may be None
    budget = RegionSpec(Scenario(2, 0.3, None, None, None), "eta_t", (0.5,), "n_s", (1.0,),
                        total_energy=40.0)
    assert region_scan(budget, 1).m_probes.tolist() == [[20.0]]


def test_region_scan_shapes_and_certificate():
    grid = region_scan(_small_region_spec(), workers=1)
    assert grid.f_quantum.shape == (5, 7)
    assert np.array_equal(grid.certificate, grid.f_quantum < grid.f_classical**2)
    assert grid.kappa_star is None
    assert grid.metadata["quantum"] == "idler_free"


_GRID_ARRAYS = ("x_values", "y_values", "f_quantum", "f_classical", "ub_quantum",
                "lb_classical", "log10_ratio", "certificate", "m_probes", "kappa_star")


@pytest.mark.parametrize("spec", [
    pytest.param(_small_region_spec(), id="idler_free"),
    pytest.param(RegionSpec(Scenario(2, 0.55, 0.5, 50.0), "eta_t", (0.6, 0.8, 0.9, 0.95),
                            "eta_b", (0.5, 0.55), quantum="mixed"), id="mixed_two_rows"),
    pytest.param(_small_region_spec(total_energy=1800.0), id="total_energy"),
])
def test_region_scan_worker_count_invariant(spec, monkeypatch):
    # small maps fit in one chunk; at 3 cells a chunk, 5 threads really run
    monkeypatch.setattr(protocols, "_CHUNK", 3)
    serial = region_scan(spec, workers=1)
    threaded = region_scan(spec, workers=5)
    assert (serial.kappa_star is None) == (spec.quantum != "mixed")
    for name in _GRID_ARRAYS:
        a, b = getattr(serial, name), getattr(threaded, name)
        assert (a is None and b is None) or np.array_equal(a, b), name
    assert serial.metadata == threaded.metadata


# etas on a lattice with both edges, where axes and fixed fields meet at
# equal-eta cells, or uniform; energies where the kernel keeps its digits
_MAP_VALUES = {
    "eta_b": st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)),
    "n_s": st.one_of(st.sampled_from([0.5, 5.0, 50.0]), st.floats(0.01, 100.0)),
}
_MAP_VALUES["eta_t"] = _MAP_VALUES["eta_b"]


@st.composite
def _small_maps(draw):
    """A RegionSpec of at most 4 x 4 cells over any two axes, any quantum
    protocol, m in {2, 3, 5}, with or without an energy budget."""
    x_name, y_name, _ = draw(st.permutations(scan.REGION_AXES))
    axes = [draw(st.lists(_MAP_VALUES[name], min_size=1, max_size=4, unique=True))
            for name in (x_name, y_name)]
    fixed = {name: draw(values) for name, values in _MAP_VALUES.items()}
    scenario = Scenario(draw(st.sampled_from([2, 3, 5])), m_probes=3.0, **fixed)
    return RegionSpec(scenario, x_name, axes[0], y_name, axes[1],
                      draw(st.sampled_from(scan.QUANTUM_PROTOCOLS)),
                      draw(st.sampled_from([None, 900.0])))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=_small_maps(), workers=st.sampled_from([1, 2, 5]),
       chunk=st.sampled_from([1, 7, 512]))
def test_map_bytes_depend_on_neither_workers_nor_chunk_size(spec, workers, chunk):
    serial = region_scan(spec, workers=1)
    default = protocols._CHUNK
    protocols._CHUNK = chunk  # not monkeypatch: a fixture outlives one example
    try:
        grid = region_scan(spec, workers)
    finally:
        protocols._CHUNK = default
    for name in _GRID_ARRAYS:
        a, b = getattr(serial, name), getattr(grid, name)
        assert (a is None and b is None) or (
            a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()), name
    assert serial.metadata == grid.metadata


_CHUNKED_ARGV = {
    # the diagonal cells, at eta_b == eta_t, skip the kappa search
    "mixed_region": ["region", "--quantum", "mixed", "--m", "2", "--ns", "20", "--x-points", "5",
                     "--y-points", "5", "--workers", "2"],
    "idler_free_region": ["region", "--m", "3", "--ns", "20", "--x-points", "4",
                          "--y-points", "3"],
    "figure_7": ["figure", "--id", "7", "--resolution", "5", "--format", "json"],
    "mixed_sweep": ["sweep", "--variable", "eta_t", "--start", "0", "--stop", "1", "--points",
                    "30", "--protocols", "mixed", "--m", "3", "--eta-b", "0.5", "--ns", "5"],
    # fidelity's pair branch at a fixed kappa, with one cell at eta_t == eta_b
    "fixed_kappa_sweep": ["sweep", "--variable", "eta_t", "--start", "0", "--stop", "1",
                          "--points", "21", "--protocols", "idler_free,mixed", "--m", "3",
                          "--kappa", "0.4", "--eta-b", "0.5", "--ns", "5"],
}


@pytest.mark.parametrize("argv", _CHUNKED_ARGV.values(), ids=_CHUNKED_ARGV)
def test_printed_bytes_do_not_depend_on_the_chunk_size(argv, capsys, monkeypatch):
    printed = []
    for chunk in (protocols._CHUNK, 1, 7):
        monkeypatch.setattr(protocols, "_CHUNK", chunk)
        assert main(argv) == 0
        printed.append(capsys.readouterr())
    assert printed[1:] == printed[:1] * 2


def test_region_scan_fixed_energy_rounds():
    budget = 1800.0
    grid = region_scan(_small_region_spec(total_energy=budget), workers=1)
    n_s = np.asarray(grid.y_values)
    expected = budget / (3 * n_s)
    assert np.allclose(grid.m_probes, expected[:, None], rtol=1e-14)


def test_region_scan_log_ratio_survives_underflow():
    # eta_b = 1, eta_t far away, hundreds of rounds: both bounds underflow
    spec = RegionSpec(
        Scenario(3, 1.0, 0.5, 1.0),
        "eta_t",
        (0.0, 0.1),
        "n_s",
        (1.0, 2.0),
        total_energy=1800.0,
    )
    grid = region_scan(spec, workers=1)
    assert np.all(np.isfinite(grid.log10_ratio))


def test_region_scan_mixed_tracks_kappa():
    spec = RegionSpec(
        Scenario(2, 0.55, 0.5, 50.0),
        "eta_t",
        (0.9, 0.95),
        "eta_b",
        (0.55,),
        quantum="mixed",
    )
    grid = region_scan(spec, workers=1)
    assert grid.kappa_star.shape == (1, 2)
    value, kappa, _ = fidelity("mixed", 2, 0.55, 0.9, 50.0)
    assert grid.f_quantum[0, 0] == pytest.approx(float(value), rel=1e-12)
    assert grid.kappa_star[0, 0] == pytest.approx(float(kappa), abs=1e-9)


def _recording_pools(monkeypatch) -> list:
    """The max_workers of every thread pool protocols._cellwise starts."""
    pools = []

    class Recorder(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(protocols, "ThreadPoolExecutor", Recorder)
    return pools


def test_workers_resolution(monkeypatch):
    pools = _recording_pools(monkeypatch)
    # the 5 x 7 map's 30 cells at eta_t != eta_b are three chunks; its 5 cells
    # at eta_t = eta_b = 1 are in none
    monkeypatch.setattr(protocols, "_CHUNK", 10)
    serial = region_scan(_small_region_spec(), workers=1)
    # no worker count is one worker, in the caller's thread
    assert region_scan(_small_region_spec()).f_quantum.tobytes() == serial.f_quantum.tobytes()
    assert pools == []
    # a pool has the workers asked for, but never more than there are chunks
    region_scan(_small_region_spec(), workers=2)
    region_scan(_small_region_spec(), workers=6)
    assert pools == [2, 3]
    region_scan(_small_region_spec(), workers=np.int64(2))
    assert pools == [2, 3, 2]
    for workers in (0, -1, 2.5, "2"):
        with pytest.raises(DomainError, match="^workers must be ") as info:
            region_scan(_small_region_spec(), workers=workers)
        assert info.value.field == "workers"
    assert pools == [2, 3, 2]


@pytest.mark.parametrize("m, quantum", [(2, "idler_free"), (2, "bipartite"), (3, "bipartite")])
def test_closed_form_maps_start_no_pool(m, quantum, monkeypatch):
    # a closed form is one vectorized call over the whole map, at any worker count
    pools = _recording_pools(monkeypatch)
    monkeypatch.setattr(protocols, "_CHUNK", 1)
    grid = np.linspace(0.0, 1.0, 6)
    spec = RegionSpec(Scenario(m, None, None, 20.0), "eta_t", grid, "eta_b", grid, quantum)
    serial = region_scan(spec, workers=1)
    for workers in (2, 5):
        assert region_scan(spec, workers).f_quantum.tobytes() == serial.f_quantum.tobytes()
    assert pools == []


@pytest.mark.parametrize("protocol", PROTOCOL_IDS)
@pytest.mark.parametrize("workers", [0, -1, 2.5, "2"])
def test_fidelity_refuses_a_worker_count_that_is_no_positive_integer(protocol, workers):
    with pytest.raises(DomainError, match="^workers must be ") as info:
        fidelity(protocol, 3, 0.5, np.array([0.2, 0.4]), 5.0, workers=workers)
    assert info.value.field == "workers"


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("protocol, kappa", [("idler_free", None), ("mixed", 0.4),
                                             ("mixed", None)],
                         ids=["idler_free", "fixed_kappa", "kappa_search"])
def test_fidelity_threads_give_the_serial_bytes(m, protocol, kappa, monkeypatch):
    # at 3 cells a chunk the 10 cells at eta_t != 0.5 are four chunks, taken
    # by two threads; the cell at eta_t = 0.5 is in none
    pools = _recording_pools(monkeypatch)
    monkeypatch.setattr(protocols, "_CHUNK", 3)
    eta_t = np.linspace(0.0, 1.0, 11)
    serial = fidelity(protocol, m, 0.5, eta_t, 5.0, kappa, workers=1)
    assert pools == []
    threaded = fidelity(protocol, m, 0.5, eta_t, 5.0, kappa, workers=2)
    if protocol != "idler_free" or m > 2:  # the two-box idler-free form is closed
        assert pools == [2]
    assert serial[2] == threaded[2]
    for a, b in zip(serial[:2], threaded[:2]):
        assert (a is None and b is None) or a.tobytes() == b.tobytes()


@pytest.mark.parametrize("raw", ["abc", "1.5", "", "0", "-2"])
def test_workers_must_be_a_positive_integer(capsys, raw):
    argv = ["region", "--x-points", "3", "--y-points", "2", "--ns", "5", "--workers", raw]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--workers" in err and "Traceback" not in err


# ------------------------------------------------- expansions and extremes


def test_expansion_coefficient_classical_value():
    assert expansion_coefficient("classical", 0.5, 2.0) == pytest.approx(
        2.0 / (4.0 * 0.5), rel=1e-3
    )


def test_expansion_coefficient_domain():
    with pytest.raises(DomainError):
        expansion_coefficient("mixed", 0.5, 1.0)
    with pytest.raises(DomainError):
        expansion_coefficient("classical", 0.9999, 1.0)
    with pytest.raises(DomainError):
        expansion_coefficient("classical", 0.5, 0.0)


def test_extreme_point_check_values():
    report = extreme_point_check("idler_free", "eta_b_zero", 0.1, 2.0)
    assert report.reference == pytest.approx(1.0 / (1.0 + 2.0 * 0.1), rel=1e-14)
    assert report.abs_error < 1e-12


def test_extreme_point_check_validates():
    with pytest.raises(DomainError):
        extreme_point_check("classical", "sideways", 0.1, 1.0)
    with pytest.raises(DomainError):
        extreme_point_check("classical", "eta_b_zero", 0.0, 1.0)
    with pytest.raises(DomainError):
        extreme_point_check("mixed", "eta_b_zero", 0.1, 1.0)
