"""The table of scenario-field domains, the ceiling on n_s, the direct
path's ceiling on m, and the refusal of a None field."""

from dataclasses import replace

import numpy as np
import pytest

from cpfkit import (
    N_S_MAX,
    DomainError,
    NumericError,
    RegionSpec,
    Scenario,
    fidelity,
    output_fidelity,
    perr_lower,
    perr_upper,
    region_scan,
)
from cpfkit.cli import main
from cpfkit.errors import DOMAINS, check
from cpfkit.protocols import DIRECT_M_MAX

_FIXED = [(p, None) for p in ("classical", "bipartite", "idler_free", "idler_free_reversed")]
_FIXED += [("mixed", kappa) for kappa in (0.0, 1e-4, 0.5, 1.0)]


def _params():
    for m in (2, 3, 5, 12):
        yield pytest.param(m, "mixed", None, "auto", id=f"m{m}-mixed-optimized-auto")
        for protocol, kappa in _FIXED:
            for path in ("auto", "direct"):
                marks = ()
                if protocol == "bipartite" and path == "direct" and m > 2:
                    # the 2m-mode sum V_a + V_b of near-pure pairs is singular in
                    # float64 from n_s ~ 1e8 to 1e17, and the point is refused
                    # naming the path
                    marks = pytest.mark.xfail(raises=DomainError, strict=True)
                yield pytest.param(m, protocol, kappa, path, marks=marks,
                                   id=f"m{m}-{protocol}-{kappa}-{path}")


@pytest.mark.parametrize("m, protocol, kappa, path", _params())
def test_every_path_is_finite_at_the_ceiling(m, protocol, kappa, path):
    if protocol == "mixed" and kappa is None:
        value = float(fidelity("mixed", m, 0.3, 0.5, N_S_MAX)[0])
    else:
        value = output_fidelity(Scenario(m, 0.3, 0.5, N_S_MAX, kappa=kappa), protocol, path).value
    assert np.isfinite(value) and 0.0 <= value <= 1.0


def test_idler_free_keeps_its_scaling_up_to_the_ceiling():
    # F ~ 3.34 / n_s at m = 3; the kernel's snap tolerance once overflowed
    # from n_s ~ 1e77 and snapped every eigenvalue to 1
    for n_s in (1e20, 1e50, N_S_MAX):
        assert float(fidelity("idler_free", 3, 0.3, 0.5, n_s)[0]) * n_s == pytest.approx(
            3.3401708673234, rel=1e-9)


@pytest.mark.parametrize("argv", [
    ["fidelity", "--m", "3", "--eta-b", ".3", "--eta-t", ".5", "--protocol", "all"],
    ["kappa", "--m", "2", "--eta-b", ".3", "--eta-t", ".5"],
])
def test_cli_refuses_energy_above_the_ceiling(argv, capsys):
    assert main([*argv, "--ns", repr(10 * N_S_MAX)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --ns ")
    assert main([*argv, "--ns", repr(N_S_MAX)]) == 0


def test_scenario_refuses_energy_above_the_ceiling():
    Scenario(2, 0.3, 0.5, N_S_MAX)
    with pytest.raises(DomainError) as info:
        Scenario(2, 0.3, 0.5, 10 * N_S_MAX)
    assert info.value.field == "n_s"


def test_direct_path_refuses_m_above_its_ceiling(monkeypatch, capsys):
    def built(*args):
        raise RuntimeError("probe built")

    monkeypatch.setattr("cpfkit.protocols.build_probe", built)
    with pytest.raises(RuntimeError, match="probe built"):  # the ceiling itself is taken
        output_fidelity(Scenario(DIRECT_M_MAX, 0.3, 0.5, 1.0), "idler_free", "direct")
    with pytest.raises(DomainError) as info:
        output_fidelity(Scenario(DIRECT_M_MAX + 1, 0.3, 0.5, 1.0), "idler_free", "direct")
    assert info.value.field == "m"
    argv = ["fidelity", "--m", str(DIRECT_M_MAX + 1), "--eta-b", ".3", "--eta-t", ".5",
            "--ns", "1", "--path", "direct"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --m ")


@pytest.mark.parametrize("call", [
    lambda: fidelity("mixed", 7, 0.5, 0.500000001, 1e20),  # the kappa search
    lambda: fidelity("mixed", 7, 0.5, 0.500000001, 1e20, 0.1),  # a fixed kappa
    lambda: output_fidelity(Scenario(7, 0.5, 0.500000001, 1e20, kappa=0.1), "mixed"),
], ids=["optimized", "fixed-kappa", "output_fidelity"])
def test_kernel_failure_on_the_auto_path_is_refused_on_n_s(call):
    # nearly equal etas at a large n_s leave V_a + V_b numerically singular
    with pytest.raises(DomainError) as info:
        call()
    assert info.value.field == "n_s"
    assert isinstance(info.value.__cause__, NumericError)
    assert "singular" in info.value.reason


def test_bipartite_probe_refuses_nan_energy():
    with pytest.raises(DomainError) as info:
        output_fidelity(Scenario(2, 0.3, 0.8, float("nan")), "bipartite", path="direct")
    assert info.value.field == "n_s"


def test_check_names_the_field_or_the_given_name():
    assert check("m", [2, 3.0]).tolist() == [2.0, 3.0]
    with pytest.raises(DomainError) as info:
        check("eta_t", [0.5, 1.5, -1.0], "x_stop")
    assert info.value.field == "x_stop"
    assert str(info.value) == "x_stop must be in [0, 1] for eta_t, got 1.5"
    with pytest.raises(DomainError, match="must be a number") as info:
        check("kappa", "half")
    assert info.value.field == "kappa"


@pytest.mark.parametrize("field", sorted(DOMAINS))
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_every_domain_refuses_non_finite_values(field, value):
    with pytest.raises(DomainError):
        check(field, value)


def test_check_refuses_none_as_required():
    with pytest.raises(DomainError, match="^eta_b is required$"):
        check("eta_b", None)
    with pytest.raises(DomainError, match="^x_start is required$"):
        check("eta_t", None, "x_start")
    with pytest.raises(DomainError, match="^eta_b is required$"):
        fidelity("classical", 2, None, 0.5, 1.0)
    with pytest.raises(DomainError, match="^fidelity is required$"):
        perr_upper(None, 2)


@pytest.mark.parametrize("field", ["m", "eta_b", "eta_t", "n_s"])
@pytest.mark.parametrize("protocol, path", [
    ("classical", "auto"), ("idler_free_reversed", "auto"), ("mixed", "auto"),
    ("bipartite", "direct"), ("idler_free_reversed", "direct"), ("mixed", "direct"),
])
def test_output_fidelity_refuses_a_none_field(field, protocol, path):
    scenario = replace(Scenario(3, 0.3, 0.5, 2.0, kappa=0.4), **{field: None})
    with pytest.raises(DomainError, match=f"^{field} is required$"):
        output_fidelity(scenario, protocol, path)


@pytest.mark.parametrize("field", ["m", "eta_b", "eta_t", "n_s"])
def test_optimize_kappa_refuses_a_none_field(field):
    point = {"m": 3, "eta_b": 0.3, "eta_t": 0.5, "n_s": 2.0, field: None}
    with pytest.raises(DomainError, match=f"^{field} is required$"):
        fidelity("mixed", **point)


# float fields at values a float32 holds exactly, so that every spelling
# below is the same number
_FLOAT_FIELDS = {"eta_b": 0.25, "eta_t": 0.5, "n_s": 2.0, "m_probes": 3.0, "kappa": 0.75}
_SPELLINGS = [np.float32, np.array]


@pytest.mark.parametrize("spelling", _SPELLINGS, ids=["float32", "0-d"])
@pytest.mark.parametrize("field", _FLOAT_FIELDS)
def test_a_scenario_keeps_the_float_it_checked(field, spelling):
    plain = Scenario(3, **_FLOAT_FIELDS)
    given = Scenario(3, **{**_FLOAT_FIELDS, field: spelling(_FLOAT_FIELDS[field])})
    assert given == plain and type(getattr(given, field)) is float
    for protocol in ("classical", "idler_free", "mixed"):
        assert output_fidelity(given, protocol) == output_fidelity(plain, protocol)


@pytest.mark.parametrize("spelling", _SPELLINGS, ids=["float32", "0-d"])
@pytest.mark.parametrize("n_s, m_probes, total_energy", [(20.0, 20.0, None),
                                                        (20.0, None, 100.0)])
def test_a_region_spec_keeps_the_floats_it_checked(n_s, m_probes, total_energy, spelling):
    def scan(*values):
        n_s, m_probes, total_energy = values
        return region_scan(RegionSpec(Scenario(2, None, None, n_s, m_probes), "eta_t",
                                      (0.25, 0.5), "eta_b", (0.75,), "idler_free",
                                      total_energy))

    values = (n_s, m_probes, total_energy)
    plain = scan(*values)
    given = scan(*(None if v is None else spelling(v) for v in values))
    assert given.metadata == plain.metadata
    for name in ("f_quantum", "f_classical", "ub_quantum", "lb_classical", "log10_ratio",
                 "m_probes"):
        assert getattr(given, name).tobytes() == getattr(plain, name).tobytes(), name


# ------------------------------------------------------ a bool is no number


@pytest.mark.parametrize("flag", [True, np.True_, np.array([True, False])],
                         ids=["python", "numpy", "array"])
def test_check_refuses_a_bool(flag):
    # NumPy reads True as 1.0, which every domain but n_s's floor would accept
    with pytest.raises(DomainError, match="^eta_b must be a number, got True$"):
        check("eta_b", flag)
    with pytest.raises(DomainError, match="^x_start must be a number, got True$"):
        check("eta_t", flag, "x_start")


@pytest.mark.parametrize("field", ["m", "eta_b", "eta_t", "n_s", "m_probes", "kappa"])
def test_a_scenario_refuses_a_bool(field):
    fields = {"m": 3, "eta_b": 0.3, "eta_t": 0.5, "n_s": 1.0, "m_probes": 1.0, "kappa": 0.4}
    with pytest.raises(DomainError, match=f"^{field} must be a number, got True$"):
        Scenario(**{**fields, field: True})


@pytest.mark.parametrize("protocol", ["classical", "idler_free", "mixed"])
def test_fidelity_refuses_a_bool(protocol):
    point = {"m": 3, "eta_b": 0.3, "eta_t": 0.5, "n_s": 1.0, "kappa": 0.4}
    for field in ("m", "eta_b", "eta_t", "n_s"):
        with pytest.raises(DomainError, match=f"^{field} must be a number, got True$"):
            fidelity(protocol, **{**point, field: True})
    with pytest.raises(DomainError, match="^workers must be an integer >= 1, got True$"):
        fidelity(protocol, **point, workers=True)


def test_fidelity_refuses_a_bool_mixed_kappa():
    with pytest.raises(DomainError, match="^kappa must be a number, got True$"):
        fidelity("mixed", 3, 0.3, 0.5, 1.0, True)


def test_a_map_refuses_a_bool():
    scenario = Scenario(3, None, None, 5.0)
    with pytest.raises(DomainError, match="^eta_t must be a number, got True$"):
        RegionSpec(scenario, "eta_t", [True, False], "eta_b", [0.5])
    spec = RegionSpec(scenario, "eta_t", [0.3, 0.6], "eta_b", [0.5], "mixed")
    with pytest.raises(DomainError, match="^workers must be an integer >= 1, got True$"):
        region_scan(spec, workers=True)


# ---------------------- a string or a None is no number, and a field one number


@pytest.mark.parametrize("values, got", [
    ("0.25", r"'0\.25'"), (b"0.25", r"b'0\.25'"), (np.array(["0.25", "0.5"]), r"'0\.25'"),
    (np.array(["0.25", 0.5], dtype=object), r"'0\.25'"), ([0.3, None], "None"),
    (np.array([0.3, None], dtype=object), "None"), ([[0.3], [None]], "None"),
], ids=["str", "bytes", "array", "object array", "None in list", "None in object array",
        "None in nested list"])
def test_check_refuses_no_number(values, got):
    # NumPy reads "0.25" as 0.25 and a None among numbers as nan; the command
    # line parses its text and takes one number per option before a check
    with pytest.raises(DomainError, match=f"^eta_b must be a number, got {got}$"):
        check("eta_b", values)
    with pytest.raises(DomainError, match=f"^eta_b must be a number, got {got}$"):
        fidelity("classical", 3, values, 0.5, 1.0)


_POINT = {"m": 3, "eta_b": 0.3, "eta_t": 0.5, "n_s": 1.0, "m_probes": 1.0, "kappa": 0.4}


@pytest.mark.parametrize("field", _POINT)
def test_a_scenario_takes_one_number_per_field(field):
    value = _POINT[field]
    with pytest.raises(DomainError, match=f"^{field} must be a number, got '{value}'$"):
        Scenario(**{**_POINT, field: str(value)})
    with pytest.raises(DomainError, match=rf"^{field} must be one number, got shape \(2,\)$"):
        Scenario(**{**_POINT, field: [value, value]})


@pytest.mark.parametrize("protocol", ["classical", "idler_free", "mixed"])
def test_fidelity_refuses_a_string_and_takes_one_m(protocol):
    point = {name: _POINT[name] for name in ("m", "eta_b", "eta_t", "n_s", "kappa")}
    for field in ("m", "eta_b", "eta_t", "n_s", *(("kappa",) if protocol == "mixed" else ())):
        with pytest.raises(DomainError, match=f"^{field} must be a number, got '"):
            fidelity(protocol, **{**point, field: str(point[field])})
    with pytest.raises(DomainError, match=r"^m must be one number, got shape \(2,\)$"):
        fidelity(protocol, **{**point, "m": [2, 3]})


@pytest.mark.parametrize("total_energy, reason", [
    ("10", "must be a number, got '10'"),
    ([10.0, 20.0], r"must be one number, got shape \(2,\)"),
], ids=["text", "array"])
def test_a_map_takes_one_total_energy(total_energy, reason):
    scenario = Scenario(2, None, None, 20.0, None)
    with pytest.raises(DomainError, match=f"^total_energy {reason}$"):
        RegionSpec(scenario, "eta_t", (0.25, 0.5), "eta_b", (0.75,), "idler_free", total_energy)


def test_the_bounds_compute_with_the_values_they_checked():
    assert perr_upper(0.5, [2, 3]).tolist() == [perr_upper(0.5, 2), perr_upper(0.5, 3)]
    assert perr_lower(0.5, 3, [1.0, 2.0]).tolist() == [perr_lower(0.5, 3, 1.0),
                                                       perr_lower(0.5, 3, 2.0)]
    for bound in (perr_upper, perr_lower):
        with pytest.raises(DomainError, match="^m must be a number, got '3'$"):
            bound(0.5, "3")
        with pytest.raises(DomainError, match="^m_probes must be a number, got '2'$"):
            bound(0.5, 3, "2")
