"""Command-line contract: row counts, exit codes, formats, determinism."""

import json
import re
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from cpfkit import Scenario, cli, output_fidelity
from cpfkit.cli import main
from helpers import counting_checks

FLOAT_CELL = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def load_schema():
    path = resources.files("cpfkit") / "schemas" / "result.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- fidelity


@pytest.mark.parametrize("path", ["auto", "direct"])
@pytest.mark.parametrize("kappa", [None, 0.4])
@pytest.mark.parametrize("m", [2, 3])
def test_every_fidelity_row_is_its_protocols_report(m, kappa, path, capsys):
    # one output_fidelity call per row: value, kappa, path and min symplectic
    # eigenvalue are the report's; a mixed row without --kappa runs on the
    # auto path, also under --path direct
    argv = ["fidelity", "--protocol", "all", "--m", str(m), "--eta-b", "0.3", "--eta-t", "0.5",
            "--ns", "2", "--path", path, "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, *([] if kappa is None else ["--kappa", str(kappa)]))
    assert code == 0
    rows = json.loads(out)["rows"]
    scenario = Scenario(m, 0.3, 0.5, 2.0, kappa=kappa)
    assert [row[0] for row in rows] == list(cli.listed_protocols(m))
    for name, value, row_kappa, row_path, min_nu, *_ in rows:
        auto = name == "mixed" and kappa is None
        report = output_fidelity(scenario, name, "auto" if auto else path)
        assert [value, row_kappa, row_path] == [report.value, report.kappa, report.path], name
        assert min_nu == report.diagnostics.get("min_symplectic_eigenvalue"), name
    assert (rows[-1][3] == "optimized") == (kappa is None)


def test_fidelity_all_binary_has_four_rows(capsys):
    code, out, _ = run_cli(
        capsys, "fidelity", "--m", "2", "--eta-b", "0.9", "--eta-t", "0.95",
        "--ns", "50", "--protocol", "all",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:2] == ["protocol", "fidelity"]
    assert [r[0] for r in rows] == ["classical", "bipartite", "idler_free", "mixed"]


def test_fidelity_all_includes_reversed_beyond_two_boxes(capsys):
    code, out, _ = run_cli(
        capsys, "fidelity", "--m", "3", "--eta-b", "0.9", "--eta-t", "0.95",
        "--ns", "50", "--protocol", "all",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[0] for r in rows] == [
        "classical", "bipartite", "idler_free", "idler_free_reversed", "mixed",
    ]


_MIXED_POINT = ("fidelity", "--m", "3", "--eta-b", "0.55", "--eta-t", "0.9", "--ns", "5")


@pytest.mark.parametrize("extra, noted", [
    (("--protocol", "mixed", "--path", "direct"), True),
    (("--protocol", "all", "--path", "direct"), True),
    (("--protocol", "mixed", "--path", "direct", "--kappa", "0.3"), False),
    (("--protocol", "mixed"), False),
    (("--protocol", "classical", "--path", "direct"), False),
])
def test_direct_path_without_kappa_notes_the_optimized_mixed_row(capsys, extra, noted):
    code, out, err = run_cli(capsys, *_MIXED_POINT, *extra)
    assert code == 0
    assert ("warning: --path direct needs --kappa" in err) == noted
    if noted:  # the row itself is the optimized one, as without --path direct
        _, rows = parse_csv(out)
        assert rows[-1][0] == "mixed" and rows[-1][3] == "optimized"


def test_fidelity_rejects_eta_out_of_range(capsys):
    code, _, err = run_cli(
        capsys, "fidelity", "--m", "2", "--eta-b", "0.9", "--eta-t", "1.2", "--ns", "50",
    )
    assert code == 2
    assert "--eta-t" in err


def test_fidelity_requires_parameters(capsys):
    code, _, err = run_cli(capsys, "fidelity", "--m", "2", "--eta-t", "0.9", "--ns", "50")
    assert code == 2
    assert "--eta-b" in err


def test_mixed_kappa_zero_equals_classical(capsys):
    args = ["--m", "2", "--eta-b", "0.9", "--eta-t", "0.95", "--ns", "50"]
    _, out_mixed, _ = run_cli(
        capsys, "fidelity", *args, "--protocol", "mixed", "--kappa", "0"
    )
    _, out_classical, _ = run_cli(capsys, "fidelity", *args, "--protocol", "classical")
    header, [mixed_row] = parse_csv(out_mixed)
    _, [classical_row] = parse_csv(out_classical)
    for column in ("fidelity", "perr_upper", "perr_lower"):
        i = header.index(column)
        assert mixed_row[i] == classical_row[i]


def test_csv_float_cells_have_twelve_significant_digits(capsys):
    _, out, _ = run_cli(
        capsys, "fidelity", "--m", "2", "--eta-b", "0.9", "--eta-t", "0.95",
        "--ns", "50", "--protocol", "classical",
    )
    header, rows = parse_csv(out)
    cell = rows[0][header.index("fidelity")]
    assert FLOAT_CELL.match(cell), cell


def test_db_column_appended(capsys):
    code, out, _ = run_cli(
        capsys, "fidelity", "--m", "2", "--eta-b", "0.9", "--eta-t", "0.95",
        "--ns", "50", "--protocol", "classical", "--db",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[-1] == "fidelity_db"
    fidelity = float(rows[0][header.index("fidelity")])
    decibels = float(rows[0][header.index("fidelity_db")])
    assert decibels == pytest.approx(10.0 * np.log10(fidelity), rel=1e-9)


# ------------------------------------------------------------------ figure


def test_figure_one_rows_and_columns(capsys):
    code, out, _ = run_cli(capsys, "figure", "--id", "1")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "m", "f_classical", "f_bipartite", "f_idler_free", "f_idler_free_reversed",
    ]
    assert [r[0] for r in rows] == [str(m) for m in range(2, 13)]


def test_figure_nine_rejected(capsys):
    code, _, _ = run_cli(capsys, "figure", "--id", "9")
    assert code == 2


def test_figure_four_is_in_decibels(capsys):
    code, out, _ = run_cli(capsys, "figure", "--id", "4", "--resolution", "5")
    assert code == 0
    header, _ = parse_csv(out)
    assert "f_classical_db" in header
    assert "f_bipartite_db" in header


def test_figure_five_mixed_dominates(capsys):
    code, out, _ = run_cli(capsys, "figure", "--id", "5", "--resolution", "11")
    assert code == 0
    header, rows = parse_csv(out)
    assert "f_mixed" in header and "kappa_star" in header
    for row in rows:
        f_mixed = float(row[header.index("f_mixed")])
        f_classical = float(row[header.index("f_classical")])
        f_idler_free = float(row[header.index("f_idler_free")])
        assert f_mixed <= min(f_classical, f_idler_free) + 1e-9


def test_figure_deterministic_across_worker_counts(capsys):
    argv = ("figure", "--id", "6", "--resolution", "15")
    _, serial, _ = run_cli(capsys, *argv, "--workers", "1")
    _, threaded, _ = run_cli(capsys, *argv, "--workers", "5")
    assert serial == threaded


@pytest.mark.parametrize(
    "argv",
    [("figure", "--id", "6", "--resolution", "3"),
     ("region", "--x-points", "3", "--y-points", "2", "--ns", "5")],
)
def test_workers_env_var_is_ignored(capsys, monkeypatch, argv):
    # --workers is the one worker knob; the environment does not set it
    monkeypatch.delenv("CPFKIT_WORKERS", raising=False)
    plain = run_cli(capsys, *argv)
    monkeypatch.setenv("CPFKIT_WORKERS", "abc")
    assert run_cli(capsys, *argv) == plain
    assert plain[0] == 0


# ----------------------------------------------------------- sweep, region


def test_sweep_single_point_row_count(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--variable", "eta_t", "--start", "0.5", "--stop", "0.5",
        "--points", "1", "--m", "2", "--eta-b", "0.9", "--ns", "50",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["variable", "value", "protocol", "fidelity", "kappa"]
    assert len(rows) == 3  # default protocol list


def test_sweep_protocol_subset(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--variable", "n_s", "--start", "1", "--stop", "100",
        "--points", "3", "--log", "--m", "2", "--eta-b", "0.9", "--eta-t", "0.95",
        "--protocols", "classical",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 3
    assert all(r[2] == "classical" for r in rows)


def test_sweep_rejects_fractional_box_count(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--variable", "m", "--start", "2", "--stop", "3",
        "--points", "3", "--eta-b", "0.9", "--eta-t", "0.95", "--ns", "50",
    )
    assert code == 2
    assert "integer" in err


def test_log_sweep_ends_at_the_typed_endpoints(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--variable", "n_s", "--log", "--start", "0.3", "--stop", "700",
        "--points", "5", "--m", "2", "--eta-b", "0.9", "--eta-t", "0.95",
        "--protocols", "classical", "--format", "json",
    )
    assert code == 0
    values = [row[1] for row in json.loads(out)["rows"]]
    assert (values[0], values[-1]) == (0.3, 700.0)


def test_region_checks_each_axis_once(capsys):
    with counting_checks(callers=True) as calls:
        code, _, _ = run_cli(
            capsys, "region", "--x", "eta_t", "--x-points", "4", "--y", "eta_b",
            "--y-start", "0.1", "--y-stop", "0.9", "--y-points", "3", "--ns", "20",
            "--m", "3", "--quantum", "idler_free",
        )
    assert code == 0
    for axis in ("eta_t", "eta_b"):
        # the command line checks the axis's two endpoints, its RegionSpec the
        # whole axis
        callers = [caller for caller, field in calls if field == axis]
        assert sum(caller.startswith("cpfkit.cli.") for caller in callers) == 2
        assert callers.count("cpfkit.scan.RegionSpec.__post_init__") == 1


def test_region_columns_and_certificate_cells(capsys):
    code, out, _ = run_cli(
        capsys, "region", "--x", "eta_t", "--x-start", "0.8", "--x-stop", "1",
        "--x-points", "3", "--y", "n_s", "--y-start", "1", "--y-stop", "9",
        "--y-points", "2", "--m", "3", "--eta-b", "1", "--total-energy", "1800",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == [
        "eta_t", "n_s", "f_quantum", "f_classical", "ub_quantum", "lb_classical",
        "log10_ratio", "certificate", "m_probes",
    ]
    assert len(rows) == 6
    assert {r[header.index("certificate")] for r in rows} <= {"0", "1"}


def test_region_mixed_appends_kappa(capsys):
    code, out, _ = run_cli(
        capsys, "region", "--x", "eta_t", "--x-start", "0.85", "--x-stop", "0.95",
        "--x-points", "2", "--y", "eta_b", "--y-start", "0.55", "--y-stop", "0.55",
        "--y-points", "1", "--m", "2", "--ns", "50", "--quantum", "mixed",
    )
    assert code == 0
    header, _ = parse_csv(out)
    assert header[-1] == "kappa_star"


@pytest.mark.parametrize("argv, unset, kept", [
    (["region", "--x", "eta_t", "--y", "eta_b", "--x-points", "2", "--y-points", "2",
      "--eta-b", "0.7", "--ns", "20"], ("eta_t", "eta_b"), {"n_s": 20.0}),
    (["region", "--x", "eta_t", "--y", "n_s", "--x-points", "2", "--y-start", "1",
      "--y-points", "2", "--eta-b", "0.9"], ("eta_t", "n_s"), {"eta_b": 0.9}),
    (["sweep", "--variable", "eta_b", "--start", "0", "--stop", "1", "--points", "3",
      "--eta-t", "0.5", "--ns", "2"], ("eta_b",), {"eta_t": 0.5, "n_s": 2.0}),
    (["sweep", "--variable", "m", "--start", "2", "--stop", "4", "--points", "3",
      "--m", "7", "--eta-b", "0.5", "--eta-t", "0.9", "--ns", "2"], ("m",), {"eta_b": 0.5}),
    (["sweep", "--variable", "m_probes", "--start", "1", "--stop", "4", "--points", "3",
      "--m-probes", "9", "--eta-b", "0.5", "--eta-t", "0.9", "--ns", "2"], ("m_probes",),
     {"m": 2}),
])
def test_json_parameters_report_null_for_grid_fields(capsys, argv, unset, kept):
    # a field a grid sets has no single value; the rest echo what was given
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    parameters = json.loads(out)["parameters"]
    assert {k: parameters[k] for k in (*unset, *kept)} == {**dict.fromkeys(unset), **kept}


def test_kappa_command_reports_optimum(capsys):
    code, out, _ = run_cli(
        capsys, "kappa", "--m", "2", "--eta-b", "0.55", "--eta-t", "0.9", "--ns", "50",
    )
    assert code == 0
    header, [row] = parse_csv(out)
    assert "kappa_star" in header
    fidelity = float(row[header.index("fidelity")])
    f_classical = float(row[header.index("f_classical")])
    f_idler_free = float(row[header.index("f_idler_free")])
    assert fidelity <= min(f_classical, f_idler_free) + 1e-12


# ------------------------------------------------------------------- JSON


# every JSON document the goldens pin, as the command line prints it
_JSON_GOLDENS = [case for case in json.loads(
    (Path(__file__).parent / "data" / "cli_goldens.json").read_text(encoding="utf-8"))["cases"]
    if case["argv"][-2:] == ["--format", "json"]]


@pytest.mark.parametrize("case", _JSON_GOLDENS, ids=lambda case: " ".join(case["argv"]))
def test_json_output_validates_against_schema(case):
    document = json.loads(case["stdout"])
    jsonschema.validate(document, load_schema())
    assert document["command"] == case["argv"][0]
    assert all(len(row) == len(document["columns"]) for row in document["rows"])


def test_json_preserves_booleans(capsys):
    _, out, _ = run_cli(
        capsys, "region", "--x", "eta_t", "--x-start", "0.8", "--x-stop", "0.9",
        "--x-points", "2", "--y", "eta_b", "--y-start", "0.5", "--y-stop", "0.6",
        "--y-points", "2", "--ns", "20", "--format", "json",
    )
    document = json.loads(out)
    certificate = document["columns"].index("certificate")
    assert all(isinstance(row[certificate], bool) for row in document["rows"])


# ------------------------------------------------------------ config files


def test_config_mirrors_flags(capsys, tmp_path):
    config = tmp_path / "point.json"
    config.write_text(json.dumps(
        {"m": 2, "eta_b": 0.9, "eta_t": 0.95, "ns": 50, "protocol": "classical"}
    ))
    code, from_config, _ = run_cli(capsys, "fidelity", "--config", str(config))
    assert code == 0
    _, from_flags, _ = run_cli(
        capsys, "fidelity", "--m", "2", "--eta-b", "0.9", "--eta-t", "0.95",
        "--ns", "50", "--protocol", "classical",
    )
    assert from_config == from_flags


def test_flags_override_config(capsys, tmp_path):
    config = tmp_path / "point.json"
    config.write_text(json.dumps(
        {"m": 2, "eta_b": 0.9, "eta_t": 0.95, "ns": 50, "protocol": "classical"}
    ))
    code, out, _ = run_cli(capsys, "fidelity", "--config", str(config), "--eta-t", "0.99")
    assert code == 0
    _, direct, _ = run_cli(
        capsys, "fidelity", "--m", "2", "--eta-b", "0.9", "--eta-t", "0.99",
        "--ns", "50", "--protocol", "classical",
    )
    assert out == direct


def test_config_rejects_unknown_keys(capsys, tmp_path):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"bogus_key": 1}))
    code, _, err = run_cli(capsys, "fidelity", "--config", str(config))
    assert code == 2
    assert "bogus_key" in err


def test_config_rejects_invalid_json(capsys, tmp_path):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    code, _, err = run_cli(capsys, "fidelity", "--config", str(config))
    assert code == 2
    assert "JSON" in err


def test_config_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "fidelity", "--config", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


def test_config_rejects_non_numeric_integer(capsys, tmp_path):
    config = tmp_path / "bad_m.json"
    config.write_text(json.dumps({"m": "abc"}))
    code, _, err = run_cli(
        capsys, "kappa", "--config", str(config),
        "--eta-b", "0.3", "--eta-t", "0.5", "--ns", "1",
    )
    assert code == 2
    assert "--m" in err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_numbers_rejected(capsys, value):
    code, _, err = run_cli(
        capsys, "kappa", "--m", "2", "--eta-b", "0.3", "--eta-t", "0.5", "--ns", value,
    )
    assert code == 2
    assert "--ns" in err


# ------------------------------------------------------------------ output


def test_output_file_written(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "fidelity", "--m", "2", "--eta-b", "0.9", "--eta-t", "0.95",
        "--ns", "50", "--protocol", "classical", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("protocol,fidelity")
    assert text.endswith("\n")


# ----------------------------------------------------- one parse path


_KAPPA_POINT = ["kappa", "--eta-b", "0.3", "--eta-t", "0.5", "--ns", "1"]
_SWEEP_GRID = ["sweep", "--variable", "eta_t", "--start", "0", "--stop", "1",
               "--eta-b", "0.5", "--ns", "1"]
_SMALL_MAP = ["region", "--y-points", "2", "--ns", "5"]


@pytest.mark.parametrize("argv, values", [
    (_KAPPA_POINT, {"m": 2.0}),
    (_SWEEP_GRID, {"points": 3.0}),
    ([*_SMALL_MAP, "--workers", "1"], {"x_points": 3.0}),
    ([*_SMALL_MAP, "--x-points", "3"], {"workers": 1.0}),
    (["figure"], {"id": 6.0, "resolution": 3.0}),
], ids=["m", "points", "x_points", "workers", "figure"])
def test_flag_and_config_take_the_same_values(capsys, tmp_path, argv, values):
    config = tmp_path / "values.json"
    config.write_text(json.dumps(values))
    flags = [a for key, value in values.items() for a in (cli._flag(key), str(value))]
    from_flags = run_cli(capsys, *argv, *flags)
    from_config = run_cli(capsys, *argv, "--config", str(config))
    assert from_flags[0] == from_config[0] == 0, from_flags[2]
    assert from_flags[1] == from_config[1]


@pytest.mark.parametrize("command", sorted(cli._KEYS))
def test_help_names_every_flag(capsys, command):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    for key in ("config", *cli._KEYS[command]):
        assert cli._flag(key) in out.split(), key


def test_direct_path_warning_goes_to_stderr_only(capsys):
    argv = ["fidelity", "--m", "3", "--eta-b", "1", "--eta-t", ".5", "--ns", "1e7",
            "--protocol", "bipartite", "--path", "direct"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("warning: output state ")
    assert captured.out == (
        "protocol,fidelity,kappa,path,min_symplectic_eigenvalue,perr_upper,perr_lower\n"
        "bipartite,1.24944721308e-10,,direct,9.76812980199e-01,2.49889442616e-10,"
        "5.20372779424e-21\n"
    )


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_figure_seven_certifies_no_cell_with_equal_etas(capsys):
    code, out, _ = run_cli(capsys, "figure", "--id", "7", "--resolution", "5")
    assert code == 0
    header, rows = parse_csv(out)
    diagonal = [dict(zip(header, r)) for r in rows if r[0] == r[1]]
    assert len(diagonal) == 5
    for row in diagonal:
        assert [row[c] for c in ("cert_idler_free", "cert_bipartite", "cert_mixed")] == ["0"] * 3
        assert float(row["kappa_star"]) == 0.0


@pytest.mark.parametrize("argv, column", [
    (["kappa", "--m", "2", "--eta-b", "1", "--eta-t", "1", "--ns", "1e8"], "fidelity"),
    (["region", "--quantum", "idler_free", "--m", "3", "--ns", "1e8", "--x-points", "3",
      "--y-points", "3"], "f_quantum"),
])
def test_equal_etas_at_large_energy_give_fidelity_one(capsys, argv, column):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    header, rows = parse_csv(out)
    first, second = header.index("eta_b"), header.index("eta_t")
    diagonal = [float(r[header.index(column)]) for r in rows if r[first] == r[second]]
    assert diagonal and diagonal == [1.0] * len(diagonal)


def test_map_with_overflowing_energy_prints_no_nan_and_no_warning(capsys):
    code, out, err = run_cli(capsys, "region", "--quantum", "bipartite", "--ns", "1e8",
                             "--m-probes", "1e300", "--x-points", "3", "--y-points", "3")
    assert (code, err) == (0, "")
    assert "nan" not in out



@pytest.mark.parametrize("argv, config, flag", [
    (["fidelity", "--m", "3", "--eta-b", ".3", "--eta-t", ".5", "--protocol", "classical"],
     {"ns": True}, "--ns"),
    (["figure"], {"id": True}, "--id"),
    (["region", "--ns", "5"], {"workers": True}, "--workers"),
    (["sweep", "--variable", "eta_t", "--start", "0", "--stop", "1", "--eta-b", ".5",
      "--ns", "1"], {"points": True}, "--points"),
])
def test_config_refuses_a_bool_number(capsys, tmp_path, argv, config, flag):
    # JSON true is no number, though float() reads it as 1
    path = tmp_path / "flag.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, *argv, "--config", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {flag} expects a number, got True\n"
