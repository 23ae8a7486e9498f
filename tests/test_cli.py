"""Command-line contract: row counts, exit codes, formats, determinism."""

import json
import re
from importlib import resources

import jsonschema
import numpy as np
import pytest

from cpfkit.cli import main

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


def test_figure_deterministic_across_worker_counts(capsys, monkeypatch):
    monkeypatch.setenv("CPFKIT_WORKERS", "1")
    _, serial, _ = run_cli(capsys, "figure", "--id", "6", "--resolution", "15")
    monkeypatch.setenv("CPFKIT_WORKERS", "5")
    _, threaded, _ = run_cli(capsys, "figure", "--id", "6", "--resolution", "15")
    assert serial == threaded


@pytest.mark.parametrize(
    "argv",
    [("figure", "--id", "6", "--resolution", "3"),
     ("region", "--x-points", "3", "--y-points", "2", "--ns", "5")],
)
def test_bad_workers_env_var_exits_two(capsys, monkeypatch, argv):
    monkeypatch.setenv("CPFKIT_WORKERS", "abc")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "CPFKIT_WORKERS" in err and "Traceback" not in err


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


def test_json_output_validates_against_schema(capsys):
    schema = load_schema()
    for argv in (
        ["fidelity", "--m", "2", "--eta-b", "0.9", "--eta-t", "0.95", "--ns", "50",
         "--format", "json"],
        ["region", "--x", "eta_t", "--x-start", "0.8", "--x-stop", "0.9",
         "--x-points", "2", "--y", "eta_b", "--y-start", "0.5", "--y-stop", "0.6",
         "--y-points", "2", "--ns", "20", "--format", "json"],
        ["kappa", "--m", "2", "--eta-b", "0.55", "--eta-t", "0.9", "--ns", "50",
         "--format", "json"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        document = json.loads(out)
        jsonschema.validate(document, schema)
        assert document["command"] == argv[0]
        assert len(document["rows"][0]) == len(document["columns"])


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
