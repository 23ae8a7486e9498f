"""Command-line front end.

Subcommands: ``fidelity`` (single-point queries), ``sweep`` (1-D grids),
``region`` (2-D advantage maps), ``kappa`` (mixing optimization) and
``figure`` (canned parameter sets for the standard plots).  Tables go to
stdout or ``--output`` as CSV or JSON; identical invocations produce
byte-identical output at any parallelism degree.

Exit codes: 0 on success, 2 for usage or domain errors (the message names
the offending flag), 1 for internal numeric failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import signal
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .bounds import perr_lower, perr_upper
from .errors import CpfError, DomainError, check
from .protocols import Scenario, listed_protocols
from .scan import (
    PROTOCOL_IDS,
    QUANTUM_PROTOCOLS,
    REGION_AXES,
    SWEEP_VARIABLES,
    RegionSpec,
    output_fidelity,
    region_scan,
    _fidelity,
    _sweep_columns,
)

_FLOAT_FMT = "{:.11e}"  # 12 significant digits; a double needs 17 to round-trip
_BLOCK = 1024  # rows made and rendered at a time


class _Rows:
    """A table's rows, kept as its raveled NumPy columns.  ``len()`` counts
    the rows, and a slice is a list of row tuples of plain Python values
    (None, bool, int, str or float; a masked cell is None), so rows exist
    only a block at a time."""

    def __init__(self, *columns):
        self.columns = [np.ravel(c) for c in columns]

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, rows: slice) -> list:
        return list(zip(*(c[rows].tolist() for c in self.columns)))


@dataclass
class Table:
    """One result table: what gets serialized.  ``rows`` is a :class:`_Rows`;
    the renderers take its cells as they are."""

    command: str
    parameters: dict
    columns: list
    rows: _Rows
    fidelity_columns: tuple = ()
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------- parsing
#
# Each subcommand's keys and their defaults.  A key is at once a flag
# (_flag) and a config-file key.  argparse only splits argv; every value,
# from the command line or a config file, is parsed by _num, _integer or
# _choice below.

_POINT = {"m": 2, "eta_b": None, "eta_t": None, "n_s": None}
_SCENARIO = {**_POINT, "m_probes": 1.0}
_COMMON = {"output": None, "format": "csv", "db": False}
_KEYS = {
    "fidelity": {**_SCENARIO, "kappa": None, "protocol": "all", "path": "auto", **_COMMON},
    "sweep": {
        **_SCENARIO, "kappa": None, "variable": None, "start": None, "stop": None,
        "points": 201, "log": False, "protocols": "classical,bipartite,idler_free", **_COMMON,
    },
    "region": {
        **_SCENARIO, "x": "eta_t", "x_start": 0.0, "x_stop": 1.0, "x_points": 201,
        "y": "eta_b", "y_start": 0.0, "y_stop": 1.0, "y_points": 201,
        "quantum": "idler_free", "total_energy": None, "workers": None, **_COMMON,
    },
    "kappa": {**_POINT, **_COMMON},
    "figure": {"id": None, "resolution": 201, "workers": None, **_COMMON},
}
_SWITCHES = ("db", "log")  # flags without a value; config files give true, false or null

_CHOICES = {
    "protocol": PROTOCOL_IDS + ("all",), "path": ("auto", "direct"), "format": ("csv", "json"),
    "variable": SWEEP_VARIABLES, "x": REGION_AXES, "y": REGION_AXES, "quantum": QUANTUM_PROTOCOLS,
}

_COMMAND_HELP = {
    "fidelity": "output fidelity at a single parameter point",
    "sweep": "fidelities along a 1-D parameter grid",
    "region": "2-D advantage map (quantum UB vs classical LB)",
    "kappa": "optimal mixing fraction at one parameter point",
    "figure": "emit the data behind a standard figure",
}
_HELP = {
    "config": "JSON file mirroring the flags; flags override it",
    "m": "number of boxes", "eta_b": "background transmissivity",
    "eta_t": "target transmissivity", "n_s": "mean photons per probe mode",
    "m_probes": "probing rounds M", "kappa": "mixing fraction for the mixed protocol",
    "protocol": "protocol",
    "path": "evaluation path; direct needs --kappa for the mixed protocol",
    "variable": "parameter to vary", "start": "first grid value", "stop": "last grid value",
    "points": "grid size", "log": "log-spaced grid (start, stop > 0)",
    "protocols": "comma list from " + ", ".join(PROTOCOL_IDS),
    "x": "x axis parameter", "x_start": "x axis start", "x_stop": "x axis stop",
    "x_points": "x axis size", "y": "y axis parameter", "y_start": "y axis start",
    "y_stop": "y axis stop", "y_points": "y axis size",
    "quantum": "protocol for the upper bound",
    "total_energy": "fix m*M*ns to this budget; rounds per cell become total/(m*ns)",
    "workers": "threads over a map's chunks of cells (default 1)",
    "id": "figure number (1-8)", "resolution": "grid points per axis",
    "output": "write the table here instead of stdout", "format": "table format",
    "db": "append decibel (10 log10 F) companions to fidelity columns",
}


def _flag(key: str) -> str:
    return "--" + {"n_s": "ns"}.get(key, key.replace("_", "-"))


def _help(key: str, default) -> str:
    text = _HELP[key]
    if key in _CHOICES:
        text += ": one of " + ", ".join(_CHOICES[key])
    if default is not None and key not in _SWITCHES:
        text += f" (default {default})"
    return text


# one parser per process: building it takes some 20 times as long as a parse,
# and parsing leaves it as it was
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # no abbreviated flags: config files take full keys only, and a new key
    # sharing a prefix would change what an abbreviation means
    parser = argparse.ArgumentParser(
        prog="cpfkit",
        description="Output fidelities, error bounds and advantage maps for "
        "channel position finding on pure-loss channels.",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, keys in _KEYS.items():
        sub = subs.add_parser(command, help=_COMMAND_HELP[command], allow_abbrev=False)
        sub.add_argument("--config", help=_HELP["config"])
        for key, default in keys.items():
            names = (_flag(key), "-o") if key == "output" else (_flag(key),)
            switch = {"action": "store_true"} if key in _SWITCHES else {}
            sub.add_argument(*names, dest=key, default=None, help=_help(key, default), **switch)
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """Layer the table's defaults, then the config file, then explicit flags."""
    merged = dict(_KEYS[args.command])
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise DomainError(f"names {args.config}, which cannot be read: {exc}",
                              "config") from exc
        except json.JSONDecodeError as exc:
            raise DomainError(f"names {args.config}, which is not valid JSON: {exc}",
                              "config") from exc
        if not isinstance(loaded, dict):
            raise DomainError("must hold a JSON object of flag values", "config")
        # keys mirror the flags: "ns" and dashed spellings map to dest names
        loaded = {
            {"ns": "n_s"}.get(k.replace("-", "_"), k.replace("-", "_")): v
            for k, v in loaded.items()
        }
        unknown = sorted(set(loaded) - set(merged))
        if unknown:
            raise DomainError(f"has keys {unknown} not recognised by '{args.command}'", "config")
        merged.update(loaded)
        for key in _SWITCHES:
            if not isinstance(merged.get(key), (bool, type(None))):
                raise DomainError(f"takes true, false or null, got {merged[key]!r}", key)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:  # None means "not given on the command line"
            merged[key] = value
    return merged


# ----------------------------------------------------------------- values
#
# Values are only parsed here.  Their domains are checked by errors.check,
# in a Scenario or a RegionSpec or, for grids, under the flag's own field;
# main() turns the field a DomainError names into the flag.


def _num(p: dict, key: str, required: bool = True) -> float | None:
    value = p.get(key)
    if value is None:
        if required:
            raise DomainError("is required", key)
        return None
    try:
        if isinstance(value, bool):  # a JSON true is no number, though float() reads 1
            raise TypeError
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"expects a number, got {value!r}", key) from None


def _integer(p: dict, key: str, minimum: int, required: bool = True) -> int | None:
    number = _num(p, key, required)
    if number is None:
        return None
    if not number.is_integer():
        raise DomainError(f"must be an integer, got {p[key]}", key)
    if number < minimum:
        raise DomainError(f"must be at least {minimum}, got {int(number)}", key)
    return int(number)


def _choice(p: dict, key: str) -> str:
    value = p.get(key)
    if value is None:
        raise DomainError("is required", key)
    if value not in _CHOICES[key]:
        raise DomainError(f"must be one of {', '.join(_CHOICES[key])}, got {value!r}", key)
    return value


def _scenario_from(p: dict, *grid: str) -> Scenario:
    """The Scenario of the flags.  A field named in ``grid`` is None, as a
    grid sets it; a field the command has no key for keeps its default."""
    return Scenario(**{
        k: None if k in grid else _num(p, k, required=k != "kappa")
        for k in ("eta_b", "eta_t", "n_s", "m_probes", "m", "kappa") if k in p
    })


def _grid(p: dict, prefix: str, variable: str, logspace: bool = False) -> tuple:
    """(start, stop, points, values) of the grid of ``variable`` that the
    flags <prefix>start, <prefix>stop and <prefix>points set."""
    start, stop = (float(check(variable, _num(p, prefix + end), prefix + end))
                   for end in ("start", "stop"))
    points = _integer(p, prefix + "points", 1)
    if not logspace:
        values = np.linspace(start, stop, points)
    elif start > 0 and stop > 0:
        values = np.geomspace(start, stop, points)
    else:
        raise DomainError("needs positive --start and --stop", "log")
    return start, stop, points, values


# --------------------------------------------------------- table builders


def _fidelity_table(p: dict) -> Table:
    scenario = _scenario_from(p)
    protocol, path = _choice(p, "protocol"), _choice(p, "path")
    names = listed_protocols(scenario.m) if protocol == "all" else [protocol]

    columns = ["protocol", "fidelity", "kappa", "path", "min_symplectic_eigenvalue",
               "perr_upper", "perr_lower"]
    rows, notes = [], []
    for name in names:
        row_path = path
        if name == "mixed" and scenario.kappa is None and path == "direct":
            notes.append("--path direct needs --kappa for the mixed protocol; "
                         "its row is optimized on the auto path")
            row_path = "auto"
        report = output_fidelity(scenario, name, row_path)
        notes.extend(report.warnings)
        rows.append([name, report.value, report.kappa, report.path,
                     report.diagnostics.get("min_symplectic_eigenvalue")])

    # the bounds of the whole fidelity column at once
    values, m, rounds = np.array([row[1] for row in rows]), scenario.m, scenario.m_probes
    rows = _Rows(*zip(*rows), perr_upper(values, m, rounds), perr_lower(values, m, rounds))
    parameters = {**asdict(scenario), "protocol": protocol, "path": path}
    return Table("fidelity", parameters, columns, rows, ("fidelity",), notes)


def _sweep_table(p: dict) -> Table:
    variable = _choice(p, "variable")
    logspace = bool(p.get("log"))
    start, stop, points, values = _grid(p, "", variable, logspace)
    # between valid endpoints only an m grid can leave its domain, at
    # non-integers; a map's axes are checked by its RegionSpec
    check(variable, values, "start")
    scenario = _scenario_from(p, variable)
    protocols = [s.strip() for s in str(p["protocols"]).split(",") if s.strip()]
    if not protocols:
        raise DomainError("needs at least one protocol", "protocols")
    unknown = [s for s in protocols if s not in PROTOCOL_IDS]
    if unknown:
        raise DomainError(f"has unknown entries {unknown}; valid: {list(PROTOCOL_IDS)}",
                          "protocols")
    grids = _sweep_columns(scenario, variable, values, protocols)
    # grid-major: every protocol at a value, in canonical order, then the next value
    shape = (values.size, len(grids))
    kappa = np.full(shape, None)
    for j, (_, kappas) in enumerate(grids.values()):
        if kappas is not None:
            kappa[:, j] = kappas.tolist()
    rows = _Rows(np.full(shape, variable), np.broadcast_to(values[:, None], shape),
                 np.broadcast_to(list(grids), shape),
                 np.stack([fids for fids, _ in grids.values()], axis=1), kappa)
    columns = ["variable", "value", "protocol", "fidelity", "kappa"]
    parameters = {
        **asdict(scenario), "variable": variable, "start": start, "stop": stop, "points": points,
        "log": logspace, "protocols": protocols,
    }
    return Table("sweep", parameters, columns, rows, ("fidelity",))


def _region_rows(grid) -> tuple:
    """(columns, rows) of a map, y-major; the rounds per cell are a column
    under a total-energy budget, and kappa_star for the mixed protocol."""
    names = ["f_quantum", "f_classical", "ub_quantum", "lb_classical", "log10_ratio",
             "certificate"]
    if grid.metadata["total_energy"] is not None:
        names.append("m_probes")
    if grid.kappa_star is not None:
        names.append("kappa_star")
    x, y = np.meshgrid(grid.x_values, grid.y_values)
    return [grid.x_name, grid.y_name, *names], _Rows(x, y, *(getattr(grid, n) for n in names))


def _region_table(p: dict) -> Table:
    x_name, y_name = _choice(p, "x"), _choice(p, "y")
    if x_name == y_name:
        raise DomainError("and --y must name different parameters", "x")
    quantum = _choice(p, "quantum")
    total_energy = _num(p, "total_energy", required=False)
    workers = _integer(p, "workers", 1, required=False)
    x_values, y_values = _grid(p, "x_", x_name)[3], _grid(p, "y_", y_name)[3]
    spec = RegionSpec(_scenario_from(p, x_name, y_name), x_name, x_values, y_name, y_values,
                      quantum, total_energy)
    grid = region_scan(spec, workers)
    columns, rows = _region_rows(grid)
    parameters = {**grid.metadata, "x": x_name, "y": y_name, "workers": workers}
    return Table("region", parameters, columns, rows, ("f_quantum", "f_classical"))


def _kappa_table(p: dict) -> Table:
    scenario, names = _scenario_from(p), ("m", "eta_b", "eta_t", "n_s")
    point = [getattr(scenario, name) for name in names]  # checked by the Scenario
    f_mix, kappa, _ = _fidelity("mixed", *point)
    f_class, f_if = (float(_fidelity(name, *point)[0]) for name in ("classical", "idler_free"))
    columns = [*names, "kappa_star", "fidelity", "f_classical", "f_idler_free"]
    rows = _Rows(*point, float(kappa), float(f_mix), f_class, f_if)
    return Table("kappa", dict(zip(names, point)), columns, rows,
                 ("fidelity", "f_classical", "f_idler_free"))


# ----------------------------------------------------------------- figures


_CLOSED = ("classical", "bipartite", "idler_free")
_WITH_REVERSED = _CLOSED + ("idler_free_reversed",)

# figures 1-5: scenario (None where the grid sets it, and for M, which no
# fidelity reads), swept variable, grid at a given resolution, and protocols
_SWEEP_FIGURES = {
    1: (Scenario(None, 0.2, 0.7, 1.0, None), "m", lambda res: range(2, 13), _WITH_REVERSED),
    2: (Scenario(3, 0.95, None, 50.0, None), "eta_t", lambda res: np.linspace(0.0, 1.0, res),
        _WITH_REVERSED),
    3: (Scenario(3, 0.05, None, 50.0, None), "eta_t", lambda res: np.linspace(0.0, 1.0, res),
        _WITH_REVERSED),
    4: (Scenario(2, 0.9, 0.95, None, None), "n_s", lambda res: np.logspace(0.0, 5.0, res),
        _CLOSED),
    5: (Scenario(2, 0.55, None, 50.0, None), "eta_t", lambda res: np.linspace(0.0, 1.0, res),
        _CLOSED + ("mixed",)),
}


def _given(items: dict) -> dict:
    """A figure's parameters: ``items`` without the None values."""
    return {k: v for k, v in items.items() if v is not None}


def _sweep_figure(fig_id: int, resolution: int, workers) -> Table:
    """One row per grid value: the variable, f_<protocol> per protocol, and
    kappa_star when the mixed protocol is among them."""
    scenario, variable, grid, protocols = _SWEEP_FIGURES[fig_id]
    values = np.asarray(grid(resolution), dtype=float)
    columns = _sweep_columns(scenario, variable, values, protocols)
    fidelity_columns = tuple(f"f_{p}" for p in columns)
    names, data = [variable, *fidelity_columns], [fids for fids, _ in columns.values()]
    if "mixed" in columns:
        names.append("kappa_star")
        data.append(columns["mixed"][1])
    axis = values.astype(int) if variable == "m" else values
    parameters = _given({"id": fig_id, **asdict(scenario),
                         "resolution": None if variable == "m" else resolution})
    return Table("figure", parameters, names, _Rows(axis, *data), fidelity_columns)


# figures 6 and 8, idler-free maps over eta_t in [0, 1]: scenario (None where
# an axis sets it, and M under a budget), y axis and its range, energy budget
_REGION_FIGURES = {
    6: (Scenario(2, None, None, 20.0, 20.0), "eta_b", (0.0, 1.0), None),
    8: (Scenario(3, 1.0, None, None, None), "n_s", (1.0, 50.0), 1800.0),
}


def _region_figure(fig_id: int, resolution: int, workers) -> Table:
    """An idler-free map from its row of :data:`_REGION_FIGURES`."""
    scenario, y_name, y_range, budget = _REGION_FIGURES[fig_id]
    x, y = np.linspace(0.0, 1.0, resolution), np.linspace(*y_range, resolution)
    grid = region_scan(RegionSpec(scenario, "eta_t", x, y_name, y, "idler_free", budget), workers)
    columns, rows = _region_rows(grid)
    parameters = _given({"id": fig_id, **asdict(scenario), "quantum": "idler_free",
                         "total_energy": budget, "resolution": resolution})
    return Table("figure", parameters, columns, rows, ("f_quantum", "f_classical"))


def _figure_7(fig_id: int, resolution: int, workers) -> Table:
    scenario = Scenario(2, None, None, 20.0)
    grid = np.linspace(0.0, 1.0, resolution)
    maps = [region_scan(RegionSpec(scenario, "eta_t", grid, "eta_b", grid, protocol), workers)
            for protocol in ("idler_free", "bipartite", "mixed")]
    x, y = np.meshgrid(grid, grid)
    rows = _Rows(x, y, *(g.certificate for g in maps), maps[-1].kappa_star)
    return Table(
        "figure", {"id": 7, "m": scenario.m, "n_s": scenario.n_s, "resolution": resolution},
        ["eta_t", "eta_b", "cert_idler_free", "cert_bipartite", "cert_mixed", "kappa_star"],
        rows, (),
    )


_FIGURES = {**dict.fromkeys(_SWEEP_FIGURES, _sweep_figure), 6: _region_figure, 7: _figure_7,
            8: _region_figure}


def _figure_table(p: dict) -> Table:
    fig_id = _integer(p, "id", 1)
    if fig_id not in _FIGURES:
        raise DomainError(f"must lie in 1..8, got {fig_id}", "id")
    resolution = _integer(p, "resolution", 2)
    workers = _integer(p, "workers", 1, required=False)
    if fig_id == 4:
        p["db"] = True  # that figure's axis is decibels
    return _FIGURES[fig_id](fig_id, resolution, workers)


# ------------------------------------------------------------- rendering


def _db(column) -> np.ma.MaskedArray:
    """10 log10 of a fidelity column, masked (a None cell) where F is not
    positive: at 0, -0, NaN and below."""
    values = np.asarray(column, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.ma.masked_array(10.0 * np.log10(values), mask=~(values > 0.0))


def _apply_db(table: Table) -> None:
    indices = [table.columns.index(c) for c in table.fidelity_columns]
    table.columns = [*table.columns, *(f"{table.columns[i]}_db" for i in indices)]
    columns = table.rows.columns
    table.rows = _Rows(*columns, *(_db(columns[i]) for i in indices))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, str)):
        return str(value)
    return _FLOAT_FMT.format(value)


def _blocks(rows):
    """``rows`` in consecutive lists of up to _BLOCK row tuples."""
    return (rows[start:start + _BLOCK] for start in range(0, len(rows), _BLOCK))


def _render_csv(table: Table) -> str:
    # block by block, each column by column, so that an all-float column is
    # formatted without a Python call per cell
    parts = [",".join(table.columns)]
    for start in range(0, len(table.rows), _BLOCK):
        block = (c[start:start + _BLOCK].tolist() for c in table.rows.columns)
        cells = [map(_FLOAT_FMT.format, column) if set(map(type, column)) == {float}
                 else map(_csv_cell, column) for column in block]
        parts.append("\n".join(map(",".join, zip(*cells))))
    parts.append("")  # the text ends with a newline
    return "\n".join(parts)


def _finite_or_null(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


# what the encoder writes between two rows when every cell is on its own line
# six spaces in, and what the indented document has there
_ROW_BREAK = "],\n      ["
_INDENTED_ROW_BREAK = "\n    ],\n    [\n      "


def _json_rows(rows: list) -> str:
    """The rows as ``json.dumps(..., indent=2)`` writes them inside a table's
    document, without the outer brackets.  json uses its C encoder only
    without ``indent``, so they are encoded in one such call with each cell
    on its own line, and the row boundaries re-indented: an encoded string
    never holds a raw newline."""
    try:
        body = json.dumps(rows, separators=(",\n      ", ": "), allow_nan=False)
    except ValueError:  # JSON has no token for a non-finite number; write null
        body = json.dumps([list(map(_finite_or_null, row)) for row in rows],
                          separators=(",\n      ", ": "), allow_nan=False)
    return body[2:-2].replace(_ROW_BREAK, _INDENTED_ROW_BREAK)


def _render_json(table: Table) -> str:
    """``json.dumps(document, indent=2, sort_keys=True)`` with null for every
    non-finite float, a block of rows at a time."""
    head = json.dumps({"command": table.command, "columns": table.columns, "rows": [],
                       "parameters": {k: _finite_or_null(v) for k, v in table.parameters.items()}},
                      indent=2, sort_keys=True, allow_nan=False)
    if not len(table.rows):
        return head + "\n"
    # "rows" sorts last, so the head ends with its empty list
    parts = [head[:-4], "[\n    [\n      "]
    for block in _blocks(table.rows):
        parts += [_json_rows(block), _INDENTED_ROW_BREAK]
    parts[-1] = "\n    ]\n  ]\n}\n"
    return "".join(parts)


def _emit(text: str, output) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    if not isinstance(output, str):
        raise DomainError(f"expects a file path, got {output!r}", "output")
    try:
        Path(output).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise DomainError(f"names {output}, which cannot be written: {exc}", "output") from exc


_BUILDERS = {
    "fidelity": _fidelity_table,
    "sweep": _sweep_table,
    "region": _region_table,
    "kappa": _kappa_table,
    "figure": _figure_table,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code or 0)
    try:
        params = _merge_config(args)
        fmt = _choice(params, "format")
        table = _BUILDERS[args.command](params)
        if params.get("db"):
            _apply_db(table)
        for note in table.notes:
            print(f"warning: {note}", file=sys.stderr)
        _emit(_render_csv(table) if fmt == "csv" else _render_json(table),
              params.get("output"))
    except DomainError as exc:
        message = exc.reason if exc.field is None else f"{_flag(exc.field)} {exc.reason}"
        print(f"error: {message}", file=sys.stderr)
        return 2
    except (CpfError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + signal.SIGPIPE
    raise SystemExit(code)


if __name__ == "__main__":
    run()
