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
import json
import math
import os
import signal
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bounds import perr_lower, perr_upper
from .errors import CpfError, DomainError
from .probes import ProtocolKind
from .protocols import (
    Scenario,
    bipartite_fidelity,
    classical_fidelity,
    output_fidelity,
)
from .scan import (
    PROTOCOL_IDS,
    RegionSpec,
    SweepSpec,
    idler_free_fidelity,
    optimize_kappa,
    region_scan,
    sweep,
    _optimize_kappa_batch,
)

_FLOAT_FMT = "{:.11e}"  # 12 significant digits round-trips a double

_FIDELITY_PROTOCOLS = PROTOCOL_IDS + ("all",)
_SWEEP_VARIABLES = ("eta_b", "eta_t", "n_s", "m", "m_probes")
_REGION_AXES = ("eta_b", "eta_t", "n_s")
_QUANTUM_PROTOCOLS = ("idler_free", "bipartite", "mixed")


@dataclass
class Table:
    """One result table: what gets serialized."""

    command: str
    parameters: dict
    columns: list
    rows: list
    fidelity_columns: tuple = ()
    notes: list = field(default_factory=list)


# ---------------------------------------------------------------- parsing


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file mirroring the flags; flags override it")
    sub.add_argument("--output", "-o", help="write the table here instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), help="table format (default csv)")
    sub.add_argument(
        "--db",
        action="store_true",
        default=None,
        help="append decibel (10 log10 F) companions to fidelity columns",
    )


def _add_scenario(sub: argparse.ArgumentParser, kappa: bool = True) -> None:
    sub.add_argument("--m", type=int, help="number of boxes (default 2)")
    sub.add_argument("--eta-b", type=float, help="background transmissivity")
    sub.add_argument("--eta-t", type=float, help="target transmissivity")
    sub.add_argument("--ns", dest="n_s", type=float, help="mean photons per probe mode")
    sub.add_argument("--m-probes", type=float, help="probing rounds M (default 1)")
    if kappa:
        sub.add_argument("--kappa", type=float, help="mixing fraction for the mixed protocol")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpfkit",
        description="Output fidelities, error bounds and advantage maps for "
        "channel position finding on pure-loss channels.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    fid = subs.add_parser("fidelity", help="output fidelity at a single parameter point")
    _add_scenario(fid)
    fid.add_argument("--protocol", choices=_FIDELITY_PROTOCOLS, help="protocol or 'all'")
    fid.add_argument("--path", choices=("auto", "direct"), help="evaluation path")
    _add_common(fid)

    swp = subs.add_parser("sweep", help="fidelities along a 1-D parameter grid")
    _add_scenario(swp)
    swp.add_argument("--variable", choices=_SWEEP_VARIABLES, help="parameter to vary")
    swp.add_argument("--start", type=float, help="first grid value")
    swp.add_argument("--stop", type=float, help="last grid value")
    swp.add_argument("--points", type=int, help="grid size (default 201)")
    swp.add_argument(
        "--log", action="store_true", default=None, help="log-spaced grid (start, stop > 0)"
    )
    swp.add_argument(
        "--protocols",
        help="comma list from {%s} (default classical,bipartite,idler_free)"
        % ",".join(PROTOCOL_IDS),
    )
    _add_common(swp)

    reg = subs.add_parser("region", help="2-D advantage map (quantum UB vs classical LB)")
    _add_scenario(reg, kappa=False)
    reg.add_argument("--x", choices=_REGION_AXES, help="x axis parameter (default eta_t)")
    reg.add_argument("--x-start", type=float, help="x axis start (default 0)")
    reg.add_argument("--x-stop", type=float, help="x axis stop (default 1)")
    reg.add_argument("--x-points", type=int, help="x axis size (default 201)")
    reg.add_argument("--y", choices=_REGION_AXES, help="y axis parameter (default eta_b)")
    reg.add_argument("--y-start", type=float, help="y axis start (default 0)")
    reg.add_argument("--y-stop", type=float, help="y axis stop (default 1)")
    reg.add_argument("--y-points", type=int, help="y axis size (default 201)")
    reg.add_argument("--quantum", choices=_QUANTUM_PROTOCOLS, help="protocol for the upper bound")
    reg.add_argument(
        "--total-energy",
        type=float,
        help="fix m*M*ns to this budget; rounds per cell become total/(m*ns)",
    )
    reg.add_argument("--workers", type=int, help="row-level threads (default $CPFKIT_WORKERS or 1)")
    _add_common(reg)

    kap = subs.add_parser("kappa", help="optimal mixing fraction at one parameter point")
    _add_scenario(kap, kappa=False)
    _add_common(kap)

    fig = subs.add_parser("figure", help="emit the data behind a standard figure")
    fig.add_argument("--id", type=int, choices=range(1, 9), help="figure number (1-8)")
    fig.add_argument("--resolution", type=int, help="grid points per axis (default 201)")
    fig.add_argument("--workers", type=int, help="row-level threads (default $CPFKIT_WORKERS or 1)")
    _add_common(fig)

    return parser


_DEFAULTS = {
    "fidelity": {
        "m": 2, "m_probes": 1.0, "kappa": None, "protocol": "all", "path": "auto",
        "eta_b": None, "eta_t": None, "n_s": None,
    },
    "sweep": {
        "m": 2, "m_probes": 1.0, "kappa": None, "variable": None, "start": None,
        "stop": None, "points": 201, "log": False,
        "protocols": "classical,bipartite,idler_free",
        "eta_b": None, "eta_t": None, "n_s": None,
    },
    "region": {
        "m": 2, "m_probes": 1.0, "x": "eta_t", "x_start": 0.0, "x_stop": 1.0,
        "x_points": 201, "y": "eta_b", "y_start": 0.0, "y_stop": 1.0, "y_points": 201,
        "quantum": "idler_free", "total_energy": None, "workers": None,
        "eta_b": None, "eta_t": None, "n_s": None,
    },
    "kappa": {"m": 2, "m_probes": 1.0, "eta_b": None, "eta_t": None, "n_s": None},
    "figure": {"id": None, "resolution": 201, "workers": None},
}
_COMMON_DEFAULTS = {"output": None, "format": "csv", "db": False}


def _merge_config(args: argparse.Namespace) -> dict:
    """Layer hard defaults, then the config file, then explicit flags."""
    merged = dict(_DEFAULTS[args.command])
    merged.update(_COMMON_DEFAULTS)
    known = set(merged)
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise DomainError(f"--config: cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise DomainError(f"--config: {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise DomainError("--config must hold a JSON object of flag values")
        # keys mirror the flags: "ns" and dashed spellings map to dest names
        loaded = {
            {"ns": "n_s"}.get(k.replace("-", "_"), k.replace("-", "_")): v
            for k, v in loaded.items()
        }
        unknown = sorted(set(loaded) - known)
        if unknown:
            raise DomainError(
                f"--config has keys {unknown} not recognised by '{args.command}'"
            )
        merged.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:  # None means "not given on the command line"
            merged[key] = value
    return merged


# ------------------------------------------------------------ validation


def _flag(key: str) -> str:
    return "--" + {"n_s": "ns"}.get(key, key.replace("_", "-"))


def _num(p: dict, key: str, required: bool = True) -> float | None:
    value = p.get(key)
    if value is None:
        if required:
            raise DomainError(f"{_flag(key)} is required")
        return None
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{_flag(key)} expects a number, got {value!r}") from None
    if not math.isfinite(number):
        raise DomainError(f"{_flag(key)} must be finite, got {value!r}")
    return number


def _eta(p: dict, key: str, required: bool = True) -> float | None:
    value = _num(p, key, required)
    if value is not None and not 0.0 <= value <= 1.0:
        raise DomainError(f"{_flag(key)} must lie in [0, 1], got {value}")
    return value


def _positive(p: dict, key: str, required: bool = True) -> float | None:
    value = _num(p, key, required)
    if value is not None and not value > 0.0:
        raise DomainError(f"{_flag(key)} must be positive, got {value}")
    return value


def _integer(p: dict, key: str, minimum: int, required: bool = True) -> int | None:
    number = _num(p, key, required)
    if number is None:
        return None
    if number != int(number):
        raise DomainError(f"{_flag(key)} must be an integer, got {p[key]}")
    number = int(number)
    if number < minimum:
        raise DomainError(f"{_flag(key)} must be at least {minimum}, got {number}")
    return number


def _choice(p: dict, key: str, choices: tuple) -> str:
    value = p.get(key)
    if value is None:
        raise DomainError(f"{_flag(key)} is required")
    if value not in choices:
        raise DomainError(f"{_flag(key)} must be one of {', '.join(map(str, choices))}, got {value!r}")
    return value


def _scenario_from(p: dict, *, placeholder: tuple = ()) -> Scenario:
    """Build the Scenario; fields named in ``placeholder`` get dummy values
    because a grid overrides them."""
    m = _integer(p, "m", 2)
    eta_b = 0.5 if "eta_b" in placeholder else _eta(p, "eta_b")
    eta_t = 0.5 if "eta_t" in placeholder else _eta(p, "eta_t")
    n_s = 1.0 if "n_s" in placeholder else _positive(p, "n_s")
    m_probes = _num(p, "m_probes")
    if m_probes < 1.0:
        raise DomainError(f"--m-probes must be at least 1, got {m_probes}")
    kappa = _eta(p, "kappa", required=False) if "kappa" in p else None
    return Scenario(m, eta_b, eta_t, n_s, m_probes, kappa)


# --------------------------------------------------------- table builders


def _fidelity_table(p: dict) -> Table:
    scenario = _scenario_from(p)
    protocol = _choice(p, "protocol", _FIDELITY_PROTOCOLS)
    path = _choice(p, "path", ("auto", "direct"))
    if protocol == "all":
        names = [n for n in PROTOCOL_IDS if n != "idler_free_reversed" or scenario.m > 2]
    else:
        names = [protocol]

    columns = [
        "protocol", "fidelity", "kappa", "path",
        "min_symplectic_eigenvalue", "perr_upper", "perr_lower",
    ]
    rows, notes = [], []
    for name in names:
        kappa_used = None
        if name == "mixed" and scenario.kappa is None:
            best = optimize_kappa(scenario)
            value, label, min_nu, kappa_used = best.fidelity, "optimized", None, best.kappa
        else:
            if name == "idler_free_reversed":
                point = Scenario(
                    scenario.m, scenario.eta_t, scenario.eta_b, scenario.n_s,
                    scenario.m_probes, scenario.kappa,
                )
                report = output_fidelity(point, ProtocolKind.IDLER_FREE, path)
            else:
                report = output_fidelity(scenario, name, path)
                if name == "mixed":
                    kappa_used = scenario.kappa
            notes.extend(report.warnings)
            value, label = report.value, report.path
            min_nu = report.diagnostics.get("min_symplectic_eigenvalue")
        rows.append([
            name, float(value), kappa_used, label, min_nu,
            float(perr_upper(value, scenario.m, scenario.m_probes)),
            float(perr_lower(value, scenario.m, scenario.m_probes)),
        ])

    parameters = {
        "m": scenario.m, "eta_b": scenario.eta_b, "eta_t": scenario.eta_t,
        "n_s": scenario.n_s, "m_probes": scenario.m_probes,
        "kappa": scenario.kappa, "protocol": protocol, "path": path,
    }
    return Table("fidelity", parameters, columns, rows, ("fidelity",), notes)


def _sweep_table(p: dict) -> Table:
    variable = _choice(p, "variable", _SWEEP_VARIABLES)
    start, stop = _num(p, "start"), _num(p, "stop")
    points = _integer(p, "points", 1)
    logspace = bool(p.get("log"))
    protocols = tuple(s.strip() for s in str(p["protocols"]).split(",") if s.strip())
    bad = [s for s in protocols if s not in PROTOCOL_IDS]
    if bad:
        raise DomainError(f"--protocols has unknown entries {bad}; valid: {list(PROTOCOL_IDS)}")

    if logspace:
        if start <= 0 or stop <= 0:
            raise DomainError("--log needs positive --start and --stop")
        values = np.logspace(np.log10(start), np.log10(stop), points)
    else:
        values = np.linspace(start, stop, points)
    if variable in ("m", "m_probes") and np.any(values != np.round(values)):
        raise DomainError(f"--start/--stop/--points give non-integer {variable} values")
    if variable == "m" and np.any(values < 2):
        raise DomainError("--start: m values must be at least 2")

    scenario = _scenario_from(p, placeholder=(variable,) if variable != "m_probes" else ())
    spec = SweepSpec(scenario, variable, tuple(float(v) for v in values), protocols)
    rows = [
        [r["variable"], r["value"], r["protocol"], r["fidelity"], r["kappa"]]
        for r in sweep(spec)
    ]
    parameters = {
        "m": scenario.m, "eta_b": scenario.eta_b, "eta_t": scenario.eta_t,
        "n_s": scenario.n_s, "m_probes": scenario.m_probes, "kappa": scenario.kappa,
        "variable": variable, "start": start, "stop": stop, "points": points,
        "log": logspace, "protocols": list(protocols),
    }
    return Table("sweep", parameters, ["variable", "value", "protocol", "fidelity", "kappa"],
                 rows, ("fidelity",))


def _region_rows(grid, include_kappa: bool, include_rounds: bool) -> tuple:
    columns = [
        grid.x_name, grid.y_name, "f_quantum", "f_classical",
        "ub_quantum", "lb_classical", "log10_ratio", "certificate",
    ]
    if include_rounds:
        columns.append("m_probes")
    if include_kappa:
        columns.append("kappa_star")
    rows = []
    for iy, yv in enumerate(grid.y_values):
        for ix, xv in enumerate(grid.x_values):
            row = [
                float(xv), float(yv),
                float(grid.f_quantum[iy, ix]), float(grid.f_classical[iy, ix]),
                float(grid.ub_quantum[iy, ix]), float(grid.lb_classical[iy, ix]),
                float(grid.log10_ratio[iy, ix]), bool(grid.certificate[iy, ix]),
            ]
            if include_rounds:
                row.append(float(grid.m_probes[iy, ix]))
            if include_kappa:
                row.append(float(grid.kappa_star[iy, ix]))
            rows.append(row)
    return columns, rows


def _region_table(p: dict) -> Table:
    x_name = _choice(p, "x", _REGION_AXES)
    y_name = _choice(p, "y", _REGION_AXES)
    if x_name == y_name:
        raise DomainError("--x and --y must name different parameters")
    quantum = _choice(p, "quantum", _QUANTUM_PROTOCOLS)
    total_energy = _positive(p, "total_energy", required=False)
    workers = _integer(p, "workers", 1, required=False)

    def axis(prefix: str, name: str) -> np.ndarray:
        start, stop = _num(p, f"{prefix}_start"), _num(p, f"{prefix}_stop")
        points = _integer(p, f"{prefix}_points", 1)
        if name in ("eta_b", "eta_t"):
            for label, v in ((f"{prefix}_start", start), (f"{prefix}_stop", stop)):
                if not 0.0 <= v <= 1.0:
                    raise DomainError(f"{_flag(label)} must lie in [0, 1] for {name}, got {v}")
        elif start <= 0 or stop <= 0:
            raise DomainError(f"--{prefix}-start/--{prefix}-stop must be positive for n_s")
        return np.linspace(start, stop, points)

    x_values, y_values = axis("x", x_name), axis("y", y_name)
    scenario = _scenario_from(p, placeholder=(x_name, y_name))
    spec = RegionSpec(
        scenario, x_name, tuple(map(float, x_values)), y_name,
        tuple(map(float, y_values)), quantum, "log_ratio", total_energy,
    )
    grid = region_scan(spec, workers)
    columns, rows = _region_rows(grid, quantum == "mixed", total_energy is not None)
    parameters = dict(grid.metadata)
    parameters.update({"x": x_name, "y": y_name, "workers": workers})
    return Table("region", parameters, columns, rows, ("f_quantum", "f_classical"))


def _kappa_table(p: dict) -> Table:
    scenario = _scenario_from(p)
    best = optimize_kappa(scenario)
    f_class = float(classical_fidelity(scenario.eta_b, scenario.eta_t, scenario.n_s))
    f_if = float(idler_free_fidelity(scenario.m, scenario.eta_b, scenario.eta_t, scenario.n_s))
    columns = ["m", "eta_b", "eta_t", "n_s", "kappa_star", "fidelity",
               "f_classical", "f_idler_free"]
    rows = [[scenario.m, scenario.eta_b, scenario.eta_t, scenario.n_s,
             best.kappa, best.fidelity, f_class, f_if]]
    parameters = {"m": scenario.m, "eta_b": scenario.eta_b, "eta_t": scenario.eta_t,
                  "n_s": scenario.n_s}
    return Table("kappa", parameters, columns, rows,
                 ("fidelity", "f_classical", "f_idler_free"))


# ----------------------------------------------------------------- figures


def _figure_1(resolution: int, workers) -> Table:
    eta_b, eta_t, n_s = 0.2, 0.7, 1.0
    f_class = float(classical_fidelity(eta_b, eta_t, n_s))
    f_bip = float(bipartite_fidelity(eta_b, eta_t, n_s))
    rows = [
        [m, f_class, f_bip,
         float(idler_free_fidelity(m, eta_b, eta_t, n_s)),
         float(idler_free_fidelity(m, eta_t, eta_b, n_s))]
        for m in range(2, 13)
    ]
    return Table(
        "figure", {"id": 1, "eta_b": eta_b, "eta_t": eta_t, "n_s": n_s},
        ["m", "f_classical", "f_bipartite", "f_idler_free", "f_idler_free_reversed"],
        rows,
        ("f_classical", "f_bipartite", "f_idler_free", "f_idler_free_reversed"),
    )


def _figure_eta_sweep(fig_id: int, eta_b: float, resolution: int) -> Table:
    m, n_s = 3, 50.0
    grid = np.linspace(0.0, 1.0, resolution)
    f_class = classical_fidelity(eta_b, grid, n_s)
    f_bip = bipartite_fidelity(eta_b, grid, n_s)
    f_if = idler_free_fidelity(m, eta_b, grid, n_s)
    f_rev = idler_free_fidelity(m, grid, eta_b, n_s)
    rows = [
        [float(grid[i]), float(f_class[i]), float(f_bip[i]), float(f_if[i]), float(f_rev[i])]
        for i in range(resolution)
    ]
    return Table(
        "figure",
        {"id": fig_id, "m": m, "eta_b": eta_b, "n_s": n_s, "resolution": resolution},
        ["eta_t", "f_classical", "f_bipartite", "f_idler_free", "f_idler_free_reversed"],
        rows,
        ("f_classical", "f_bipartite", "f_idler_free", "f_idler_free_reversed"),
    )


def _figure_4(resolution: int, workers) -> Table:
    eta_b, eta_t = 0.9, 0.95
    grid = np.logspace(0.0, 5.0, resolution)
    f_class = classical_fidelity(eta_b, eta_t, grid)
    f_bip = bipartite_fidelity(eta_b, eta_t, grid)
    f_if = idler_free_fidelity(2, eta_b, eta_t, grid)
    rows = [
        [float(grid[i]), float(f_class[i]), float(f_bip[i]), float(f_if[i])]
        for i in range(resolution)
    ]
    return Table(
        "figure",
        {"id": 4, "m": 2, "eta_b": eta_b, "eta_t": eta_t, "resolution": resolution},
        ["n_s", "f_classical", "f_bipartite", "f_idler_free"],
        rows,
        ("f_classical", "f_bipartite", "f_idler_free"),
    )


def _figure_5(resolution: int, workers) -> Table:
    eta_b, n_s, m = 0.55, 50.0, 2
    grid = np.linspace(0.0, 1.0, resolution)
    f_class = classical_fidelity(eta_b, grid, n_s)
    f_bip = bipartite_fidelity(eta_b, grid, n_s)
    f_if = idler_free_fidelity(m, eta_b, grid, n_s)
    kappa, f_mix = _optimize_kappa_batch(m, eta_b, grid, np.asarray(n_s))
    rows = [
        [float(grid[i]), float(f_class[i]), float(f_bip[i]), float(f_if[i]),
         float(f_mix[i]), float(kappa[i])]
        for i in range(resolution)
    ]
    return Table(
        "figure",
        {"id": 5, "m": m, "eta_b": eta_b, "n_s": n_s, "resolution": resolution},
        ["eta_t", "f_classical", "f_bipartite", "f_idler_free", "f_mixed", "kappa_star"],
        rows,
        ("f_classical", "f_bipartite", "f_idler_free", "f_mixed"),
    )


def _figure_6(resolution: int, workers) -> Table:
    n_s, m, m_probes = 20.0, 2, 20.0
    grid = tuple(map(float, np.linspace(0.0, 1.0, resolution)))
    scenario = Scenario(m, 0.5, 0.5, n_s, m_probes)
    spec = RegionSpec(scenario, "eta_t", grid, "eta_b", grid, "idler_free")
    result = region_scan(spec, workers)
    columns, rows = _region_rows(result, include_kappa=False, include_rounds=False)
    return Table(
        "figure",
        {"id": 6, "m": m, "n_s": n_s, "m_probes": m_probes, "quantum": "idler_free",
         "resolution": resolution},
        columns, rows, ("f_quantum", "f_classical"),
    )


def _figure_7(resolution: int, workers) -> Table:
    n_s, m = 20.0, 2
    grid = tuple(map(float, np.linspace(0.0, 1.0, resolution)))
    scenario = Scenario(m, 0.5, 0.5, n_s, 1.0)
    results = {}
    for protocol in ("idler_free", "bipartite", "mixed"):
        spec = RegionSpec(scenario, "eta_t", grid, "eta_b", grid, protocol)
        results[protocol] = region_scan(spec, workers)
    mixed = results["mixed"]
    rows = []
    for iy, yv in enumerate(grid):
        for ix, xv in enumerate(grid):
            rows.append([
                float(xv), float(yv),
                bool(results["idler_free"].certificate[iy, ix]),
                bool(results["bipartite"].certificate[iy, ix]),
                bool(mixed.certificate[iy, ix]),
                float(mixed.kappa_star[iy, ix]),
            ])
    return Table(
        "figure", {"id": 7, "m": m, "n_s": n_s, "resolution": resolution},
        ["eta_t", "eta_b", "cert_idler_free", "cert_bipartite", "cert_mixed", "kappa_star"],
        rows, (),
    )


def _figure_8(resolution: int, workers) -> Table:
    m, eta_b, budget = 3, 1.0, 1800.0
    x = tuple(map(float, np.linspace(0.0, 1.0, resolution)))
    y = tuple(map(float, np.linspace(1.0, 50.0, resolution)))
    scenario = Scenario(m, eta_b, 0.5, 1.0, 1.0)
    spec = RegionSpec(scenario, "eta_t", x, "n_s", y, "idler_free",
                      total_energy=budget)
    result = region_scan(spec, workers)
    columns, rows = _region_rows(result, include_kappa=False, include_rounds=True)
    return Table(
        "figure",
        {"id": 8, "m": m, "eta_b": eta_b, "total_energy": budget,
         "quantum": "idler_free", "resolution": resolution},
        columns, rows, ("f_quantum", "f_classical"),
    )


_FIGURES = {
    1: _figure_1,
    2: lambda res, workers: _figure_eta_sweep(2, 0.95, res),
    3: lambda res, workers: _figure_eta_sweep(3, 0.05, res),
    4: _figure_4,
    5: _figure_5,
    6: _figure_6,
    7: _figure_7,
    8: _figure_8,
}


def _figure_table(p: dict) -> Table:
    fig_id = _integer(p, "id", 1)
    if fig_id not in _FIGURES:
        raise DomainError(f"--id must lie in 1..8, got {fig_id}")
    resolution = _integer(p, "resolution", 2)
    workers = _integer(p, "workers", 1, required=False)
    table = _FIGURES[fig_id](resolution, workers)
    if fig_id == 4:
        p["db"] = True  # that figure's axis is decibels
    return table


# ------------------------------------------------------------- rendering


def _apply_db(table: Table) -> None:
    indices = [table.columns.index(c) for c in table.fidelity_columns]
    table.columns.extend(f"{table.columns[i]}_db" for i in indices)
    for row in table.rows:
        for i in indices:
            value = row[i]
            row.append(10.0 * float(np.log10(value)) if value and value > 0.0 else None)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return _FLOAT_FMT.format(float(value))


def _render_csv(table: Table) -> str:
    lines = [",".join(table.columns)]
    lines.extend(",".join(_csv_cell(v) for v in row) for row in table.rows)
    return "\n".join(lines) + "\n"


def _json_cell(value):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def _render_json(table: Table) -> str:
    document = {
        "command": table.command,
        "parameters": {k: _json_cell(v) if not isinstance(v, (list, dict)) else v
                       for k, v in table.parameters.items()},
        "columns": list(table.columns),
        "rows": [[_json_cell(v) for v in row] for row in table.rows],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8", newline="\n")


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
        table = _BUILDERS[args.command](params)
        if params.get("db"):
            _apply_db(table)
        fmt = params.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise DomainError(f"--format must be csv or json, got {fmt!r}")
        for note in table.notes:
            print(f"warning: {note}", file=sys.stderr)
        _emit(_render_csv(table) if fmt == "csv" else _render_json(table),
              params.get("output"))
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
