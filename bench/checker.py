"""Output checks for benchmark ops, independent of the code under test.

Closed forms (classical, bipartite and m = 2 idler-free fidelities, the
classical lower bound and the bound ratio) are recomputed here in plain
numpy.  Values that need the Gaussian kernel (mixed probes, m > 2) are
checked by invariants: they lie in [0, 1], an optimised mixed fidelity is
no worse than its kappa = 0 and kappa = 1 end points, and certificates agree
with F_q < F_c^2 wherever the margin exceeds the tolerance.

``check(op, code, text)`` returns a list of problems; empty means correct.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# Kernel-computed fidelities may move by up to ~1.4e-4 when the kernel's
# accuracy improves, which must not count as a failure; a 1e-2 error must.
KERNEL_TOL = 2e-3
# closed forms and quantities derived from a printed value (12 digits)
RTOL = 1e-8
ATOL = 1e-12

_TEXT_COLUMNS = {"protocol", "path", "variable"}


# ------------------------------------------------------------- closed forms


def classical(eta_b, eta_t, n_s):
    return np.exp(-n_s * (np.sqrt(eta_b) - np.sqrt(eta_t)) ** 2)


def bipartite(eta_b, eta_t, n_s):
    gap = 1.0 - np.sqrt((1.0 - eta_b) * (1.0 - eta_t)) - np.sqrt(eta_b * eta_t)
    return (1.0 + n_s * np.maximum(gap, 0.0)) ** -2.0


def idler_free_m2(eta_b, eta_t, n_s):
    gap = (np.sqrt(eta_b * (1.0 - eta_t)) - np.sqrt(eta_t * (1.0 - eta_b))) ** 2
    return 1.0 / (1.0 + n_s * gap)


def log10_ratio(f_q, eta_b, eta_t, n_s, m, rounds):
    """log10 of (m-1) F_q^M over the classical floor (m-1)/(2m) exp(-2 M n_s gap)."""
    gap = (np.sqrt(eta_b) - np.sqrt(eta_t)) ** 2
    with np.errstate(divide="ignore"):
        upper = math.log10(m - 1.0) + rounds * np.log10(f_q)
    lower = math.log10((m - 1.0) / (2.0 * m)) - 2.0 * rounds * n_s * gap / math.log(10.0)
    return upper - lower


# ------------------------------------------------------------------ parsing


class Table:
    """Parsed output: column names and one numpy or list column each."""

    def __init__(self, columns: list, rows: list):
        self.columns = list(columns)
        self.n_rows = len(rows)
        cols = list(zip(*rows)) if rows else [()] * len(columns)
        self.data = {}
        for name, values in zip(self.columns, cols):
            if name in _TEXT_COLUMNS:
                self.data[name] = list(values)
            else:
                self.data[name] = np.array(
                    [np.nan if v is None or v == "" else v for v in values], dtype=float
                )

    def __getitem__(self, name):
        return self.data[name]


def parse(text: str, fmt: str) -> Table:
    if fmt == "json":
        document = json.loads(text)
        return Table(document["columns"], document["rows"])
    lines = list(csv.reader(io.StringIO(text)))
    return Table(lines[0], lines[1:])


# ------------------------------------------------------------------ helpers


class Problems(list):
    def close(self, label, got, want, rtol=RTOL, atol=ATOL):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.append(f"{label}: shape {got.shape} != {want.shape}")
            return
        same_inf = np.isinf(got) & (got == want)
        bad = ~same_inf & ~(np.abs(got - want) <= atol + rtol * np.abs(want))
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            self.append(f"{label}: {int(bad.sum())} values differ, first {got.flat[i]!r} "
                        f"vs {want.flat[i]!r}")

    def within(self, label, values, lo=0.0, hi=1.0):
        values = np.asarray(values, dtype=float)
        bad = ~((values >= lo) & (values <= hi))
        if np.any(bad):
            self.append(f"{label}: {int(bad.sum())} values outside [{lo}, {hi}]")

    def at_most(self, label, values, bound):
        bad = ~(np.asarray(values) <= np.asarray(bound) + KERNEL_TOL)
        if np.any(bad):
            self.append(f"{label}: {int(bad.sum())} values above their bound")

    def equal(self, label, got, want):
        if got != want:
            self.append(f"{label}: {got!r} != {want!r}")


def _check_db(p: Problems, table: Table, fidelity_columns) -> None:
    for name in fidelity_columns:
        values = table[name]
        positive = values > 0.0
        want = np.full(values.shape, np.nan)
        want[positive] = 10.0 * np.log10(values[positive])
        got = table[name + "_db"]
        if np.any(np.isnan(got) != np.isnan(want)):
            p.append(f"{name}_db: empty cells do not match zero fidelities")
        ok = ~np.isnan(want)
        p.close(f"{name}_db", got[ok], want[ok], atol=1e-9)


def _columns(p: Problems, table: Table, columns, spec, fidelity_columns) -> None:
    if spec.get("db"):
        columns = list(columns) + [c + "_db" for c in fidelity_columns]
    p.equal("columns", table.columns, list(columns))


def _certificate(p: Problems, label, cert, f_q, f_c) -> None:
    margin = f_c**2 - f_q
    decided = np.abs(margin) > KERNEL_TOL
    wrong = decided & ((cert > 0.5) != (margin > 0.0))
    if np.any(wrong):
        p.append(f"{label}: {int(wrong.sum())} certificates disagree with F_q < F_c^2")


# ---------------------------------------------------------------- commands


def _region_grid(spec) -> tuple:
    x_name, x0, x1, nx = spec["x"]
    y_name, y0, y1, ny = spec["y"]
    x, y = np.linspace(x0, x1, nx), np.linspace(y0, y1, ny)
    params = {x_name: np.tile(x, ny), y_name: np.repeat(y, nx)}
    for name, value in spec["fixed"].items():
        params[name] = np.full(nx * ny, value)
    return x_name, y_name, params


def _check_map(p: Problems, table: Table, spec, x_name, y_name, params) -> None:
    m, quantum = spec["m"], spec["quantum"]
    columns = [x_name, y_name, "f_quantum", "f_classical", "ub_quantum", "lb_classical",
               "log10_ratio", "certificate"]
    if spec["total_energy"] is not None:
        columns.append("m_probes")
    if quantum == "mixed":
        columns.append("kappa_star")
    _columns(p, table, columns, spec, ("f_quantum", "f_classical"))
    n = params[x_name].size
    p.equal("rows", table.n_rows, n)
    if p:
        return
    eta_b, eta_t, n_s = params["eta_b"], params["eta_t"], params["n_s"]
    p.close(x_name, table[x_name], params[x_name])
    p.close(y_name, table[y_name], params[y_name])
    if spec["total_energy"] is not None:
        rounds = spec["total_energy"] / (m * n_s)
        p.close("m_probes", table["m_probes"], rounds)
    else:
        rounds = np.full(n, spec["m_probes"])
    f_q, f_c = table["f_quantum"], table["f_classical"]
    p.close("f_classical", f_c, classical(eta_b, eta_t, n_s))
    p.within("f_quantum", f_q)
    if quantum == "bipartite":
        p.close("f_quantum", f_q, bipartite(eta_b, eta_t, n_s))
    elif quantum == "idler_free" and m == 2:
        p.close("f_quantum", f_q, idler_free_m2(eta_b, eta_t, n_s))
    elif quantum == "mixed":
        bound = np.minimum(f_c, idler_free_m2(eta_b, eta_t, n_s)) if m == 2 else f_c
        p.at_most("f_quantum (mixed)", f_q, bound)
        p.within("kappa_star", table["kappa_star"])
    p.close("ub_quantum", table["ub_quantum"], (m - 1.0) * f_q**rounds)
    gap = (np.sqrt(eta_b) - np.sqrt(eta_t)) ** 2
    p.close("lb_classical", table["lb_classical"],
            (m - 1.0) / (2.0 * m) * np.exp(-2.0 * rounds * n_s * gap))
    p.close("log10_ratio", table["log10_ratio"],
            log10_ratio(f_q, eta_b, eta_t, n_s, m, rounds), rtol=1e-7, atol=1e-7)
    _certificate(p, "certificate", table["certificate"], f_q, f_c)
    if spec.get("db"):
        _check_db(p, table, ("f_quantum", "f_classical"))


def _check_region(p: Problems, table: Table, spec) -> None:
    _check_map(p, table, spec, *_region_grid(spec))


def _check_sweep(p: Problems, table: Table, spec) -> None:
    _columns(p, table, ["variable", "value", "protocol", "fidelity", "kappa"], spec,
             ("fidelity",))
    protocols = spec["protocols"]
    points = spec["points"]
    p.equal("rows", table.n_rows, points * len(protocols))
    if p:
        return
    if spec["log"]:
        grid = np.logspace(np.log10(spec["start"]), np.log10(spec["stop"]), points)
    else:
        grid = np.linspace(spec["start"], spec["stop"], points)
    values = np.repeat(grid, len(protocols))
    p.equal("variable", set(table["variable"]), {spec["variable"]})
    p.equal("protocol order", table["protocol"], list(protocols) * points)
    p.close("value", table["value"], values)
    params = {k: np.full(values.size, v) for k, v in spec["base"].items()}
    if spec["variable"] in params:
        params[spec["variable"]] = values
    eta_b, eta_t, n_s = params["eta_b"], params["eta_t"], params["n_s"]
    forms = {"classical": classical(eta_b, eta_t, n_s),
             "bipartite": bipartite(eta_b, eta_t, n_s),
             "idler_free": idler_free_m2(eta_b, eta_t, n_s),
             "idler_free_reversed": idler_free_m2(eta_t, eta_b, n_s)}
    labels = np.array(table["protocol"])
    for name in protocols:
        rows = labels == name
        p.close(f"fidelity[{name}]", table["fidelity"][rows], forms[name][rows])
    if spec.get("db"):
        _check_db(p, table, ("fidelity",))


def _check_fidelity(p: Problems, table: Table, spec) -> None:
    m, eta_b, eta_t, n_s = spec["m"], spec["eta_b"], spec["eta_t"], spec["n_s"]
    rounds, kappa, direct = spec["m_probes"], spec["kappa"], spec["path"] == "direct"
    p.equal("columns", table.columns, ["protocol", "fidelity", "kappa", "path",
                                       "min_symplectic_eigenvalue", "perr_upper",
                                       "perr_lower"])
    names = ["classical", "bipartite", "idler_free"]
    names += ["idler_free_reversed", "mixed"] if m > 2 else ["mixed"]
    if not p:
        p.equal("protocols", table["protocol"], names)
    if p:
        return
    f = dict(zip(names, table["fidelity"]))
    # the direct path runs the Gaussian kernel even for closed-form protocols
    tol = {"rtol": 0.0, "atol": KERNEL_TOL} if direct else {}
    p.within("fidelity", table["fidelity"])
    p.close("classical", f["classical"], classical(eta_b, eta_t, n_s), **tol)
    p.close("bipartite", f["bipartite"], bipartite(eta_b, eta_t, n_s), **tol)
    if m == 2:
        p.close("idler_free", f["idler_free"], idler_free_m2(eta_b, eta_t, n_s), **tol)
    paths = dict(zip(names, table["path"]))
    kappas = dict(zip(names, table["kappa"]))
    if kappa is None:
        p.equal("mixed path", paths["mixed"], "optimized")
        p.within("kappa", kappas["mixed"])
        p.at_most("mixed", f["mixed"], min(f["classical"], f["idler_free"]))
    else:
        p.close("kappa", kappas["mixed"], kappa)
    for name in names:
        if name == "mixed" and kappa is None:
            continue
        if direct:
            want = "direct"
        elif name in ("classical", "bipartite") or (name == "idler_free" and m == 2):
            want = "closed-form"
        else:
            want = "direct" if m == 2 else "reduced"
        p.equal(f"path[{name}]", paths[name], want)
    nu = table["min_symplectic_eigenvalue"]
    p.within("min_symplectic_eigenvalue", nu[~np.isnan(nu)], 1.0 - 1e-6, np.inf)
    fid = table["fidelity"]
    p.close("perr_upper", table["perr_upper"], np.minimum(1.0, (m - 1.0) * fid**rounds))
    p.close("perr_lower", table["perr_lower"], (m - 1.0) / (2.0 * m) * fid ** (2.0 * rounds))


def _check_kappa(p: Problems, table: Table, spec) -> None:
    m, eta_b, eta_t, n_s = spec["m"], spec["eta_b"], spec["eta_t"], spec["n_s"]
    _columns(p, table, ["m", "eta_b", "eta_t", "n_s", "kappa_star", "fidelity",
                        "f_classical", "f_idler_free"], spec, ())
    p.equal("rows", table.n_rows, 1)
    if p:
        return
    p.close("parameters", [table[c][0] for c in ("m", "eta_b", "eta_t", "n_s")],
            [m, eta_b, eta_t, n_s])
    f_c, f_if = table["f_classical"][0], table["f_idler_free"][0]
    p.close("f_classical", f_c, classical(eta_b, eta_t, n_s))
    if m == 2:
        p.close("f_idler_free", f_if, idler_free_m2(eta_b, eta_t, n_s))
    p.within("fidelities", [table["fidelity"][0], f_c, f_if])
    p.within("kappa_star", table["kappa_star"])
    p.at_most("fidelity", table["fidelity"][0], min(f_c, f_if))


def _check_figure(p: Problems, table: Table, spec) -> None:
    fig, res = spec["id"], spec["resolution"]
    if fig == 4:
        eta_b, eta_t, n_s = 0.9, 0.95, np.logspace(0.0, 5.0, res)
        names = ("f_classical", "f_bipartite", "f_idler_free")
        _columns(p, table, ["n_s", *names], {"db": True}, names)
        p.equal("rows", table.n_rows, res)
        if p:
            return
        p.close("n_s", table["n_s"], n_s)
        for name, form in zip(names, (classical, bipartite, idler_free_m2)):
            p.close(name, table[name], form(eta_b, eta_t, n_s))
        _check_db(p, table, names)
    elif fig == 5:
        eta_b, n_s, eta_t = 0.55, 50.0, np.linspace(0.0, 1.0, res)
        _columns(p, table, ["eta_t", "f_classical", "f_bipartite", "f_idler_free",
                            "f_mixed", "kappa_star"], spec, ())
        p.equal("rows", table.n_rows, res)
        if p:
            return
        p.close("eta_t", table["eta_t"], eta_t)
        p.close("f_classical", table["f_classical"], classical(eta_b, eta_t, n_s))
        p.close("f_bipartite", table["f_bipartite"], bipartite(eta_b, eta_t, n_s))
        p.close("f_idler_free", table["f_idler_free"], idler_free_m2(eta_b, eta_t, n_s))
        p.within("f_mixed", table["f_mixed"])
        p.at_most("f_mixed", table["f_mixed"],
                  np.minimum(table["f_classical"], table["f_idler_free"]))
        p.within("kappa_star", table["kappa_star"])
    elif fig == 6:
        grid = np.linspace(0.0, 1.0, res)
        region_spec = {"m": 2, "quantum": "idler_free", "m_probes": 20.0,
                       "total_energy": None, "db": False}
        params = {"eta_t": np.tile(grid, res), "eta_b": np.repeat(grid, res),
                  "n_s": np.full(res * res, 20.0)}
        _check_map(p, table, region_spec, "eta_t", "eta_b", params)
    elif fig == 7:
        _columns(p, table, ["eta_t", "eta_b", "cert_idler_free", "cert_bipartite",
                            "cert_mixed", "kappa_star"], spec, ())
        p.equal("rows", table.n_rows, res * res)
        if p:
            return
        grid = np.linspace(0.0, 1.0, res)
        eta_t, eta_b = np.tile(grid, res), np.repeat(grid, res)
        p.close("eta_t", table["eta_t"], eta_t)
        p.close("eta_b", table["eta_b"], eta_b)
        f_c = classical(eta_b, eta_t, 20.0)
        f_if = idler_free_m2(eta_b, eta_t, 20.0)
        _certificate(p, "cert_idler_free", table["cert_idler_free"], f_if, f_c)
        _certificate(p, "cert_bipartite", table["cert_bipartite"],
                     bipartite(eta_b, eta_t, 20.0), f_c)
        # the mixed optimum is no worse than idler-free, so it certifies at least
        # where idler-free does by more than the tolerance
        must = f_c**2 - f_if > 2.0 * KERNEL_TOL
        if np.any(must & (table["cert_mixed"] < 0.5)):
            p.append("cert_mixed: missing where idler-free certifies")
        p.within("kappa_star", table["kappa_star"])
    else:
        p.append(f"no check for figure {fig}")


_CHECKS = {"region": _check_region, "sweep": _check_sweep, "fidelity": _check_fidelity,
           "kappa": _check_kappa, "figure": _check_figure}


def check(op, code, text: str) -> list:
    """Problems with one op's exit code and output; an empty list means correct."""
    if code != 0:
        return [f"exit code {code}"]
    p = Problems()
    try:
        table = parse(text, op.spec["format"])
        _CHECKS[op.spec["command"]](p, table, op.spec)
    except (ValueError, KeyError, IndexError, TypeError, csv.Error) as exc:
        p.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return list(p)
