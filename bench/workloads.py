"""Seeded op lists for the two benchmark workloads.

Every workload has a fixed template: the same op classes, sizes and
formats for every seed.  The seed only draws the physical parameters
(transmissivities, energies, rounds, axis ranges) and the order of the
ops, so the amount of work in a run is the same for every seed while the
inputs differ.  Each op carries the argument list for ``cpfkit.cli.main``
and a ``spec`` dict with what the checker needs to validate the output
without calling the code under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its class label, argv and the checker's spec."""

    cls: str
    argv: tuple
    spec: dict


def _fmt(value: float) -> str:
    return repr(float(value))


def _common(argv: list, spec: dict, fmt: str, db: bool) -> None:
    argv += ["--format", fmt]
    if db:
        argv.append("--db")
    spec.update(format=fmt, db=db)


def _y_range(rng: random.Random, name: str) -> tuple:
    """A random (start, stop) for the y axis of a map."""
    if name == "n_s":
        return rng.uniform(0.5, 5.0), rng.uniform(20.0, 200.0)
    lo = rng.uniform(0.02, 0.45)
    return lo, rng.uniform(lo + 0.1, 0.98)


# (x axis over [0, 1], y axis); the third scenario field is fixed by a flag
_LAYOUTS = (("eta_t", "eta_b"), ("eta_b", "eta_t"), ("eta_t", "n_s"))


def region(rng: random.Random, quantum: str, m: int, x_points: int, y_points: int,
           workers: int, fmt: str = "csv", db: bool = False,
           total_energy: bool = False) -> Op:
    """A ``region`` map with seeded axis layout, ranges and fixed parameter."""
    x_name, y_name = rng.choice(_LAYOUTS)
    x_range = (0.0, 1.0)
    y_range = _y_range(rng, y_name)
    fixed = {"eta_b": rng.uniform(0.05, 0.95), "eta_t": rng.uniform(0.05, 0.95),
             "n_s": math.exp(rng.uniform(math.log(0.5), math.log(200.0)))}
    (fixed_name,) = set(fixed) - {x_name, y_name}
    m_probes = rng.uniform(1.0, 40.0)
    argv = ["region", "--quantum", quantum, "--m", str(m),
            "--x", x_name, "--x-start", _fmt(x_range[0]), "--x-stop", _fmt(x_range[1]),
            "--x-points", str(x_points),
            "--y", y_name, "--y-start", _fmt(y_range[0]), "--y-stop", _fmt(y_range[1]),
            "--y-points", str(y_points),
            {"n_s": "--ns", "eta_b": "--eta-b", "eta_t": "--eta-t"}[fixed_name],
            _fmt(fixed[fixed_name]), "--m-probes", _fmt(m_probes), "--workers", str(workers)]
    spec = {"command": "region", "quantum": quantum, "m": m, "m_probes": m_probes,
            "x": (x_name, *x_range, x_points), "y": (y_name, *y_range, y_points),
            "fixed": {fixed_name: fixed[fixed_name]}, "total_energy": None}
    if total_energy:
        # rounds per cell are total / (m n_s) and must stay >= 1
        n_s_max = y_range[1] if y_name == "n_s" else fixed["n_s"]
        budget = m * n_s_max * rng.uniform(1.0, 20.0)
        argv += ["--total-energy", _fmt(budget)]
        spec["total_energy"] = budget
    _common(argv, spec, fmt, db)
    label = f"region.{quantum}.m{m}.w{workers}.{fmt}"
    return Op(label, tuple(argv), spec)


def figure(fig_id: int, resolution: int | None, fmt: str = "csv", workers: int = 1) -> Op:
    argv = ["figure", "--id", str(fig_id), "--workers", str(workers)]
    if resolution is not None:
        argv += ["--resolution", str(resolution)]
    spec = {"command": "figure", "id": fig_id, "resolution": resolution or 201}
    _common(argv, spec, fmt, db=False)
    return Op(f"figure.{fig_id}.{fmt}", tuple(argv), spec)


_SWEEP_PROTOCOLS = ("classical", "bipartite", "idler_free", "idler_free_reversed")


def sweep(rng: random.Random, variable: str, points: int, fmt: str, db: bool) -> Op:
    """A closed-form ``sweep`` at m = 2 over a seeded choice of three protocols."""
    chosen = rng.sample(_SWEEP_PROTOCOLS, 3)
    protocols = tuple(p for p in _SWEEP_PROTOCOLS if p in chosen)  # canonical order
    base = {"eta_b": rng.uniform(0.05, 0.95), "eta_t": rng.uniform(0.05, 0.95),
            "n_s": math.exp(rng.uniform(math.log(0.5), math.log(200.0)))}
    log = variable == "n_s"
    if variable == "n_s":
        start, stop = rng.uniform(0.1, 2.0), rng.uniform(1e3, 1e5)
    elif variable == "m_probes":
        start, stop = 1.0, float(points)  # integer grid values
    else:
        start, stop = rng.uniform(0.0, 0.3), rng.uniform(0.7, 1.0)
    argv = ["sweep", "--m", "2", "--variable", variable, "--start", _fmt(start),
            "--stop", _fmt(stop), "--points", str(points), "--protocols", ",".join(protocols)]
    if log:
        argv.append("--log")
    for name, flag in (("eta_b", "--eta-b"), ("eta_t", "--eta-t"), ("n_s", "--ns")):
        if name != variable:
            argv += [flag, _fmt(base[name])]
    spec = {"command": "sweep", "variable": variable, "start": start, "stop": stop,
            "points": points, "log": log, "protocols": protocols, "base": base}
    _common(argv, spec, fmt, db)
    return Op(f"sweep.{variable}.{fmt}", tuple(argv), spec)


def _point(rng: random.Random, m: int) -> dict:
    eta_b = rng.uniform(0.02, 0.98)
    eta_t = rng.uniform(0.02, 0.98)
    n_s = math.exp(rng.uniform(math.log(0.5), math.log(200.0)))
    return {"m": m, "eta_b": eta_b, "eta_t": eta_t, "n_s": n_s}


def _point_argv(point: dict) -> list:
    return ["--m", str(point["m"]), "--eta-b", _fmt(point["eta_b"]),
            "--eta-t", _fmt(point["eta_t"]), "--ns", _fmt(point["n_s"])]


def fidelity(rng: random.Random, m: int, kappa: bool, direct: bool, fmt: str) -> Op:
    """``fidelity --protocol all`` at a seeded point."""
    point = _point(rng, m)
    point["m_probes"] = rng.uniform(1.0, 30.0)
    point["kappa"] = rng.uniform(0.0, 1.0) if kappa else None
    argv = ["fidelity", "--protocol", "all", *_point_argv(point),
            "--m-probes", _fmt(point["m_probes"])]
    if kappa:
        argv += ["--kappa", _fmt(point["kappa"])]
    if direct:
        argv += ["--path", "direct"]
    spec = {"command": "fidelity", "path": "direct" if direct else "auto", **point}
    _common(argv, spec, fmt, db=False)
    label = "fidelity" + (".kappa" if kappa else "") + (".direct" if direct else "")
    return Op(label, tuple(argv), spec)


def kappa(rng: random.Random, m: int, fmt: str) -> Op:
    point = _point(rng, m)
    argv = ["kappa", *_point_argv(point)]
    spec = {"command": "kappa", **point}
    _common(argv, spec, fmt, db=False)
    return Op("kappa", tuple(argv), spec)


# ----------------------------------------------------------------- workloads


_FORMATS = ("csv", "json")


def mixed_map(rng: random.Random) -> list:
    """Kernel-bound: 108 ops that all evaluate the mixed-probe kernel.

    44 are single-point queries, m from 2 to 12: 11 each of ``fidelity
    --protocol all`` (the mixed row is optimised), the same with ``--kappa``,
    the same with ``--path direct``, and ``kappa``.  They make the kernel calls
    of batch size 1 and the per-call validation and dispatch.  The other 64
    are small mixed-probe maps (one row of 6 to 41 columns, or two rows on
    two row threads, at m = 2 and m = 8) and figures 5 and 7 at reduced
    resolution, whose kernel calls are batched over a row.

    A pass takes about four seconds, so that a run repeats every op often."""
    # m cycles through 2..12 in every query class, so each seed has the same sizes
    ops = [fidelity(rng, 2 + i % 11, kappa=False, direct=False, fmt=_FORMATS[i % 2])
           for i in range(11)]
    ops += [fidelity(rng, 2 + i % 11, kappa=True, direct=False, fmt="csv") for i in range(11)]
    ops += [fidelity(rng, 2 + i % 11, kappa=False, direct=True, fmt="csv") for i in range(11)]
    ops += [kappa(rng, 2 + i % 11, fmt=_FORMATS[i % 2]) for i in range(11)]
    # one map row is one kappa optimisation, about 24 kernel calls whatever
    # its width, so small rows keep the maps kernel-bound
    ops += [region(rng, "mixed", 2, (16, 21, 31, 41)[i % 4], 1, 1, _FORMATS[i % 2])
            for i in range(32)]
    ops += [region(rng, "mixed", 2, 21, 2, 2, _FORMATS[i % 2]) for i in range(8)]
    ops += [region(rng, "mixed", 8, (6, 8, 11, 16)[i % 4], 1, 1, _FORMATS[i % 2])
            for i in range(8)]
    ops += [region(rng, "mixed", 8, 8, 2, 2, _FORMATS[i % 2]) for i in range(8)]
    ops += [figure(5, res, _FORMATS[i % 2]) for i, res in enumerate(range(10, 34, 4))]
    ops += [figure(7, 3, "csv", 1), figure(7, 3, "json", 2)]
    rng.shuffle(ops)
    return ops


def closed_map(rng: random.Random) -> list:
    """Rendering-bound: 110 closed-form ops at m = 2.

    Figure 6 in JSON and figure 4 in CSV and JSON at the default resolution
    of 201, 50 maps 201 columns wide with 2 to 6 rows, 56 sweeps of 100 to
    400 points and a long sweep of 5000 points, alternating CSV and JSON,
    some with --db or --total-energy.

    A pass takes about three seconds, so that a run repeats every op often."""
    ops = [figure(6, None, "json"), figure(4, None, "csv"), figure(4, None, "json")]
    ops += [region(rng, ("idler_free", "bipartite")[i % 2], 2, 201, 2 + i % 5, workers=1,
                   fmt=_FORMATS[i // 2 % 2], db=i % 3 == 0, total_energy=i % 4 == 1)
            for i in range(50)]
    variables = ("n_s", "eta_t", "eta_b", "m_probes")
    ops += [sweep(rng, variables[i % 4], 100 * (1 + i % 4), _FORMATS[i // 4 % 2],
                  db=i % 3 == 2) for i in range(56)]
    ops.append(sweep(rng, "n_s", 5000, "csv", db=False))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"mixed_map": mixed_map, "closed_map": closed_map}


def generate(workload: str, seed: int) -> list:
    """The op list of ``workload`` for ``seed``; equal seeds give equal ops."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
