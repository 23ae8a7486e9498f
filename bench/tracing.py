"""Per-layer spans and counts, recorded from outside the program.

``Tracer`` replaces the entry points of cpfkit's modules with wrappers,
at the attribute where each caller looks the name up (modules import the
kernel and each other's functions by name, so patching the defining module
alone would miss most calls).  ``Tracer.installed()`` puts the originals
back on exit.  A name that no longer exists is listed in ``absent`` and
skipped.

Self time is attributed from wall time: at every instant the elapsed time is
split equally among the threads that are running traced code and, within a
thread, goes to its innermost open span.  The client thread counts as idle
while a row thread has a span open.  So the self times of all spans sum to at
most the wall time, also with row threads, and with one thread a span's self
time is its duration minus its children's.  Counts are taken at the same
boundaries and are deterministic for a given op list.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import threading
import time
from collections import defaultdict

import numpy as np


def _batch(*covariances) -> int:
    """Elements in the broadcast leading dimensions of covariance stacks."""
    return math.prod(np.broadcast_shapes(*(np.shape(c)[:-2] for c in covariances)))


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _count_kernel(args, result):
    return {"elements": _batch(args[0], args[1])}


def _count_pair(args, result):
    return {"elements": _batch(result[0])}


def _count_size(args, result):
    return {"elements": _size(result)}


def _count_optimize(args, result):
    return {"cells": _size(result[1])}


def _count_region(args, result):
    return {"cells": _size(result.f_quantum)}


def _count_rows(args, result):
    return {"rows": len(result)}


def _count_region_rows(args, result):
    return {"rows": len(result[1])}


def _count_render(args, result):
    return {"rows": len(args[0].rows), "bytes": len(result.encode())}


# span name, the (module, attribute) lookups to patch, and the counter
SPANS = (
    ("cli.main", [("cpfkit.cli", "main")], None),
    ("cli.region_rows", [("cpfkit.cli", "_region_rows")], _count_region_rows),
    ("cli.render_csv", [("cpfkit.cli", "_render_csv")], _count_render),
    ("cli.render_json", [("cpfkit.cli", "_render_json")], _count_render),
    ("scan.region_scan", [("cpfkit.cli", "region_scan")], _count_region),
    ("scan.sweep", [("cpfkit.cli", "sweep")], _count_rows),
    ("scan.optimize_kappa", [("cpfkit.cli", "_optimize_kappa_batch"),
                             ("cpfkit.scan", "_optimize_kappa_batch")], _count_optimize),
    ("protocols.output_fidelity", [("cpfkit.cli", "output_fidelity")], None),
    ("protocols.output_pair_arrays", [("cpfkit.scan", "output_pair_arrays"),
                                      ("cpfkit.protocols", "output_pair_arrays")],
     _count_pair),
    ("protocols.closed_form", [("cpfkit.cli", "classical_fidelity"),
                               ("cpfkit.cli", "bipartite_fidelity"),
                               ("cpfkit.scan", "classical_fidelity"),
                               ("cpfkit.scan", "bipartite_fidelity"),
                               ("cpfkit.scan", "idler_free_binary_fidelity"),
                               ("cpfkit.protocols", "classical_fidelity"),
                               ("cpfkit.protocols", "bipartite_fidelity"),
                               ("cpfkit.protocols", "idler_free_binary_fidelity")],
     _count_size),
    ("probes.build_probe", [("cpfkit.protocols", "build_probe")], None),
    ("gaussian.check_physical", [("cpfkit.protocols", "check_physical"),
                                 ("cpfkit.gaussian", "check_physical")], None),
    ("gaussian.fidelity_from_arrays", [("cpfkit.scan", "fidelity_from_arrays"),
                                       ("cpfkit.protocols", "fidelity_from_arrays"),
                                       ("cpfkit.gaussian", "fidelity_from_arrays")],
     _count_kernel),
    ("bounds", [("cpfkit.cli", "perr_upper"), ("cpfkit.cli", "perr_lower"),
                ("cpfkit.scan", "perr_upper_raw"), ("cpfkit.scan", "classical_perr_lower"),
                ("cpfkit.scan", "log10_bound_ratio")], _count_size),
)

KERNEL = "gaussian.fidelity_from_arrays"
OPTIMIZE = "scan.optimize_kappa"
REGION = "scan.region_scan"


class Stat:
    """Totals for one span name."""

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.counts = defaultdict(int)


class Tracer:
    """Wraps cpfkit's entry points and aggregates spans and counts."""

    def __init__(self, spans=SPANS):
        self.spans = spans
        self.stats = defaultdict(Stat)
        # kernel calls and elements made inside an open optimize_kappa span
        self.kernel_in_optimize = [0, 0]
        self.kernel_batch1_calls = 0
        self.region_cpu_s = 0.0
        self.region_thread_s = 0.0
        self.absent = []
        self._saved = []
        self._stacks = {}
        self._lock = threading.Lock()
        self._client = None
        self._last = 0.0

    # ------------------------------------------------------------ patching

    @contextlib.contextmanager
    def installed(self):
        """Patch every listed lookup; restore the originals on exit."""
        self._client = threading.get_ident()
        self._last = time.perf_counter()
        self.absent = []
        try:
            for name, lookups, counter in self.spans:
                for module_name, attr in lookups:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr, None)
                    if original is None:
                        self.absent.append(f"{module_name}.{attr}")
                        continue
                    self._saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(self._saved):
                setattr(module, attr, original)
            self._saved.clear()

    def _wrap(self, name, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._enter(name)
            region = name == REGION
            if region:
                cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if region:
                workers = args[1] if len(args) > 1 else kwargs.get("workers")
                threads = min(workers or 1, len(result.y_values))
                tracer.region_cpu_s += time.process_time() - cpu0
                tracer.region_thread_s += (time.perf_counter() - wall0) * threads
            if counter is not None:
                tracer._count(name, counter(args, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # --------------------------------------------------------------- spans

    def _advance(self, now: float) -> None:
        """Hand the wall time since the last event to the running spans."""
        dt, self._last = now - self._last, now
        running = [s for tid, s in self._stacks.items() if s and tid != self._client]
        if not running:
            client = self._stacks.get(self._client)
            running = [client] if client else []
        if not running:
            return
        share = dt / len(running)
        for stack in running:
            self.stats[stack[-1]].self_s += share
            for name in set(stack):
                self.stats[name].incl_s += share

    def _enter(self, name: str) -> None:
        with self._lock:
            self._advance(time.perf_counter())
            self._stacks.setdefault(threading.get_ident(), []).append(name)
            self.stats[name].calls += 1

    def _exit(self) -> None:
        with self._lock:
            self._advance(time.perf_counter())
            tid = threading.get_ident()
            stack = self._stacks[tid]
            stack.pop()
            if not stack and tid != self._client:
                del self._stacks[tid]  # row threads come and go with each map

    def _count(self, name: str, counts: dict) -> None:
        with self._lock:
            stat = self.stats[name]
            for key, value in counts.items():
                stat.counts[key] += value
            if name == KERNEL:
                self.kernel_batch1_calls += counts["elements"] == 1
                if OPTIMIZE in self._stacks.get(threading.get_ident(), ()):
                    self.kernel_in_optimize[0] += 1
                    self.kernel_in_optimize[1] += counts["elements"]

    # ------------------------------------------------------------- results

    def counts(self) -> dict:
        """Every count, keyed "span.count"; these repeat exactly run to run."""
        out = {}
        for name, stat in sorted(self.stats.items()):
            out[f"{name}.calls"] = stat.calls
            for key, value in sorted(stat.counts.items()):
                out[f"{name}.{key}"] = value
        out["kernel_in_optimize.calls"] = self.kernel_in_optimize[0]
        out["kernel_in_optimize.elements"] = self.kernel_in_optimize[1]
        out["kernel.batch1_calls"] = self.kernel_batch1_calls
        return out

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """The per-layer metrics, as (value, unit); a ratio with a zero base
        reads 0."""

        def stat(name):
            return self.stats.get(name) or Stat()

        def ratio(a, b):
            return a / b if b else 0.0

        out = {}

        def put(key, value, unit):
            out[key] = (float(value), unit)

        k = stat(KERNEL)
        put(f"{KERNEL}.calls", k.calls, "count")
        put(f"{KERNEL}.elements", k.counts["elements"], "count")
        put(f"{KERNEL}.self_s", k.self_s, "s")
        put(f"{KERNEL}.ns_per_element", ratio(k.self_s * 1e9, k.counts["elements"]), "ns")
        put(f"{KERNEL}.us_per_call", ratio(k.self_s * 1e6, k.calls), "us")
        put(f"{KERNEL}.batch1_frac", ratio(self.kernel_batch1_calls, k.calls), "ratio")
        for name in ("gaussian.check_physical", "probes.build_probe",
                     "protocols.output_fidelity", "cli.main"):
            put(f"{name}.calls", stat(name).calls, "count")
            put(f"{name}.self_s", stat(name).self_s, "s")
        pair = stat("protocols.output_pair_arrays")
        put("protocols.output_pair_arrays.calls", pair.calls, "count")
        put("protocols.output_pair_arrays.elements", pair.counts["elements"], "count")
        put("protocols.output_pair_arrays.self_s", pair.self_s, "s")
        opt = stat(OPTIMIZE)
        cells = opt.counts["cells"]
        put(f"{OPTIMIZE}.cells", cells, "count")
        put(f"{OPTIMIZE}.self_s", opt.self_s, "s")
        put(f"{OPTIMIZE}.ms_per_cell", ratio(opt.incl_s * 1e3, cells), "ms")
        put(f"{OPTIMIZE}.incl_frac", ratio(opt.incl_s, traced_wall), "ratio")
        put(f"{OPTIMIZE}.kernel_elements_per_cell",
            ratio(self.kernel_in_optimize[1], cells), "count")
        put(f"{OPTIMIZE}.kernel_calls_per_batch",
            ratio(self.kernel_in_optimize[0], opt.calls), "count")
        region = stat(REGION)
        put(f"{REGION}.cells", region.counts["cells"], "count")
        put(f"{REGION}.self_s", region.self_s, "s")
        put(f"{REGION}.thread_busy_ratio", ratio(self.region_cpu_s, self.region_thread_s),
            "ratio")
        put("scan.sweep.rows", stat("scan.sweep").counts["rows"], "count")
        put("scan.sweep.self_s", stat("scan.sweep").self_s, "s")
        for name in ("protocols.closed_form", "bounds"):
            put(f"{name}.elements", stat(name).counts["elements"], "count")
            put(f"{name}.self_s", stat(name).self_s, "s")
        rows = stat("cli.region_rows")
        put("cli.region_rows.rows", rows.counts["rows"], "count")
        put("cli.region_rows.self_s", rows.self_s, "s")
        for name in ("cli.render_csv", "cli.render_json"):
            s = stat(name)
            put(f"{name}.rows", s.counts["rows"], "count")
            put(f"{name}.bytes", s.counts["bytes"], "bytes")
            put(f"{name}.us_per_row", ratio(s.self_s * 1e6, s.counts["rows"]), "us")
        rendering = rows.self_s + stat("cli.render_csv").self_s + stat("cli.render_json").self_s
        put("cli.rows_render_frac", ratio(rendering, traced_wall), "ratio")
        put("trace.wall_s", traced_wall, "s")
        put("trace.overhead_frac", ratio(traced_wall, untraced_wall) - 1.0, "ratio")
        return out
