"""The names the benchmark's tracer patches, and what it counts.

``bench/tracing.py`` wraps ``_region_rows``, ``_render_csv``,
``_render_json`` and ``region_scan`` where ``cpfkit.cli`` looks them up, and
counts rows and bytes from their arguments and results.  On the
mixed-probe path it wraps ``cpfkit.scan._optimize_kappa_batch`` and the
assembly and kernel where ``cpfkit.protocols`` holds them, and counts cells
and kernel batch elements.  On the direct path it wraps the probe builder
and the physicality check where ``cpfkit.protocols`` holds them, and counts
their calls.  A refactor that renames one of them, or changes
what it takes or returns, would silently empty those per-layer metrics;
these tests catch it.  The tracer is loaded from its file and used as it is.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from cpfkit import cli
from cpfkit.cli import main
from cpfkit.scan import _optimize_kappa_batch
from helpers import KAPPA_BUDGET_ARGV, KAPPA_BUDGET_ROW, count_kernel_elements

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
_PATCHED = ("_region_rows", "_render_csv", "_render_json", "region_scan")
_OPTIMIZER_PATH = ("cpfkit.scan._optimize_kappa_batch", "cpfkit.protocols.output_pair_arrays",
                   "cpfkit.protocols.fidelity_from_arrays")
_DIRECT_PATH = ("cpfkit.protocols.build_probe", "cpfkit.protocols.check_physical")
# names the tracer lists that no longer exist; each layer is also traced
# through another name, so its counts do not depend on them
_STALE = ("cpfkit.cli.sweep", "cpfkit.cli._optimize_kappa_batch",
          "cpfkit.scan.output_pair_arrays", "cpfkit.cli.classical_fidelity",
          "cpfkit.cli.bipartite_fidelity", "cpfkit.scan.classical_fidelity",
          "cpfkit.scan.bipartite_fidelity", "cpfkit.scan.idler_free_binary_fidelity",
          "cpfkit.scan.fidelity_from_arrays", "cpfkit.protocols.idler_free_binary_fidelity",
          "cpfkit.protocols.classical_fidelity")


def _tracer():
    spec = importlib.util.spec_from_file_location("cpfkit_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def test_tracer_misses_only_the_known_stale_names():
    # a refactor that moves a traced name would add to this list
    tracer = _tracer()
    with tracer.installed():
        pass
    assert sorted(tracer.absent) == sorted(_STALE)


@pytest.mark.parametrize("argv, fmt, rows", [
    (["figure", "--id", "6", "--resolution", "5", "--format", "json"], "json", 25),
    (["region", "--x-points", "3", "--y-points", "1", "--ns", "5", "--format", "csv"],
     "csv", 3),
])
def test_tracer_counts_the_rows_and_bytes_printed(argv, fmt, rows, monkeypatch):
    monkeypatch.delenv("CPFKIT_WORKERS", raising=False)
    tracer = _tracer()
    with tracer.installed():
        traced = _run(argv)
    assert not {f"cpfkit.cli.{name}" for name in _PATCHED} & set(tracer.absent)
    assert traced == _run(argv)

    printed = len(json.loads(traced)["rows"]) if fmt == "json" else traced.count("\n") - 1
    assert printed == rows
    counts = tracer.counts()
    assert counts["cli.region_rows.rows"] == rows
    assert counts[f"cli.render_{fmt}.rows"] == rows
    assert counts[f"cli.render_{fmt}.bytes"] == len(traced.encode())
    assert counts["scan.region_scan.calls"] == 1


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_tracer_counts_every_block_of_rows(fmt, monkeypatch):
    # 1,600 rows in blocks of 7: the counts are the table's, not a block's
    monkeypatch.delenv("CPFKIT_WORKERS", raising=False)
    monkeypatch.setattr(cli, "_BLOCK", 7)
    argv = ["figure", "--id", "6", "--resolution", "40", "--format", fmt]
    tracer = _tracer()
    with tracer.installed():
        traced = _run(argv)
    assert traced == _run(argv)

    printed = len(json.loads(traced)["rows"]) if fmt == "json" else traced.count("\n") - 1
    assert printed == 1600
    counts = tracer.counts()
    assert counts["cli.region_rows.rows"] == printed
    assert counts[f"cli.render_{fmt}.rows"] == printed
    assert counts[f"cli.render_{fmt}.bytes"] == len(traced.encode())


@pytest.mark.parametrize("m", ["2", "3", "8"])
def test_tracer_counts_the_kappa_optimizer(m, monkeypatch):
    monkeypatch.delenv("CPFKIT_WORKERS", raising=False)
    tracer = _tracer()
    with tracer.installed():
        _run([*KAPPA_BUDGET_ARGV, "--m", m])
    assert not set(_OPTIMIZER_PATH) & set(tracer.absent)
    counts = tracer.counts()
    assert counts["scan.optimize_kappa.cells"] == KAPPA_BUDGET_ROW["eta_t"].size
    if m == "2":
        # the two-box pair's closed form answers every cell: no kernel call
        assert counts.get("gaussian.fidelity_from_arrays.calls", 0) == 0
        assert counts["kernel_in_optimize.calls"] == 0
        return

    sizes = count_kernel_elements(monkeypatch)
    _optimize_kappa_batch(int(m), **KAPPA_BUDGET_ROW)
    assert counts["gaussian.fidelity_from_arrays.elements"] == sum(sizes)
    assert counts["kernel_in_optimize.elements"] == sum(sizes)
    assert counts["gaussian.fidelity_from_arrays.calls"] == len(sizes)


def test_tracer_counts_the_direct_path_probes():
    argv = ["fidelity", "--protocol", "all", "--m", "5", "--eta-b", "0.3", "--eta-t", "0.5",
            "--ns", "2", "--path", "direct"]
    tracer = _tracer()
    with tracer.installed():
        traced = _run(argv)
    assert not set(_DIRECT_PATH) & set(tracer.absent)
    assert traced == _run(argv)
    # one probe and two output states per direct row; without --kappa the
    # mixed row is optimized on the auto path and builds no probe
    assert traced.count(",direct,") == 4 and traced.count(",optimized,") == 1
    counts = tracer.counts()
    assert counts["probes.build_probe.calls"] == 4
    assert counts["gaussian.check_physical.calls"] == 8
