"""Every benchmark op, run once under the benchmark's tracer, passes its checker.

``bench/run.py`` counts an op whose output ``bench/checker.py`` refuses as
failed, and its traced runs call the program through the wrappers of
``bench/tracing.py``.  These tests run each workload's op list once at one
seed with the tracer installed and check every output, so that a change that
breaks an op, or that breaks under the tracer's wrappers, fails here.  The
bench files are loaded from their paths and used as they are.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import cpfkit.cli

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"cpfkit_bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["mixed_map", "closed_map"])
def test_benchmark_ops_pass_the_checker_under_the_tracer(workload, monkeypatch):
    monkeypatch.delenv("CPFKIT_WORKERS", raising=False)
    workloads, checker, tracing = (_load(name) for name in ("workloads", "checker", "tracing"))
    ops = workloads.generate(workload, 3)
    failed = []
    with tracing.Tracer().installed():
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    # the module attribute, which the tracer wraps, as run.py calls it
                    code = cpfkit.cli.main(list(op.argv))
                except Exception as exc:  # an escaped exception is a failed op
                    code = f"{type(exc).__name__}: {exc}"
            problems = checker.check(op, code, out.getvalue())
            if problems:
                failed.append((" ".join(op.argv), problems[:2], err.getvalue()[-200:]))
    assert not failed, f"{len(failed)} of {len(ops)} ops fail, first: {failed[:3]}"
