"""The verification tools in tests/tools run on this checkout.

Same-bytes, fewer-checks and less-memory claims cite ``replay_digest.py``,
``count_checks.py`` and ``peak_rss.py``; each runs here in a subprocess on
this checkout's ``src``, as its usage line says, and must give its output in
the form those claims read.  No digest value is pinned: the CLI goldens pin
the bytes.
"""

import functools
import os
import re
import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_WORKLOADS = ("mixed_map", "closed_map")


@functools.lru_cache(maxsize=None)  # a replay takes seconds; tests share its lines
def _tool(name: str, *args) -> tuple:
    env = {**os.environ, "PYTHONPATH": str(_ROOT / "src")}
    done = subprocess.run([sys.executable, str(_ROOT / "tests" / "tools" / name), *args],
                          cwd=_ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return tuple(done.stdout.splitlines())


def test_replay_digest_prints_the_op_count_and_one_digest():
    lines = _tool("replay_digest.py", "--seeds", "3")
    assert lines[-2] == "218 ops"
    assert re.fullmatch(r"[0-9a-f]{64}", lines[-1])


def test_replay_digest_does_not_move_at_a_small_chunk_size():
    # at 7 cells a chunk the benchmark's multi-worker maps really run threads
    assert _tool("replay_digest.py", "--seeds", "3", "--chunk", "7") == _tool(
        "replay_digest.py", "--seeds", "3")


def test_count_checks_prints_one_total_per_workload():
    totals = [line for line in _tool("count_checks.py", "--seeds", "3") if " seed 3: " in line]
    assert [line.split(" ")[0] for line in totals] == list(_WORKLOADS)
    for line in totals:
        assert re.fullmatch(r"\w+ seed 3: [1-9]\d* checks in [1-9]\d* ops", line), line


# where values enter: a Scenario, a RegionSpec, the command line, and the
# public bounds; the fidelities, sweeps and maps behind them check nothing
_ENTRIES = ("cpfkit.protocols.Scenario.__post_init__", "cpfkit.scan.RegionSpec.__post_init__",
            "cpfkit.bounds.perr_upper", "cpfkit.bounds.perr_lower")


def test_every_check_at_workload_scale_is_made_where_a_value_enters():
    # the per-caller lines of the run above, one check count and caller each
    callers = [line.split()[1] for line in _tool("count_checks.py", "--seeds", "3")
               if line.startswith(" ")]
    assert callers
    for caller in callers:
        assert caller in _ENTRIES or caller.startswith("cpfkit.cli."), caller


def test_peak_rss_reports_the_exit_code_memory_and_cpu():
    lines = _tool("peak_rss.py", "fidelity", "--m", "3", "--eta-b", ".3", "--eta-t", ".5",
                  "--ns", "2")
    assert lines[0] == "exit 0"
    figures = dict(line.split(" ") for line in lines[1:])
    assert float(figures["peak_rss_mb"]) > 0.0 and float(figures["cpu_s"]) > 0.0


_FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers(0, 0))
def test_fails(n):
    assert 0 < n
"""


def test_a_failing_property_is_reported_under_the_warning_filters(tmp_path):
    # hypothesis writes a failing property's patch through libcst, which warns
    # that mypy_extensions.TypedDict is deprecated; as an error that warning
    # crashed pytest (INTERNALERROR, exit 3) and lost the failure's report
    (tmp_path / "test_failing.py").write_text(_FAILING_PROPERTY)
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", str(_ROOT / "pyproject.toml"),
                           "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
                           "test_failing.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "FAILED test_failing.py::test_fails - assert 0 < 0" in done.stdout
