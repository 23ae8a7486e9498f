"""Byte-for-byte CLI goldens: every subcommand's stdout in CSV and JSON.

The expected outputs in ``data/cli_goldens.json`` pin the exact bytes the
command line prints, so a refactor of the engines behind it can prove that
nothing visible changed.  To capture them again (only when a change of output
is intended), run ``python tests/test_cli_goldens.py`` from the repository
root with ``src`` on the path.
"""

import json
from pathlib import Path

import pytest

from cpfkit.cli import main

GOLDENS = Path(__file__).parent / "data" / "cli_goldens.json"

_POINT = ["--eta-b", "0.55", "--eta-t", "0.9", "--ns", "5", "--m-probes", "10"]
_ALL = "classical,bipartite,idler_free,idler_free_reversed,mixed"
_REGION = ["--x-points", "4", "--y-points", "3", "--y-start", "0.1", "--y-stop", "0.9"]


def _invocations() -> list:
    base = []
    for fig_id in range(1, 9):
        base.append(["figure", "--id", str(fig_id), "--resolution", "5"])
    for m in ("2", "3"):
        point = ["fidelity", "--protocol", "all", "--m", m, *_POINT]
        base += [point, [*point, "--kappa", "0.3"], [*point, "--path", "direct"]]
    for m in ("2", "5"):
        base.append(["kappa", "--m", m, "--eta-b", "0.95", "--eta-t", "0.5", "--ns", "10"])
    base += [
        ["sweep", "--variable", "m", "--start", "2", "--stop", "6", "--points", "5",
         "--eta-b", "0.2", "--eta-t", "0.7", "--ns", "1", "--protocols", _ALL],
        ["sweep", "--variable", "eta_t", "--start", "0", "--stop", "1", "--points", "5",
         "--m", "3", "--eta-b", "0.6", "--ns", "20", "--protocols", _ALL],
        ["sweep", "--variable", "eta_t", "--start", "0.1", "--stop", "0.9", "--points", "3",
         "--m", "4", "--eta-b", "0.6", "--ns", "20", "--kappa", "0.4",
         "--protocols", "idler_free_reversed,mixed"],
        ["sweep", "--variable", "n_s", "--start", "0.5", "--stop", "500", "--points", "4",
         "--log", "--eta-b", "0.3", "--eta-t", "0.8", "--db"],
    ]
    region = ["region", *_REGION, "--ns", "20", "--m-probes", "5"]
    base += [
        [*region, "--quantum", "idler_free", "--m", "3"],
        [*region, "--quantum", "bipartite"],
        [*region, "--quantum", "mixed"],
        [*region, "--quantum", "mixed", "--m", "4", "--workers", "2"],
        ["region", "--quantum", "idler_free", "--x-points", "3", "--y", "n_s",
         "--y-start", "1", "--y-stop", "40", "--y-points", "3", "--eta-b", "0.9",
         "--total-energy", "400", "--workers", "2"],
    ]
    return [[*argv, "--format", fmt] for argv in base for fmt in ("csv", "json")]


def _run(argv, capsys) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def goldens() -> dict:
    cases = json.loads(GOLDENS.read_text(encoding="utf-8"))["cases"]
    return {" ".join(case["argv"]): case["stdout"] for case in cases}


@pytest.mark.parametrize("argv", _invocations(), ids=" ".join)
def test_cli_output_matches_golden(argv, goldens, capsys, monkeypatch):
    monkeypatch.delenv("CPFKIT_WORKERS", raising=False)
    assert _run(argv, capsys) == goldens[" ".join(argv)]


def _capture() -> None:
    import contextlib
    import io

    cases = []
    for argv in _invocations():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0, argv
        cases.append({"argv": argv, "stdout": out.getvalue()})
    GOLDENS.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _capture()
