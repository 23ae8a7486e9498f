"""Byte-for-byte CLI goldens: every subcommand's stdout in CSV and JSON.

The expected outputs in ``data/cli_goldens.json`` pin the exact bytes the
command line prints, so a refactor of the engines behind it can prove that
nothing visible changed.  To capture them again (only when a change of output
is intended), run ``python tests/test_cli_goldens.py`` from the repository
root with ``src`` on the path.  It prints each case whose bytes change, with
the largest relative change among its numeric cells, the columns whose cells
moved, and every line that changes in anything but its numbers.
"""

import json
import re
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
        ["sweep", "--variable", "eta_b", "--start", "0", "--stop", "1", "--points", "5",
         "--m", "3", "--eta-t", "0.5", "--ns", "10", "--protocols", _ALL],
        ["sweep", "--variable", "m_probes", "--start", "1", "--stop", "7", "--points", "3",
         "--m", "3", "--eta-b", "0.6", "--eta-t", "0.8", "--ns", "4", "--m-probes", "9"],
        ["sweep", "--variable", "m_probes", "--start", "1", "--stop", "4", "--points", "2",
         "--eta-b", "0.55", "--eta-t", "0.9", "--ns", "5", "--kappa", "0.3",
         "--protocols", "idler_free,mixed"],
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
        [*region, "--x", "eta_b", "--y", "eta_t", "--quantum", "idler_free", "--m", "3"],
        ["region", "--x", "n_s", "--x-start", "1", "--x-stop", "30", "--x-points", "3",
         "--y", "eta_b", "--y-points", "2", "--eta-t", "0.7", "--m-probes", "4",
         "--quantum", "mixed"],
        ["region", "--x", "eta_b", "--x-points", "3", "--y", "n_s", "--y-start", "1",
         "--y-stop", "40", "--y-points", "2", "--eta-t", "0.3", "--quantum", "bipartite"],
    ]
    # --db on every table shape: None cells, map rows, a total-energy map, figures
    base += [
        ["fidelity", "--protocol", "all", "--m", "2", *_POINT, "--db"],
        ["fidelity", "--protocol", "all", "--m", "3", *_POINT, "--db"],
        ["kappa", "--m", "3", "--eta-b", "0.95", "--eta-t", "0.5", "--ns", "10", "--db"],
        [*region, "--quantum", "mixed", "--db"],
        ["region", "--quantum", "idler_free", "--x-points", "3", "--y", "n_s",
         "--y-start", "1", "--y-stop", "40", "--y-points", "3", "--eta-b", "0.9",
         "--total-energy", "400", "--db"],
        ["figure", "--id", "6", "--resolution", "5", "--db"],
        ["figure", "--id", "8", "--resolution", "5", "--db"],
    ]
    # the direct path beyond m = 3, and its mixed row at a fixed kappa
    for m, extra in (("5", []), ("12", []), ("3", ["--kappa", "0.3"]),
                     ("5", ["--kappa", "0.3"])):
        base.append(["fidelity", "--protocol", "all", "--m", m, *_POINT, *extra,
                     "--path", "direct"])
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


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _table(text: str) -> tuple:
    """(columns, rows, the rest) of a printed table: a JSON document's, the
    rest its other keys, or a CSV's header and lines split at commas."""
    if text.startswith("{"):
        document = json.loads(text)
        return document.pop("columns"), document.pop("rows"), document
    header, *lines = text.splitlines()
    return header.split(","), [line.split(",") for line in lines], {}


def _changes(old: str, new: str) -> tuple:
    """The largest relative change among the numeric cells of two outputs,
    the columns whose cells moved (as column[protocol] in a table with a
    protocol column, and a JSON document's other keys that moved), and the
    (old, new) lines that differ in anything else."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return 0.0, [], [(f"{len(old_lines)} lines", f"{len(new_lines)} lines")]
    largest, other = 0.0, []
    for before, after in zip(old_lines, new_lines):
        if before == after:
            continue
        if _NUMBER.split(before) != _NUMBER.split(after):
            other.append((before, after))
            continue
        for a, b in zip(*(map(float, _NUMBER.findall(line)) for line in (before, after))):
            if a != b:
                largest = max(largest, abs(a - b) / max(abs(a), abs(b)))
    (columns, old_rows, old_rest), (_, new_rows, new_rest) = _table(old), _table(new)
    moved = [key for key in old_rest if old_rest[key] != new_rest.get(key)]
    protocol = columns.index("protocol") if "protocol" in columns else None
    for before, after in zip(old_rows, new_rows):
        for column, a, b in zip(columns, before, after):
            label = column if protocol is None else f"{column}[{after[protocol]}]"
            if a != b and label not in moved:
                moved.append(label)
    return largest, moved, other


def test_changes_names_the_moved_columns():
    old = "protocol,fidelity,kappa\nclassical,1.0e-01,\nmixed,2.0e-01,5.0e-01\n"
    new = old.replace("2.0e-01", "2.5e-01").replace("5.0e-01", "5.0e-02")
    assert _changes(old, new) == (0.9, ["fidelity[mixed]", "kappa[mixed]"], [])
    old = json.dumps({"columns": ["x", "f_quantum", "path"], "rows": [[0.5, 0.25, "direct"]],
                      "parameters": {"n_s": 1.0}}, indent=2)
    new = old.replace("0.25", "0.125").replace("direct", "reduced")
    assert _changes(old, new) == (0.5, ["f_quantum", "path"],
                                  [('      "direct"', '      "reduced"')])
    assert _changes(old, new.replace("1.0", "2.0"))[1] == ["parameters", "f_quantum", "path"]


def _capture() -> None:
    import contextlib
    import io

    previous = {" ".join(case["argv"]): case["stdout"]
                for case in json.loads(GOLDENS.read_text(encoding="utf-8"))["cases"]}
    cases = []
    for argv in _invocations():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0, argv
        cases.append({"argv": argv, "stdout": out.getvalue()})
        old = previous.get(" ".join(argv))
        if old is None:
            print(f"new: {' '.join(argv)}")
        elif old != out.getvalue():
            largest, moved, other = _changes(old, out.getvalue())
            print(f"changed: {' '.join(argv)}: largest relative change {largest:.3g} "
                  f"in {', '.join(moved)}")
            for before, after in other:
                print(f"  - {before}\n  + {after}")
    GOLDENS.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _capture()
