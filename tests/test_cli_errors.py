"""Refused invocations: exit code, empty stdout and the flag the message names.

Every case in ``data/cli_errors.json`` is an invocation the command line
must refuse.  The file pins its exit code and the flags named after
``error:`` on stderr; the message must name one of them first, or none when
none are pinned.  The wording itself is not pinned.  A case may carry a
config file (written to a temporary path that replaces ``{config}`` in its
argv; with no ``config`` text the path does not exist); ``{dir}`` in its
argv stands for an empty temporary directory.  To capture the file again, run
``python tests/test_cli_errors.py`` from the repository root with ``src`` on
the path.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cpfkit.cli import main

CASES = Path(__file__).parent / "data" / "cli_errors.json"

_FLAG = re.compile(r"--[a-z][a-z-]*")

_FID = ["fidelity", "--m", "2", "--eta-b", "0.3", "--eta-t", "0.5", "--ns", "1"]
_SWP = ["sweep", "--variable", "eta_t", "--start", "0", "--stop", "1", "--points", "3",
        "--eta-b", "0.5", "--ns", "1"]
_REG = ["region", "--x-points", "3", "--y-points", "2", "--ns", "5"]
_KAP = ["kappa", "--m", "2", "--eta-b", "0.3", "--eta-t", "0.5", "--ns", "1"]
_CFG = ["--config", "{config}"]


def _invocations() -> list:
    """(argv, config text or None) for every refused invocation."""
    cases = [
        # fidelity: each scenario flag out of range, non-finite or non-numeric
        [*_FID, "--eta-b", "1.5"],
        [*_FID, "--eta-t", "-0.1"],
        [*_FID, "--eta-t", "nan"],
        [*_FID, "--ns", "0"],
        [*_FID, "--ns", "-1"],
        [*_FID, "--ns", "inf"],
        [*_FID, "--ns", "abc"],
        [*_FID, "--m", "1"],
        [*_FID, "--m", "2.5"],
        [*_FID, "--m-probes", "0.5"],
        [*_FID, "--m-probes", "inf"],
        [*_FID, "--kappa", "1.5"],
        [*_FID, "--kappa", "nan"],
        ["fidelity", "--m", "2", "--eta-t", "0.5", "--ns", "1"],
        ["fidelity", "--m", "3", "--eta-b", ".3", "--eta-t", ".5", "--ns", "1e300",
         "--protocol", "all"],
        ["fidelity", "--m", "3", "--eta-b", "1", "--eta-t", ".5", "--ns", "1e8",
         "--protocol", "bipartite", "--path", "direct"],
        [*_FID, "--m", "129", "--path", "direct"],
        [*_FID, "--protocol", "bogus"],
        [*_FID, "--path", "bogus"],
        [*_FID, "--format", "xml"],
        [*_FID, "--m", "abc"],
        [*_FID, "--kappa", "abc"],
        # sweep: grid endpoints, grid shape, protocol list
        [*_SWP, "--stop", "1.5"],
        [*_SWP, "--start", "-0.5"],
        [*_SWP, "--start", "nan"],
        [*_SWP, "--variable", "m", "--start", "2", "--stop", "3", "--eta-t", "0.5"],
        [*_SWP, "--variable", "m", "--start", "1", "--stop", "3", "--eta-t", "0.5"],
        [*_SWP, "--variable", "n_s", "--start", "0", "--stop", "1", "--eta-t", "0.5"],
        [*_SWP, "--variable", "m_probes", "--start", "0.5", "--stop", "2", "--eta-t", "0.5"],
        [*_SWP, "--points", "0"],
        [*_SWP, "--log"],
        [*_SWP, "--protocols", "classical,bogus"],
        [*_SWP, "--protocols", ","],
        [*_SWP, "--kappa", "2"],
        [*_SWP, "--eta-b", "-1"],
        [*_SWP, "--variable", "bogus"],
        [*_SWP, "--points", "2.5"],
        [*_SWP, "--start", "abc"],
        # region: axis endpoints, axes, budget, rounds, workers
        [*_REG, "--x-stop", "1.5"],
        [*_REG, "--y-start", "-0.1"],
        [*_REG, "--x", "n_s", "--x-start", "0", "--x-stop", "10"],
        [*_REG, "--x", "eta_t", "--y", "eta_t"],
        [*_REG, "--total-energy", "0"],
        [*_REG, "--total-energy", "1"],
        [*_REG, "--workers", "0"],
        [*_REG, "--x-points", "0"],
        [*_REG, "--m-probes", "0"],
        [*_REG, "--ns", "-1"],
        [*_REG, "--x", "n_s", "--x-start", "1", "--x-stop", "2", "--eta-t", "2"],
        [*_REG, "--x", "bogus"],
        [*_REG, "--y", "bogus"],
        [*_REG, "--quantum", "bogus"],
        [*_REG, "--x-points", "1.5"],
        [*_REG, "--workers", "1.5"],
        [*_REG, "--total-energy", "abc"],
        [*_REG, "--work", "1"],
        # kappa
        ["kappa", "--m", "2", "--eta-b", ".3", "--eta-t", ".5", "--ns", "1e200"],
        [*_KAP, "--eta-t", "1.01"],
        [*_KAP, "--m", "1"],
        [*_KAP, "--ns", "-inf"],
        [*_KAP, "--m-probes", "5"],
        # figure
        ["figure", "--id", "9"],
        ["figure", "--id", "6", "--resolution", "1"],
        ["figure", "--id", "6", "--resolution", "3", "--workers", "0"],
        ["figure", "--id", "0"],
        ["figure", "--id", "abc"],
        ["figure", "--id", "2.5"],
        ["figure", "--id", "6", "--resolution", "abc"],
        ["figure", "--id", "6", "--res", "3"],
    ]
    cases = [(argv, None) for argv in cases]
    cases += [
        # config files
        (["fidelity", *_CFG], None),
        (["fidelity", *_CFG], "{not json"),
        (["fidelity", *_CFG], "[1, 2]"),
        (["fidelity", *_CFG], '{"bogus_key": 1}'),
        (["fidelity", "--eta-t", "0.5", "--ns", "1", *_CFG], '{"eta_b": "abc"}'),
        ([*_KAP[:1], *_KAP[3:], *_CFG], '{"m": 2.5}'),
        ([*_KAP[:1], *_KAP[3:], *_CFG], '{"m": [2]}'),
        ([*_KAP[:1], *_KAP[3:], *_CFG], '{"m": 1e400}'),
        ([*_KAP[:-2], *_CFG], '{"ns": null}'),
        ([*_KAP[:-2], *_CFG], '{"ns": Infinity}'),
        ([*_SWP[:-6], *_SWP[-4:], *_CFG], '{"points": NaN}'),
        ([*_FID, *_CFG], '{"format": "xml"}'),
        ([*_FID, *_CFG], '{"protocol": "bogus"}'),
        ([*_SWP, *_CFG], '{"protocols": ""}'),
        (["figure", *_CFG], '{"id": 12}'),
        ([*_KAP, *_CFG], '{"m_probes": 5}'),
        # switches and the output path
        ([*_FID, *_CFG], '{"db": "false"}'),
        ([*_FID, *_CFG], '{"db": 1}'),
        (["sweep", "--variable", "n_s", "--start", "1", "--stop", "100", "--points", "3",
          "--eta-b", "0.5", "--eta-t", "0.9", *_CFG], '{"log": "false"}'),
        ([*_SWP, *_CFG], '{"log": 0}'),
        ([*_KAP, *_CFG], '{"output": 5}'),
        ([*_KAP, "--output", "{dir}"], None),
        ([*_KAP, "--output", "{dir}/missing/x.csv"], None),
    ]
    # nearly equal etas at a large n_s, where the fidelity kernel cannot run (at
    # m = 2 the pair's closed form answers them; tests/test_kernel_oracle.py)
    near = ["--eta-b", "0.5", "--eta-t", "0.500000001"]
    line = ["--x", "eta_t", "--x-start", "0.500000001", "--x-stop", "0.500000001",
            "--x-points", "1", "--y", "eta_b", "--y-start", "0.5", "--y-stop", "0.5",
            "--y-points", "1"]
    cases += [(argv, None) for argv in (
        ["fidelity", "--protocol", "all", "--m", "7", *near, "--ns", "1e20"],
        ["fidelity", "--protocol", "mixed", "--kappa", "0.1", "--m", "7", *near, "--ns", "1e20"],
        ["region", "--quantum", "mixed", "--m", "7", "--ns", "1e20", *line],
        ["sweep", "--protocols", "mixed", "--m", "7", "--eta-b", "0.5", "--ns", "1e20",
         "--variable", "eta_t", "--start", "0.500000001", "--stop", "0.500000001",
         "--points", "1"],
    )]
    return cases


def _case_id(case) -> str:
    argv, config = case
    return " ".join(argv if config is None else [*argv, config])


def named_flags(err: str) -> list:
    """The flags named after the last ``error:`` on stderr, in order."""
    if "error:" not in err:
        return []
    return _FLAG.findall(err.rpartition("error:")[2])


def _run(case, directory: Path) -> tuple:
    argv, config = case
    path = directory / "config.json"
    if config is not None:
        path.write_text(config, encoding="utf-8")
    argv = [a.replace("{config}", str(path)).replace("{dir}", str(directory)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def pinned() -> dict:
    cases = json.loads(CASES.read_text(encoding="utf-8"))["cases"]
    return {case["id"]: case for case in cases}


@pytest.mark.parametrize("case", _invocations(), ids=_case_id)
def test_refusal_keeps_exit_code_and_flag(case, pinned, tmp_path):
    expected = pinned[_case_id(case)]
    code, out, err = _run(case, tmp_path)
    assert code == expected["exit"], err
    assert out == ""
    assert "Traceback" not in err
    flags = named_flags(err)
    if expected["flags"]:
        assert flags and flags[0] in expected["flags"], err
    else:
        assert not flags, err


def test_every_pinned_case_is_run(pinned):
    assert set(pinned) == {_case_id(case) for case in _invocations()}


# what a config file can hold in a field
_JSON_VALUES = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([1e300, 1e100, -1e300, 1e75, 1e76, 5e-324, 0, -1, 3, 0.5]),
    st.text(max_size=4),
    st.none(),
    st.booleans(),
    st.lists(st.floats(), max_size=2),
)
_POINT = {"m": 2, "eta_b": 0.3, "eta_t": 0.5, "ns": 1.0}
_VALID = {**_POINT, "m_probes": 1.0}
# each command's valid base config, and the numeric keys drawn over it
_NUMERIC = {"fidelity": (_VALID, (*_VALID, "kappa")), "kappa": (_POINT, tuple(_POINT))}


def _answered_or_refused(command: str, config: dict, directory: Path, capsys) -> None:
    path = directory / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main([command, "--config", str(path)])
    out, err = capsys.readouterr()
    assert code in (0, 2), err
    if code == 2:
        assert out == ""
        assert named_flags(err), err
    assert "Traceback" not in err


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), command=st.sampled_from(sorted(_NUMERIC)))
def test_any_config_value_is_answered_or_refused(data, command, tmp_path, capsys):
    base, keys = _NUMERIC[command]
    values = data.draw(st.dictionaries(st.sampled_from(keys), _JSON_VALUES,
                                       min_size=1, max_size=2))
    _answered_or_refused(command, {**base, **values}, tmp_path, capsys)


# the non-numeric fields, on a valid base whose grid sizes stay small; each
# field also draws its valid spellings, so accepted values are reached too
_CHOICE_BASES = {
    "fidelity": _VALID,
    "sweep": {**_VALID, "variable": "eta_t", "start": 0.1, "stop": 0.9, "points": 3},
    "region": {**_VALID, "x_points": 3, "y_points": 2, "workers": 1},
}
_CHOICE_KEYS = {
    "fidelity": ("db", "format", "protocol", "path", "output"),
    "sweep": ("db", "log", "format", "protocols", "variable", "output"),
    "region": ("db", "format", "x", "y", "quantum", "output"),
}
_SPELLINGS = st.sampled_from(["csv", "json", "all", "auto", "direct", "mixed", "idler_free",
                              "classical,mixed", "eta_b", "n_s", "m", "m_probes"])
# a drawn string output is a path the test would write to
_CHOICE_VALUES = {"output": _JSON_VALUES.filter(lambda v: not isinstance(v, str))}


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), command=st.sampled_from(sorted(_CHOICE_KEYS)))
def test_any_config_choice_is_answered_or_refused(data, command, tmp_path, capsys):
    keys = data.draw(st.lists(st.sampled_from(_CHOICE_KEYS[command]), min_size=1, max_size=2,
                              unique=True))
    values = {k: data.draw(_CHOICE_VALUES.get(k, _JSON_VALUES | _SPELLINGS)) for k in keys}
    _answered_or_refused(command, {**_CHOICE_BASES[command], **values}, tmp_path, capsys)


def _capture() -> None:
    cases = []
    for case in _invocations():
        with tempfile.TemporaryDirectory() as directory:
            code, out, err = _run(case, Path(directory))
        assert code != 0 and out == "", case
        cases.append({"id": _case_id(case), "exit": code, "flags": named_flags(err)})
    CASES.write_text(json.dumps({"cases": cases}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _capture()
