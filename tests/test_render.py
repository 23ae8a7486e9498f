"""The CSV and JSON renderers against cell-by-cell references.

``cli._render_csv`` formats a block of rows at a time column by column, and
``cli._render_json`` encodes a block of rows in one call and re-indents it;
both must write exactly what the references in ``helpers`` write for any
table of plain cells, at any block size.
"""

import contextlib
import io
import json
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpfkit import cli
from cpfkit.cli import Table, _db, _render_csv, _render_json, _Rows, main
from helpers import render_csv_oracle, render_json_oracle

_FLOATS = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308, -1e308]),
)
_TEXT = st.one_of(
    st.text(alphabet=st.sampled_from(list('ab "\\,\n\t]}[é☃')), max_size=6),
    st.just('"],\n      ["'),
)
_CELLS = st.one_of(_FLOATS, st.none(), st.booleans(), st.integers(-10**20, 10**20), _TEXT)


@st.composite
def _tables(draw):
    # a column of floats only takes the CSV renderer's fast path
    kinds = draw(st.lists(st.sampled_from([_FLOATS, _CELLS]), min_size=1, max_size=5))
    rows = draw(st.lists(st.tuples(*kinds), max_size=9))
    parameters = draw(st.dictionaries(st.sampled_from(["m", "n_s", "x"]), _CELLS, max_size=3))
    return Table("region", parameters, [f"c{i}" for i in range(len(kinds))], rows)


def _as_columns(table):
    """The table with its rows held as object columns in a _Rows."""
    columns = [np.array([row[i] for row in table.rows], dtype=object)
               for i in range(len(table.columns))]
    return Table(table.command, table.parameters, table.columns, _Rows(*columns))


# at a block of 1 or 2 rows, a block holding a non-finite cell sits next to
# blocks without one
@pytest.mark.parametrize("block", [1, 2, cli._BLOCK])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(table=_tables())
def test_renderers_match_the_cell_by_cell_references(block, table):
    rendered = _as_columns(table)
    with mock.patch.object(cli, "_BLOCK", block):
        assert _render_csv(rendered) == render_csv_oracle(table)
        assert _render_json(rendered) == render_json_oracle(table)


def _refuse(token):
    raise ValueError(f"not JSON: {token}")


def test_json_writes_a_non_finite_cell_as_null(capsys):
    # F_q underflows to 0 on two cells, where log10_ratio is -inf
    argv = ["region", "--quantum", "mixed", "--ns", "1000", "--x-points", "3", "--y-points", "3"]
    assert main([*argv, "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out, parse_constant=_refuse)
    assert main([*argv, "--format", "csv"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    column = header.split(",").index("log10_ratio")
    # CSV keeps the value, which float() reads back
    assert [line.split(",")[column] for line in lines].count("-inf") == 2
    assert [row[column] for row in document["rows"]].count(None) == 2


@pytest.mark.parametrize("argv", [
    ["figure", "--id", "6", "--resolution", "40", "--format", "csv"],
    ["figure", "--id", "6", "--resolution", "40", "--format", "json"],
    ["figure", "--id", "4", "--format", "csv"],
    ["figure", "--id", "4", "--format", "json"],
    ["region", "--quantum", "mixed", "--ns", "1000", "--x-points", "3", "--y-points", "3",
     "--format", "json"],
])
def test_printed_bytes_do_not_depend_on_the_block_size(argv, capsys, monkeypatch):
    printed = []
    for block in (1, 7, 1024):
        monkeypatch.setattr(cli, "_BLOCK", block)
        assert main(argv) == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1] == printed[2]


def test_db_is_none_where_the_fidelity_is_not_positive():
    edges = np.array([0.0, -0.0, float("nan"), -0.25, float("inf"), 1.0])
    assert _db(edges).tolist() == [None, None, None, None, float("inf"), 0.0]
    table = Table("region", {}, ["f", "f_db"], _Rows(edges, _db(edges)))
    csv_cells = [line.split(",")[1] for line in _render_csv(table).splitlines()[1:]]
    assert csv_cells == ["", "", "", "", "inf", "0.00000000000e+00"]
    json_cells = [row[1] for row in json.loads(_render_json(table))["rows"]]
    assert json_cells == [None, None, None, None, None, 0.0]


def test_db_matches_the_scalar_logarithm_bit_for_bit():
    rng = np.random.default_rng(16)
    values = np.concatenate([
        rng.random(40_000),
        10.0 ** rng.uniform(-300.5, -299.5, 20_000),  # near 1e-300
        rng.uniform(0.0, 2.3e-308, 20_000),  # subnormal or near it
        10.0 ** rng.uniform(-323.0, 308.0, 20_000),
        [5e-324, 2.2250738585072014e-308, 1.0, 1e308],
    ])
    values = values[values > 0.0]
    # among non-positive cells too, the vectorized logarithm is per element
    mixed = rng.permutation(np.concatenate([values, [0.0, -0.0, -1.0, float("nan")] * 50]))
    for column in (values, mixed):
        want = [10.0 * float(np.log10(v)) if v > 0.0 else None for v in column.tolist()]
        got = _db(column).tolist()
        assert [None if g is None else np.float64(g).view(np.int64) for g in got] == \
            [None if w is None else np.float64(w).view(np.int64) for w in want]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_rendering_peaks_under_three_times_the_printed_text(fmt):
    # figure 6 at resolution 101 prints 10,201 rows; whole-table rendering
    # peaked at 4.4 (JSON) and 4.9 (CSV) times the printed bytes
    argv = ["figure", "--id", "6", "--resolution", "101", "--format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 3 * len(out.getvalue().encode())
