"""The CSV and JSON renderers against cell-by-cell references.

``cli._render_csv`` formats whole columns and ``cli._render_json`` encodes
all rows in one call and re-indents them; both must write exactly what the
references in ``helpers`` write for any table of plain cells.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from cpfkit.cli import Table, _render_csv, _render_json, main
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
    rows = draw(st.lists(st.tuples(*kinds), max_size=6))
    parameters = draw(st.dictionaries(st.sampled_from(["m", "n_s", "x"]), _CELLS, max_size=3))
    return Table("region", parameters, [f"c{i}" for i in range(len(kinds))], rows)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(table=_tables())
def test_renderers_match_the_cell_by_cell_references(table):
    assert _render_csv(table) == render_csv_oracle(table)
    assert _render_json(table) == render_json_oracle(table)


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
