"""write_csv formats a column at a time; its bytes must be those of the
cell-by-cell writer it replaced, kept here as the oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evcontracts.experiments import _cell, write_csv
from evcontracts.fda import Verdict

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 1e12, 1e-7, 0.1)


def cell_by_cell(header, rows) -> bytes:
    text = ",".join(header) + "\n"
    text += "".join(",".join(map(_cell, row)) + "\n" for row in rows)
    return text.encode("utf-8")


floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
KINDS = {
    "float": floats,
    "np.float64": floats.map(np.float64),
    "np.float32": st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=32)).map(np.float32),
    "int": st.integers(),
    "np.int64": st.integers(-2**63, 2**63 - 1).map(np.int64),
    "bool": st.booleans(),
    "str": st.text(st.characters(exclude_categories=("Cs",)), max_size=8),
    "Verdict": st.sampled_from(Verdict),
}
KINDS["mixed"] = st.one_of(*KINDS.values())


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=5))
    n_rows = draw(st.integers(0, 8))
    row_type = draw(st.sampled_from((tuple, list)))
    rows = [row_type(draw(KINDS[kind]) for kind in kinds) for _ in range(n_rows)]
    return [f"c{i}" for i in range(len(kinds))], rows


@settings(max_examples=300, deadline=None)
@given(tables())
def test_matches_the_cell_by_cell_writer(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, header, rows)
    assert path.read_bytes() == cell_by_cell(header, rows)


def test_edge_values_in_every_column_kind(tmp_path):
    header = ["float", "f64", "f32", "i64", "bool", "verdict", "mixed"]
    rows = [
        [v, np.float64(v), np.float32(v), np.int64(i), i % 2 == 0, list(Verdict)[i % 3],
         (v, np.int64(i), True, Verdict.ALIGNED, "s")[i % 5]]
        for i, v in enumerate(EDGE_FLOATS)
    ]
    path = tmp_path / "t.csv"
    write_csv(path, header, rows)
    assert path.read_bytes() == cell_by_cell(header, rows)


def test_zero_rows_write_the_header(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [])
    assert path.read_bytes() == b"a,b\n"


@pytest.mark.parametrize("rows", ([(1.0,)], [(1.0, 2.0), (1.0, 2.0, 3.0)]))
def test_a_row_of_another_width_than_the_header_raises(tmp_path, rows):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="must have 2 cells"):
        write_csv(path, ["a", "b"], rows)
    assert not path.exists()
