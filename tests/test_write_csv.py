"""write_csv takes columns and formats and writes a chunk of rows at a time;
its bytes must be those of the cell-by-cell writer it replaced, kept here as
the oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evcontracts.experiments import _CHUNK, _cell, write_csv
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
# one-kind columns that may also be handed over as an ndarray of this dtype
DTYPES = {"float": np.float64, "np.float64": np.float64, "np.float32": np.float32,
          "np.int64": np.int64, "bool": np.bool_}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(KINDS)), min_size=1, max_size=5))
    n_rows = draw(st.integers(0, 8))
    columns = []
    for kind in kinds:
        cells = [draw(KINDS[kind]) for _ in range(n_rows)]
        if kind in DTYPES and draw(st.booleans()):
            columns.append(np.array(cells, dtype=DTYPES[kind]))
        else:
            columns.append(draw(st.sampled_from((tuple, list)))(cells))
    return [f"c{i}" for i in range(len(kinds))], columns


@settings(max_examples=300, deadline=None)
@given(tables())
def test_matches_the_cell_by_cell_writer(tmp_path_factory, table):
    header, columns = table
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == cell_by_cell(header, zip(*columns))


@pytest.mark.parametrize("as_arrays", (False, True))
def test_edge_values_in_every_column_kind(tmp_path, as_arrays):
    header = ["float", "f64", "f32", "i64", "bool", "verdict", "mixed"]
    rows = [
        [v, np.float64(v), np.float32(v), np.int64(i), i % 2 == 0, list(Verdict)[i % 3],
         (v, np.int64(i), True, Verdict.ALIGNED, "s")[i % 5]]
        for i, v in enumerate(EDGE_FLOATS)
    ]
    columns = [list(c) for c in zip(*rows)]
    if as_arrays:  # the float, f64, f32, i64 and bool columns
        columns[:5] = map(np.array, columns[:5])
        assert [c.dtype for c in columns[:5]] == [np.float64, np.float64, np.float32,
                                                 np.int64, np.bool_]
    path = tmp_path / "t.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == cell_by_cell(header, rows)


@pytest.mark.parametrize("n_rows", (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1))
def test_rows_across_chunk_edges(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    values = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-20, 20, n_rows)
    columns = [
        values,
        np.arange(n_rows),
        values.astype(np.float32),
        values.tolist(),
        [(v, i, "s")[i % 3] for i, v in enumerate(values.tolist())],
    ]
    header = [f"c{i}" for i in range(len(columns))]
    path = tmp_path / "t.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == cell_by_cell(header, zip(*columns))


def test_zero_length_columns_write_the_header(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[], np.empty(0)])
    assert path.read_bytes() == b"a,b\n"


@pytest.mark.parametrize("columns", (
    [[1.0], [1.0, 2.0]],  # unequal lengths
    [[1.0]],  # fewer columns than header fields
    [[1.0], [2.0], [3.0]],  # more
))
def test_columns_that_do_not_fit_the_header_raise(tmp_path, columns):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="needs 2 columns of one length"):
        write_csv(path, ["a", "b"], columns)
    assert not path.exists()


def _peak_bytes(path, n_rows):
    """tracemalloc's peak while write_csv writes three float64 columns of
    n_rows; the columns are made before tracing starts."""
    columns = [np.random.default_rng(i).standard_normal(n_rows) for i in range(3)]
    tracemalloc.start()
    try:
        write_csv(path, ["a", "b", "c"], columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunks_are_written_as_they_are_formatted(tmp_path):
    # the peak is one chunk's text and cells, not the whole file's: four
    # times the rows (eight chunks, not two) stays within a quarter more
    small = _peak_bytes(tmp_path / "small.csv", 2 * _CHUNK + 1)
    large = _peak_bytes(tmp_path / "large.csv", 8 * _CHUNK + 4)
    assert large <= 1.25 * small
