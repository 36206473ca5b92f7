"""Plot ranges and axis ticks on degenerate data: every plot renders.
The polyline points match the scalar point loop the writer replaced; bad
points raise before a file is written; text is escaped. Whole-file digests
pin the tick, legend, zero-line and escaping markup of the edge cases."""

import hashlib
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import evcontracts
from evcontracts.svgplot import _escape, render_lines

DEGENERATE = (
    # point ranges, where widening by 1 rounds away
    ([1e17, 1e17], [0.0, 1.0]),
    ([1.0, 2.0], [-1.75e16, -1.75e16]),
    # a range whose tick step underflows to 0
    ([1.0, 2.0], [0.0, 5e-324]),
)


def scalar_points(series) -> list[str]:
    """Each series' points attribute as the per-point loop spelled it."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = max(x_lo + 1.0, math.nextafter(x_lo, math.inf))
    if y_hi == y_lo:
        y_hi = max(y_lo + 1.0, math.nextafter(y_lo, math.inf))
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return 70 + (x - x_lo) / (x_hi - x_lo) * 620

    def sy(y):
        return 40 + (y_hi - y) / (y_hi - y_lo) * 365

    return [" ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys)) for _, xs, ys in series]


def written_points(tmp_path, series) -> list[str]:
    path = tmp_path / "plot.svg"
    render_lines(path, series, "title", "x", "y")
    return re.findall(r'<polyline points="([^"]*)"', path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("xs, ys", DEGENERATE)
def test_degenerate_range_renders(tmp_path, xs, ys):
    series = [("series", xs, ys)]
    assert written_points(tmp_path, series) == scalar_points(series)
    assert (tmp_path / "plot.svg").read_text(encoding="utf-8").endswith("</svg>\n")


def test_long_series_match_the_scalar_loop(tmp_path):
    # more points than one formatting chunk, as numpy floats and as ints
    xs = np.linspace(0.0, 1.0, 10_001)
    series = [("a", xs, np.sin(7 * xs)), ("b", range(10_001), (xs ** 2).tolist())]
    assert written_points(tmp_path, series) == scalar_points(series)


def coordinates(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=30)


TINY = st.floats(1.0, 1.0 + 1e-12)
SERIES_VALUES = st.one_of(
    coordinates(-1e6, 1e6),
    coordinates(-1e300, 1e300),  # wide: the padded range stays finite
    st.lists(TINY, min_size=1, max_size=30),
    # integers whose differences are exact doubles, as in the scalar loop
    st.lists(st.integers(-2**52, 2**52), min_size=1, max_size=30),
)


@st.composite
def plots(draw):
    series = []
    for i in range(draw(st.integers(1, 3))):
        xs = draw(SERIES_VALUES)
        ys = draw(st.lists(draw(st.sampled_from((TINY, st.floats(-1e6, 1e6), st.integers(-99, 99)))),
                           min_size=len(xs), max_size=len(xs)))
        series.append((f"s{i}", xs, ys))
    return series


@settings(max_examples=200, deadline=None)
@given(plots())
def test_points_match_the_scalar_loop(tmp_path_factory, series):
    tmp_path = tmp_path_factory.mktemp("svg")
    assert written_points(tmp_path, series) == scalar_points(series)


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_a_non_finite_point_raises_naming_its_series(tmp_path, bad):
    path = tmp_path / "plot.svg"
    series = [("fine", [0.0, 1.0], [0.0, 1.0]), ("s", [0.0, 1.0, 2.0], [0.0, bad, 1.0])]
    with pytest.raises(ValueError, match="series 's' has a non-finite point"):
        render_lines(path, series, "t", "x", "y")
    with pytest.raises(ValueError, match="series 's' has a non-finite point"):
        render_lines(path, [("s", [0.0, bad], [0.0, 1.0])], "t", "x", "y")
    assert not path.exists()


def test_an_overflowing_range_raises(tmp_path):
    path = tmp_path / "plot.svg"
    with pytest.raises(ValueError, match="overflows"):
        render_lines(path, [("s", [0.0, 1.0], [0.0, 1.7e308])], "t", "x", "y")
    with pytest.raises(ValueError, match="overflows"):
        render_lines(path, [("s", [-1e308, 1e308], [0.0, 1.0])], "t", "x", "y")
    assert not path.exists()


def test_xs_and_ys_of_different_lengths_raise(tmp_path):
    path = tmp_path / "plot.svg"
    with pytest.raises(ValueError, match="series 's' has 3 xs but 2 ys"):
        render_lines(path, [("s", [0.0, 1.0, 2.0], [0.0, 1.0])], "t", "x", "y")
    assert not path.exists()


def test_text_is_escaped(tmp_path):
    path = tmp_path / "plot.svg"
    render_lines(path, [("s<&", [0.0, 1.0], [0.0, 1.0]), ("a>b", [0.0], [2.0])],
                 "title & <more>", "x < 1", "y > 0")
    texts = [t.text for t in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")]
    for text in ("s<&", "a>b", "title & <more>", "x < 1", "y > 0"):
        assert text in texts


# (series, title, xlabel, ylabel) -> SHA-256 of the written file
PINNED = [
    *(([("series", xs, ys)], "title", "x", "y") for xs, ys in DEGENERATE),
    # every text element needs escaping
    ([("s<&", [0.0, 1.0], [0.0, 1.0]), ("a>b", [0.0], [2.0])], "title & <more>", "x < 1", "y > 0"),
    # seven series: the colour cycle wraps
    ([(f"series {i}", [0.0, 1.0, 2.0], [i, i + 0.5, 2 * i]) for i in range(7)], "seven", "x", "y"),
    # a y range across 0 draws the dashed zero line, one above 0 does not
    ([("s", [0.0, 1.0], [-1.0, 2.0])], "t", "x", "y"),
    ([("s", [0.0, 1.0], [1.0, 2.0])], "t", "x", "y"),
]
PINNED_DIGESTS = [
    "0e4d452776ef1a612fd889616c80693f5ef85dd31bd4493b6cea5b8556d86be8",
    "2a3e95d9ea532bce24da41eefb87d5a6c6e18641e480f50122e4f377b5c61386",
    "f2c2f2c5faaaa4b2161de9f72878a8d54163694d6cdce184c7880f33cfd068ce",
    "889a428a391d9d3507056c8400deba718bca5dc9bf6e6f8419883133a22625c6",
    "416284b26ce09af7f6b0dc642b9d014208f99246ee336e607a667ec372d62dd0",
    "c2d60685a0c7b8cbfa1e7b78158482dc2c1fecf0a88f2d3a12c1ee71a3efcf4f",
    "e5c731fa0b6357a9bd2079c580fac038b4109e87c9e22252cea82cad34045b55",
]


@pytest.mark.parametrize("plot, digest", zip(PINNED, PINNED_DIGESTS))
def test_edge_case_files_are_pinned(tmp_path, plot, digest):
    path = tmp_path / "plot.svg"
    render_lines(path, *plot)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_zero_line_only_where_the_y_range_holds_0(tmp_path):
    path = tmp_path / "plot.svg"
    for plot, dashed in ((PINNED[-2], 1), (PINNED[-1], 0)):
        render_lines(path, *plot)
        assert path.read_text(encoding="utf-8").count("stroke-dasharray") == dashed


@given(st.text())
def test_escape_matches_saxutils(text):
    assert _escape(text) == escape(text)


# 1e16 + 0.5 rounds back to 1e16, so stepping by 0.5 never passes 1e16 + 2.
# The probe caps its own address space: a tick loop that never ends fails
# with MemoryError instead of filling the machine's memory.
_TICK_PROBE = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
from evcontracts.svgplot import _ticks
print(_ticks(1e16, 1e16 + 2.0))
"""


def test_tick_step_below_the_value_spacing_ends():
    env = {**os.environ, "PYTHONPATH": str(Path(evcontracts.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _TICK_PROBE],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == repr([1e16] * 6)
