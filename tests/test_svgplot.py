"""Plot ranges and axis ticks on degenerate data: every plot renders."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import evcontracts
from evcontracts.svgplot import render_lines


@pytest.mark.parametrize(
    "xs, ys",
    (
        # point ranges, where widening by 1 rounds away
        ([1e17, 1e17], [0.0, 1.0]),
        ([1.0, 2.0], [-1.75e16, -1.75e16]),
        # a range whose tick step underflows to 0
        ([1.0, 2.0], [0.0, 5e-324]),
    ),
)
def test_degenerate_range_renders(tmp_path, xs, ys):
    path = tmp_path / "plot.svg"
    render_lines(path, [("series", xs, ys)], "title", "x", "y")
    assert path.read_text(encoding="utf-8").endswith("</svg>\n")


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
