"""Every callable the benchmark's tracer wraps must still exist.

``perfbench/tracer.py`` finds its targets by module and attribute name at
run time, so deleting or renaming one of them breaks
``perfbench/run.py --trace 1`` without failing any other test.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    name = "_perfbench_tracer"
    spec = importlib.util.spec_from_file_location(name, _TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("target", TARGETS, ids=[t.name for t in TARGETS])
def test_target_resolves(target):
    owner = importlib.import_module(target.module)
    cls_name, _, attr = target.attr.rpartition(".")
    if cls_name:
        # the tracer patches the method in the class's own namespace
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))
