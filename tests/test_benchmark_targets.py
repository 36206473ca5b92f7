"""The benchmark must still run against the package's current API.

``perfbench/tracer.py`` finds its targets by module and attribute name at
run time, and its record hooks read fields of their results, so deleting or
renaming one of them breaks ``perfbench/run.py --trace 1`` without failing
any other test; likewise an API edit that a workload's jobs depend on, or a
change to the output files its checks read, breaks ``perfbench/run.py``.
"""

import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from evcontracts.cli import main
from evcontracts.experiments import write_csv
from evcontracts.gaussian import RandomStream
from evcontracts.multiround import (
    LicenseGrid,
    RandomizedAlignedStrategy,
    backward_induction,
    concave_monotone_hull,
    simulate_policy,
    simulate_strategy,
    supermartingale_check,
)

_BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def _load_bench_module(stem: str):
    name = f"_perfbench_{stem}"
    spec = importlib.util.spec_from_file_location(name, _BENCH_DIR / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


TARGETS = _load_bench_module("tracer").TARGETS
_workloads = _load_bench_module("workloads")
WORKLOADS = _workloads.WORKLOADS


@pytest.mark.parametrize("target", TARGETS, ids=[t.name for t in TARGETS])
def test_target_resolves(target):
    owner = importlib.import_module(target.module)
    cls_name, _, attr = target.attr.rpartition(".")
    if cls_name:
        # the tracer patches the method in the class's own namespace
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))


def _record_calls(tmp_path):
    """For each target with a record hook: a real call's (args, kwargs) and
    the tally the hook must add from them and the call's result."""
    policy = backward_induction(3, 0.1, 1.645, LicenseGrid.from_cap(1.0, 8))
    strategy = RandomizedAlignedStrategy.draw(np.random.default_rng(1), 3)
    episodes = simulate_strategy(strategy, 3, [0.1] * 3, 0.0, 20, RandomStream(1, 0))
    csv = tmp_path / "t.csv"
    return {
        "multiround.values.concave_monotone_hull": (
            ([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 2.5, 2.6]), {}, {"knots": 4}
        ),
        "multiround.dp.backward_induction": (
            (3, 0.1, 1.645, LicenseGrid.from_cap(1.0, 8)), {}, {"level_rounds": 27}
        ),
        "multiround.simulate.simulate_policy": (
            (policy, 1.645, 30, RandomStream(2, 0)), {}, {"replicates": 30}
        ),
        "multiround.simulate.simulate_strategy": (
            (strategy, 3, [0.1] * 3, 0.0, 40, RandomStream(3, 0)), {}, {"replicates": 40}
        ),
        "multiround.simulate.supermartingale_check": (
            (episodes,), {"costs": [0.1] * 3}, {"replicates": 20, "flagged": 0}
        ),
        "experiments.write_csv": (
            (csv, ["a", "b"], [(1,), (2.5,)]), {}, {"bytes": len("a,b\n1,2.5\n")}
        ),
    }


def test_record_hooks_read_real_results(tmp_path):
    # each hook runs on what its target returns, as under --trace 1
    calls = _record_calls(tmp_path)
    hooked = [t for t in TARGETS if t.record is not None]
    assert sorted(t.name for t in hooked) == sorted(calls)
    for target in hooked:
        args, kwargs, want = calls[target.name]
        owner = importlib.import_module(target.module)
        result = getattr(owner, target.attr)(*args, **kwargs)
        tally = Counter()
        target.record(tally, args, kwargs, result)
        assert dict(tally) == want, target.name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_warm_up_jobs_succeed(name, tmp_path):
    refs = json.loads((_BENCH_DIR / "references.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[name](1, tmp_path / name, refs)
    workload.clear_outputs()
    assert workload.warm_up_jobs
    for label, job in workload.warm_up_jobs:
        assert job() is True, label


def test_policy_root_reads_the_cli_policy_file(tmp_path):
    # the workloads' checks read the DP root from the policy file's second
    # line; the warm-up test above runs their jobs but never their checks
    out = tmp_path / "m"
    argv = ["multiround", "--out", str(out), "--reps", "10", "--param", "horizon=3",
            "--param", "levels=8", "--param", "caps=1", "--param", "theta_grid=1.645"]
    assert main(argv) == 0
    want = backward_induction(3, 0.1, 1.645, LicenseGrid.from_cap(1.0, 8)).root_value
    got = _workloads.policy_root(out / "multiround_policy.txt")
    assert abs(got - want) <= _workloads.ROOT_TOL
