"""Self-check of the benchmark's tracer.

Run from the repository root (it takes about a minute):

    python3 -m pytest -q perfbench/selfcheck.py

The file is not named ``test_*.py`` on purpose: the counts below pin the
package's current call structure, so a change that restructures a layer
(for example a batched DP round that no longer calls ``optimal_step`` per
level) updates them here, in the benchmark, not in the package's tests.

The count checks prove that no call site bypasses a wrapper: each count
must equal its closed form and repeat exactly on a second traced pass.
"""

from __future__ import annotations

import json
import sys
import types

import pytest

import run

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402

# Closed forms of the call counts of one pass, at this commit's call
# structure. paper-defaults: 8 DPs (2 caps x 4 effects) x 5 rounds x 101
# levels; 8 policy simulations x 10000 replicates; 2 x 10000 e-value
# growth paths plus 2 one-round references per DP. dp-fine-grid: 5 rounds
# x 401 levels. mc-null-audit: 20 strategies x 2000 replicates plus 20000
# misaligned ones. closed-form-sweep: one best response per (cost ratio,
# effect) and one per welfare panel.
EXPECTED_COUNTS = {
    "paper-defaults": {
        "multiround.optimizer.optimal_step.calls": 8 * 5 * 101,
        "gaussian.replicate_rng.calls": 8 * 10_000,
        "gaussian.sample_normal.calls": 2 * 10_000 + 2 * 8,
    },
    "dp-fine-grid": {
        "multiround.optimizer.optimal_step.calls": 5 * 401,
    },
    "mc-null-audit": {
        "gaussian.replicate_rng.calls": 20 * 2000 + 20_000,
        "multiround.simulate.simulate_strategy.replicates": 20 * 2000 + 20_000,
        "multiround.simulate.supermartingale_check.calls": 20,
    },
    "closed-form-sweep": {
        "single_round.np_best_response.calls": 400 * 50 + 2,
    },
}


def _fake_package(monkeypatch):
    """fakepkg.lower.leaf, copied into fakepkg.upper by a from-import, and
    fakepkg.upper.outer, also bound in a module-level dict."""
    lower = types.ModuleType("fakepkg.lower")
    exec(
        "import time\n"
        "def leaf(n):\n"
        "    time.sleep(0.01)\n"
        "    return n\n"
        "class Box:\n"
        "    def __call__(self, n):\n"
        "        return leaf(n)\n",
        lower.__dict__,
    )
    upper = types.ModuleType("fakepkg.upper")
    upper.leaf = lower.leaf
    exec(
        "def outer():\n"
        "    return leaf(1) + leaf(2)\n"
        "TABLE = {'outer': outer}\n",
        upper.__dict__,
    )
    for module in (types.ModuleType("fakepkg"), lower, upper):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return lower, upper


def test_wrappers_reach_copied_bindings_and_are_removed(monkeypatch):
    lower, upper = _fake_package(monkeypatch)
    original_leaf, original_outer = lower.leaf, upper.outer
    original_call = lower.Box.__dict__["__call__"]
    targets = (
        tracer.Target("lower.leaf", "fakepkg.lower", "leaf"),
        tracer.Target("lower.Box.__call__", "fakepkg.lower", "Box.__call__"),
        tracer.Target("upper.outer", "fakepkg.upper", "outer"),
    )
    with tracer.Tracer(targets, package="fakepkg") as t:
        assert upper.TABLE["outer"]() == 3
        assert lower.Box()(4) == 4
    summary = t.summary()
    assert summary["upper.outer"]["calls"] == 1
    assert summary["lower.leaf"]["calls"] == 3
    assert summary["lower.Box.__call__"]["calls"] == 1
    assert (upper.leaf, lower.leaf, upper.outer) == (original_leaf, original_leaf, original_outer)
    assert upper.TABLE["outer"] is original_outer
    assert lower.Box.__dict__["__call__"] is original_call


def test_self_time_excludes_child_spans(monkeypatch):
    lower, upper = _fake_package(monkeypatch)
    targets = (
        tracer.Target("lower.leaf", "fakepkg.lower", "leaf"),
        tracer.Target("upper.outer", "fakepkg.upper", "outer"),
    )
    with tracer.Tracer(targets, package="fakepkg") as t:
        with t.span("job"):
            upper.outer()
    summary = t.summary()
    outer, leaf, job = summary["upper.outer"], summary["lower.leaf"], summary["job"]
    assert leaf["self_s"] == pytest.approx(leaf["inclusive_s"])
    assert leaf["self_s"] >= 0.02
    assert outer["self_s"] == pytest.approx(outer["inclusive_s"] - leaf["inclusive_s"])
    assert outer["self_s"] < 0.01
    total_self = sum(entry["self_s"] for entry in summary.values())
    assert total_self == pytest.approx(job["inclusive_s"])


@pytest.fixture(scope="module")
def refs():
    return json.loads((run.BENCH_DIR / "references.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTS))
def test_counts_match_closed_forms_and_repeat(name, refs):
    workload = workloads.WORKLOADS[name](1, run.WORK / "selfcheck" / name, refs)
    checks = workloads.Checks()
    passes = []
    for _ in range(2):
        t = tracer.Tracer()
        run.run_pass(workload, checks, t)
        passes.append(tracer.layer_metrics(t))
    assert checks.failed == 0, checks.messages
    counts = [
        {metric: value for metric, (value, unit) in p.items() if unit not in ("s", "1/s")}
        for p in passes
    ]
    assert counts[0] == counts[1]
    for metric, want in EXPECTED_COUNTS[name].items():
        assert counts[0][metric] == want, metric


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
