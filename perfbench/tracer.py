"""Span tracer that wraps the package's public functions from the outside.

Each wrapped call records a span (name, start, end, parent) in memory; the
spans are written out when the benchmark ends. A wrapper is installed in
every namespace of the package that binds the original object, including
module-level dicts such as ``experiments.RUNNERS``, because ``from x import
f`` copies the binding: patching only the defining module would miss calls
such as ``dp.optimal_step`` or ``experiments.backward_induction``.

A layer's self time is its span's duration minus the durations of its
direct child spans. Calls are single-threaded and properly nested, so the
children of a span never overlap.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

PACKAGE = "evcontracts"


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    ``attr`` is an attribute of ``module`` or ``Class.method``. ``record``,
    if given, adds to the target's tallies from (args, kwargs, result).
    """

    name: str
    module: str
    attr: str
    record: Callable[[Counter, tuple, dict, object], None] | None = None


def _arg(args: tuple, kwargs: dict, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _hull_knots(tally, args, kwargs, hull):
    tally["knots"] += len(hull.knots)


def _dp_level_rounds(tally, args, kwargs, policy):
    tally["level_rounds"] += policy.horizon * (policy.grid.levels + 1)


def _replicates(tally, args, kwargs, episodes):
    tally["replicates"] += len(episodes)


def _supermartingale(tally, args, kwargs, report):
    tally["replicates"] += len(_arg(args, kwargs, 0, "episodes"))
    tally["flagged"] += not report.passes


def _csv_bytes(tally, args, kwargs, result):
    tally["bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# Public functions of every layer a workload reaches. multiround.discrete is
# left out: only the tests call it.
TARGETS = (
    Target("gaussian.upper_tail_inverse", "evcontracts.gaussian", "upper_tail_inverse"),
    Target("gaussian.replicate_rng", "evcontracts.gaussian", "replicate_rng"),
    Target("gaussian.sample_normal", "evcontracts.gaussian", "sample_normal"),
    Target("licenses.null_expectation", "evcontracts.licenses", "null_expectation"),
    Target("licenses.LicenseFn.__call__", "evcontracts.licenses", "LicenseFn.__call__"),
    Target("single_round.np_best_response", "evcontracts.single_round", "np_best_response"),
    Target("welfare.welfare_curve", "evcontracts.welfare", "welfare_curve"),
    Target("fda.audit_table", "evcontracts.fda", "audit_table"),
    Target(
        "multiround.values.concave_monotone_hull",
        "evcontracts.multiround.values",
        "concave_monotone_hull",
        _hull_knots,
    ),
    Target(
        "multiround.optimizer.optimal_step",
        "evcontracts.multiround.optimizer",
        "optimal_step",
    ),
    Target(
        "multiround.optimizer.solve_lambda",
        "evcontracts.multiround.optimizer",
        "solve_lambda",
    ),
    Target(
        "multiround.optimizer.null_expectation_of_update",
        "evcontracts.multiround.optimizer",
        "null_expectation_of_update",
    ),
    Target(
        "multiround.dp.backward_induction",
        "evcontracts.multiround.dp",
        "backward_induction",
        _dp_level_rounds,
    ),
    Target(
        "multiround.simulate.simulate_policy",
        "evcontracts.multiround.simulate",
        "simulate_policy",
        _replicates,
    ),
    Target(
        "multiround.simulate.simulate_strategy",
        "evcontracts.multiround.simulate",
        "simulate_strategy",
        _replicates,
    ),
    Target(
        "multiround.simulate.supermartingale_check",
        "evcontracts.multiround.simulate",
        "supermartingale_check",
        _supermartingale,
    ),
    Target("experiments.write_csv", "evcontracts.experiments", "write_csv", _csv_bytes),
    Target("svgplot.render_lines", "evcontracts.svgplot", "render_lines"),
    Target("experiments.run_welfare", "evcontracts.experiments", "run_welfare"),
    Target("experiments.run_fda_audit", "evcontracts.experiments", "run_fda_audit"),
    Target("experiments.run_best_response", "evcontracts.experiments", "run_best_response"),
    Target("experiments.run_evalue_growth", "evcontracts.experiments", "run_evalue_growth"),
    Target("experiments.run_multiround", "evcontracts.experiments", "run_multiround"),
    Target("cli.main", "evcontracts.cli", "main"),
)


class Tracer:
    """Records spans of the wrapped callables while installed (``with``)."""

    def __init__(self, targets=TARGETS, package: str = PACKAGE):
        self.targets = tuple(targets)
        self.package = package
        self.names = [t.name for t in self.targets]
        self.tallies = {t.name: Counter() for t in self.targets}
        self._name_id = array("i")
        self._parent = array("q")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._undo: list[Callable[[], None]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int) -> int:
        span = len(self._start)
        self._name_id.append(name_id)
        self._parent.append(self._stack[-1])
        self._end.append(0)
        self._stack.append(span)
        self._start.append(time.perf_counter_ns())
        return span

    def _close(self, span: int) -> None:
        self._end[span] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Span around benchmark code, e.g. one job of a workload."""
        if name not in self.names:
            self.names.append(name)
        span = self._open(self.names.index(name))
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name_id: int, fn: Callable, record) -> Callable:
        tally = self.tallies[self.names[name_id]]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if record is not None:
                record(tally, args, kwargs, result)
            return result

        return traced

    # -- installing ------------------------------------------------------

    def _namespaces(self):
        for mod_name, module in list(sys.modules.items()):
            if mod_name == self.package or mod_name.startswith(self.package + "."):
                yield module

    def __enter__(self) -> "Tracer":
        for name_id, target in enumerate(self.targets):
            owner = sys.modules[target.module]
            cls_name, _, method = target.attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(name_id, original, target.record))
                self._undo.append(functools.partial(setattr, cls, method, original))
                continue
            original = getattr(owner, target.attr)
            wrapper = self._wrap(name_id, original, target.record)
            for module in self._namespaces():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append(functools.partial(setattr, module, key, original))
                    elif type(value) is dict:
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                value[dkey] = wrapper
                                self._undo.append(
                                    functools.partial(value.__setitem__, dkey, original)
                                )
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()

    # -- results ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        name_id = np.frombuffer(self._name_id, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        dur = (
            np.frombuffer(self._end, dtype=np.int64)
            - np.frombuffer(self._start, dtype=np.int64)
        ).astype(float)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        inclusive = np.bincount(name_id, weights=dur, minlength=k)
        self_ns = np.bincount(name_id, weights=dur - children, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "inclusive_s": inclusive[i] * 1e-9,
                "self_s": self_ns[i] * 1e-9,
            }
            for i, name in enumerate(self.names)
        }

    def write_spans(self, handle, trace_id: int) -> None:
        """Append spans as ``trace id, span, name, start ns, end ns, parent``."""
        for i, (n, s, e, p) in enumerate(
            zip(self._name_id, self._start, self._end, self._parent)
        ):
            handle.write(f"{trace_id}\t{i}\t{self.names[n]}\t{s}\t{e}\t{p}\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    summary = tracer.summary()
    tally = tracer.tallies
    metrics: dict[str, tuple[float, str]] = {}
    for target in tracer.targets:
        metrics[f"{target.name}.calls"] = (summary[target.name]["calls"], "count")
        metrics[f"{target.name}.self_s"] = (summary[target.name]["self_s"], "s")

    hull = "multiround.values.concave_monotone_hull"
    metrics[f"{hull}.knots_mean"] = (
        _ratio(tally[hull]["knots"], summary[hull]["calls"]), "count"
    )
    spend_evals = summary["multiround.optimizer.null_expectation_of_update"]["calls"]
    metrics["multiround.optimizer.spend_evals"] = (spend_evals, "count")
    metrics["multiround.optimizer.spend_evals_per_solve"] = (
        _ratio(spend_evals, summary["multiround.optimizer.solve_lambda"]["calls"]), "ratio"
    )
    dp = "multiround.dp.backward_induction"
    metrics["multiround.dp.level_rounds_per_s"] = (
        _ratio(tally[dp]["level_rounds"], summary[dp]["inclusive_s"]), "1/s"
    )
    for name in ("simulate_policy", "simulate_strategy", "supermartingale_check"):
        full = f"multiround.simulate.{name}"
        metrics[f"{full}.replicates"] = (tally[full]["replicates"], "count")
    check = "multiround.simulate.supermartingale_check"
    metrics[f"{check}.flagged"] = (tally[check]["flagged"], "count")
    metrics["experiments.write_csv.bytes"] = (tally["experiments.write_csv"]["bytes"], "B")
    return metrics
