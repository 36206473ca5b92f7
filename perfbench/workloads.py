"""The benchmark's workloads: inputs made from the seed, a fixed job list,
and checks of the program's outputs.

Every workload drives the package through its public API only: the CLI
entry point ``evcontracts.cli.main`` or the ``evcontracts.multiround``
functions. Functions are looked up on their module at call time, so the
tracer's wrappers see every call.

Checks use tolerances that survive legitimate numerical changes: values
are compared with references recorded from the package, or with closed
forms evaluated independently through ``scipy.special``; Monte Carlo means
must sit within 5 standard errors of their expectation.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import shutil
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import special

from evcontracts import cli
from evcontracts import multiround as mr
from evcontracts.gaussian import RandomStream

REL_TOL = 1e-10  # closed-form values
ABS_TOL = 1e-12  # values that are zero or cancel to near zero
ROOT_TOL = 1e-8  # DP root values
MC_SE = 5.0  # Monte Carlo tolerance in standard errors

# Per-approval utilities (cost of approving a null, gain of approving an
# effective product) of the two severities in the paper.
SEVERITIES = {"high": (-1.0, 10.0), "low": (-1.0, 4.0 / 7.0)}
STATUS_QUO_LEVEL = 0.05
PROTOCOLS = (("standard", 0.000625), ("modernized", 0.005), ("accelerated", 0.0494))

Job = Callable[[], bool]


class Checks:
    """Tally of attempted and failed jobs and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._note(what)

    def _note(self, message: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(message)

    def close(self, got: float, want: float, what: str, rel=REL_TOL, abs_=ABS_TOL) -> None:
        self.expect(
            math.isclose(got, want, rel_tol=rel, abs_tol=abs_),
            f"{what}: got {got!r}, want {want!r}",
        )

    def close_all(self, got, want, what: str) -> None:
        """Element-wise :meth:`close` over arrays; one check per element."""
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        self.attempted += want.size
        if got.shape != want.shape:
            self.failed += want.size
            self._note(f"{what}: shape {got.shape}, want {want.shape}")
            return
        scale = np.maximum(np.abs(got), np.abs(want))
        bad = np.flatnonzero(~(np.abs(got - want) <= np.maximum(REL_TOL * scale, ABS_TOL)))
        if bad.size:
            self.failed += bad.size
            i = bad[0]
            self._note(f"{what}: {bad.size} values off, first at row {i}: got {got[i]!r}, want {want[i]!r}")

    def within_se(self, mean: float, se: float, want: float, what: str) -> None:
        self.expect(
            abs(mean - want) <= MC_SE * se + ABS_TOL,
            f"{what}: {mean!r} is more than {MC_SE} SE ({se!r}) from {want!r}",
        )


def cli_job(argv: list[str]) -> Job:
    def job() -> bool:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv) == 0

    return job


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def read_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    return dict(zip(header, map(list, zip(*rows)))) if rows else dict.fromkeys(header, [])


def floats(column: list[str]) -> np.ndarray:
    return np.array(column, dtype=float)


def upper_tail(x: float) -> float:
    return float(special.ndtr(-x))


def upper_tail_inverse(p: float) -> float:
    return float(-special.ndtri(p))


def one_round_profit(theta: float, cost: float, cap: float) -> float:
    """Expected profit of the all-or-nothing best response at effect theta."""
    if cost >= cap:
        return cap - cost
    return cap * upper_tail(upper_tail_inverse(cost / cap) - theta) - cost


def policy_root(path: Path) -> float:
    """Value at t=1, level 0 of an exported policy table."""
    with open(path, encoding="utf-8") as handle:
        handle.readline()
        t, level, *_, value = handle.readline().rstrip("\n").split(",")
    if (t, float(level)) != ("1", 0.0):
        raise ValueError(f"{path}: second line is not t=1, level 0")
    return float(value)


def check_multiround(checks: Checks, out: Path, roots: dict[str, float], caps, cost) -> None:
    """Each profit_multi against the recorded DP root value of its (cap,
    theta), each profit_one_round against its closed form."""
    for cap in caps:
        for row in read_csv(out / f"multiround_profit_cap{cap:g}.csv"):
            theta = float(row["theta1"])
            key = f"{cap:g}:{theta:g}"
            checks.within_se(
                float(row["profit_multi"]), float(row["se_multi"]), roots[key],
                f"multiround cap {key} profit_multi",
            )
            checks.within_se(
                float(row["profit_one_round"]), float(row["se_one_round"]),
                one_round_profit(theta, cost, cap),
                f"multiround cap {key} profit_one_round",
            )


class Workload:
    """A fixed job list made from a seed, with checks of its outputs."""

    name = ""

    def __init__(self, seed: int, work_dir: Path, refs: dict):
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.refs = refs
        self.jobs: list[tuple[str, Job]] = []
        self.warm_up_jobs: list[tuple[str, Job]] = []

    def program_seed(self) -> int:
        return self.rng.randrange(1, 2**31)

    def out(self, label: str) -> Path:
        return self.work_dir / label

    def clear_outputs(self) -> None:
        """Remove the previous pass's files, so a check never reads them."""
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)

    def check(self, checks: Checks) -> None:
        raise NotImplementedError


class PaperDefaults(Workload):
    name = "paper-defaults"

    def __init__(self, seed, work_dir, refs):
        super().__init__(seed, work_dir, refs)
        s = str(self.program_seed())
        for command in ("welfare", "fda-audit", "best-response", "evalue-growth", "multiround"):
            argv = [command, "--out", str(self.out(command)), "--seed", s]
            self.jobs.append((command, cli_job(argv)))
        tiny = {
            "evalue-growth": ["--param", "n_max=5", "--reps", "10"],
            "multiround": ["--param", "levels=4", "--reps", "10"],
        }
        for command, _ in self.jobs:
            argv = [command, "--out", str(self.out("warm-up")), "--seed", s]
            self.warm_up_jobs.append((command, cli_job(argv + tiny.get(command, []))))

    def check(self, checks: Checks) -> None:
        refs = self.refs["paper-defaults"]
        for panel, ref_rows in refs["welfare"].items():
            rows = read_csv(self.out("welfare") / f"welfare_panel_{panel}.csv")
            checks.expect(len(rows) == len(ref_rows), f"welfare panel {panel} row count")
            for row, ref in zip(rows, ref_rows):
                for column, want in zip(("pi0", "utility_aligned", "utility_status_quo"), ref):
                    checks.close(float(row[column]), want, f"welfare {panel} {column}")
        rows = read_csv(self.out("best-response") / "best_response.csv")
        checks.expect(len(rows) == len(refs["best_response"]), "best-response row count")
        columns = ("cost_ratio", "theta1", "threshold", "power", "expected_profit")
        for row, ref in zip(rows, refs["best_response"]):
            for column, want in zip(columns, ref):
                checks.close(float(row[column]), want, f"best-response {column}")
        rows = read_csv(self.out("fda-audit") / "fda_audit.csv")
        checks.expect(len(rows) == len(refs["fda_audit"]), "fda-audit row count")
        for row, (protocol, p, profit, cost, ev, verdict) in zip(rows, refs["fda_audit"]):
            checks.expect(
                (row["protocol"], int(row["profit"]), int(row["cost"]),
                 int(row["expected_value"]), row["verdict"])
                == (protocol, profit, cost, ev, verdict),
                f"fda-audit row {row}",
            )
            checks.close(float(row["p_null_approval"]), p, "fda-audit p_null_approval")
        theta1 = 0.2  # the evalue-growth default: E[log E_n] = n * theta1^2 / 2
        for row in read_csv(self.out("evalue-growth") / "evalue_growth.csv"):
            n = int(row["n"])
            checks.within_se(
                float(row["mean_log_e_alt"]), float(row["se_log_e_alt"]),
                n * theta1**2 / 2.0, f"evalue-growth mean log e at n={n}",
            )
        out = self.out("multiround")
        roots = refs["dp_roots"]
        checks.close(
            policy_root(out / "multiround_policy.txt"), roots["1:1.645"],
            "multiround policy root", rel=0.0, abs_=ROOT_TOL,
        )
        check_multiround(checks, out, roots, caps=(1.0, 5.0), cost=0.1)


class DpFineGrid(Workload):
    name = "dp-fine-grid"

    ARGS = ["--param", "caps=5", "--param", "theta_grid=1.0", "--param", "theta_star=1.0"]

    def __init__(self, seed, work_dir, refs):
        super().__init__(seed, work_dir, refs)
        s = str(self.program_seed())
        argv = ["multiround", "--out", str(self.out("multiround")), "--seed", s] + self.ARGS
        self.jobs.append(("multiround", cli_job(argv + ["--param", "levels=400", "--reps", "2000"])))
        argv = ["multiround", "--out", str(self.out("warm-up")), "--seed", s] + self.ARGS
        self.warm_up_jobs.append(("multiround", cli_job(argv + ["--param", "levels=4", "--reps", "10"])))

    def check(self, checks: Checks) -> None:
        out = self.out("multiround")
        roots = self.refs["dp-fine-grid"]["dp_roots"]
        checks.close(
            policy_root(out / "multiround_policy.txt"), roots["5:1"],
            "multiround policy root", rel=0.0, abs_=ROOT_TOL,
        )
        check_multiround(checks, out, roots, caps=(5.0,), cost=0.1)


class McNullAudit(Workload):
    name = "mc-null-audit"

    STRATEGIES = 20
    REPS = 2000
    MISALIGNED_REPS = 20_000
    HORIZON = 5
    COST = 0.1
    EXCESS = 0.2  # the misaligned factor's null expectation is 1 + EXCESS

    def __init__(self, seed, work_dir, refs):
        super().__init__(seed, work_dir, refs)
        rng = np.random.default_rng(self.program_seed())
        self.costs = [self.COST] * self.HORIZON
        strategies = [
            mr.RandomizedAlignedStrategy.draw(rng, self.HORIZON)
            for _ in range(self.STRATEGIES)
        ]
        factor = mr.random_factor_license(rng).scaled(1.0 + self.EXCESS)
        misaligned = mr.SingleStageStrategy(stage=1, factor=factor)
        self.reports: dict[int, object] = {}
        self.misaligned = None
        for k, strategy in enumerate(strategies):
            stream = RandomStream(self.program_seed(), k)
            self.jobs.append((f"aligned-{k}", self._aligned_job(k, strategy, self.REPS, stream)))
        stream = RandomStream(self.program_seed(), self.STRATEGIES)
        self.jobs.append(("misaligned", self._misaligned_job(misaligned, self.MISALIGNED_REPS, stream)))
        self.warm_up_jobs = [
            ("aligned", self._aligned_job(-1, strategies[0], 10, stream)),
            ("misaligned", self._misaligned_job(misaligned, 10, stream)),
        ]

    def _aligned_job(self, k, strategy, reps, stream) -> Job:
        def job() -> bool:
            episodes = mr.simulate_strategy(strategy, self.HORIZON, self.costs, 0.0, reps, stream)
            self.reports[k] = mr.supermartingale_check(episodes, self.costs)
            return True

        return job

    def _misaligned_job(self, strategy, reps, stream) -> Job:
        def job() -> bool:
            self.misaligned = mr.simulate_strategy(
                strategy, self.HORIZON, self.costs, 0.0, reps, stream
            ).profit
            return True

        return job

    def check(self, checks: Checks) -> None:
        # The library's own 3-SE flag is a diagnostic (the tracer counts it);
        # at 20 strategies it would fire by chance in a few percent of runs.
        #
        # Standard errors are floored at cost / sqrt(replicates). A net
        # profit moves by about the stage cost whenever a trial runs, so a
        # smaller SE only means that no replicate reached a tail step of a
        # factor, which then looks constant and slightly above its mean.
        floor = self.COST / math.sqrt(self.REPS)
        for k in range(self.STRATEGIES):
            report = self.reports.pop(k)
            means = (*report.stage_means, report.terminal_mean)
            ses = (*report.stage_ses, report.terminal_se)
            for t, (mean, se) in enumerate(zip(means, ses), 1):
                checks.expect(
                    mean <= MC_SE * max(se, floor),
                    f"aligned strategy {k} stage {t if t <= self.HORIZON else 'tau'}: "
                    f"mean {mean} > {MC_SE} SE ({se})",
                )
        profit, self.misaligned = self.misaligned, None
        se = float(profit.std(ddof=1)) / math.sqrt(profit.size)
        checks.within_se(
            float(profit.mean()), max(se, self.COST / math.sqrt(profit.size)),
            self.EXCESS * self.COST, "misaligned mean profit",
        )


class ClosedFormSweep(Workload):
    name = "closed-form-sweep"

    WELFARE_POINTS = 20_001
    COST_RATIOS = 400
    EFFECTS = 50
    MARKET_SIZES = 200

    def __init__(self, seed, work_dir, refs):
        super().__init__(seed, work_dir, refs)
        rng = self.rng
        self.welfare = {
            "theta1": rng.uniform(0.3, 2.5),
            "cost": rng.uniform(0.5, 2.0),
            "ratio_a": math.exp(rng.uniform(math.log(2.0), math.log(100.0))),
            "ratio_b": math.exp(rng.uniform(math.log(2.0), math.log(100.0))),
            "severity_a": rng.choice(sorted(SEVERITIES)),
            "severity_b": rng.choice(sorted(SEVERITIES)),
        }
        self.cap = rng.uniform(0.5, 5.0)
        self.cost_ratios = sorted(
            math.exp(rng.uniform(math.log(1e-4), math.log(0.5))) for _ in range(self.COST_RATIOS)
        )
        self.effects = sorted(rng.uniform(0.05, 3.0) for _ in range(self.EFFECTS))
        self.trial_cost = rng.randrange(10_000, 100_000) * 1000
        self.profits = sorted(
            int(math.exp(rng.uniform(math.log(1e8), math.log(1e12))))
            for _ in range(self.MARKET_SIZES)
        )
        # repr() round-trips, so the program parses exactly these floats.
        welfare = [f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}" for k, v in self.welfare.items()]
        best = [f"cap={self.cap!r}", "cost_ratios=" + ",".join(map(repr, self.cost_ratios)),
                "theta_grid=" + ",".join(map(repr, self.effects))]
        fda = [f"cost={self.trial_cost}", "profits=" + ",".join(map(str, self.profits))]
        for command, params in (
            ("welfare", welfare + [f"grid_points={self.WELFARE_POINTS}"]),
            ("best-response", best),
            ("fda-audit", fda),
        ):
            self.jobs.append((command, self._job(command, params, command)))
        self.warm_up_jobs = [
            ("welfare", self._job("welfare", welfare + ["grid_points=3"], "warm-up")),
            ("best-response", self._job("best-response", best[:1], "warm-up")),
            ("fda-audit", self._job("fda-audit", fda[:1], "warm-up")),
        ]

    def _job(self, command: str, params: list[str], out: str) -> Job:
        argv = [command, "--out", str(self.out(out))]
        for param in params:
            argv += ["--param", param]
        return cli_job(argv)

    def check(self, checks: Checks) -> None:
        self._check_welfare(checks)
        self._check_best_response(checks)
        self._check_fda(checks)

    def _check_welfare(self, checks: Checks) -> None:
        w = self.welfare
        theta, cost = w["theta1"], w["cost"]
        status_quo_threshold = upper_tail_inverse(STATUS_QUO_LEVEL)
        pi0 = np.arange(self.WELFARE_POINTS) / (self.WELFARE_POINTS - 1)
        for panel in ("a", "b"):
            cap = w[f"ratio_{panel}"] * cost
            cost_null, benefit = SEVERITIES[w[f"severity_{panel}"]]
            # Aligned menu: the null type never opts in; the effective type
            # opts in when its all-or-nothing license pays off.
            power = upper_tail(upper_tail_inverse(cost / cap) - theta)
            aligned = (0.0, power * benefit if cap * power - cost > 0.0 else 0.0)
            # Status quo: one license at the 5% threshold, taken by any type
            # whose expected payout beats the cost.
            status_quo = []
            for t, stake in ((0.0, cost_null), (theta, benefit)):
                p = upper_tail(status_quo_threshold - t)
                status_quo.append(p * stake if cap * p - cost > 0.0 else 0.0)
            table = read_columns(self.out("welfare") / f"welfare_panel_{panel}.csv")
            checks.close_all(floats(table["pi0"]), pi0, f"welfare {panel} pi0")
            for column, (u_null, u_alt) in (
                ("utility_aligned", aligned),
                ("utility_status_quo", status_quo),
            ):
                want = pi0 * u_null + (1.0 - pi0) * u_alt
                checks.close_all(floats(table[column]), want, f"welfare {panel} {column}")

    def _check_best_response(self, checks: Checks) -> None:
        table = read_columns(self.out("best-response") / "best_response.csv")
        ratio = np.repeat(self.cost_ratios, self.EFFECTS)
        theta = np.tile(self.effects, self.COST_RATIOS)
        threshold = -special.ndtri(ratio)
        power = special.ndtr(theta - threshold)
        for column, want in (
            ("cost_ratio", ratio),
            ("theta1", theta),
            ("threshold", threshold),
            ("power", power),
            ("expected_profit", self.cap * power - ratio * self.cap),
        ):
            checks.close_all(floats(table[column]), want, f"best-response {column}")

    def _check_fda(self, checks: Checks) -> None:
        rows = read_csv(self.out("fda-audit") / "fda_audit.csv")
        checks.expect(len(rows) == len(PROTOCOLS) * len(self.profits), "fda-audit row count")
        cost = self.trial_cost
        margin = 0.02 * cost  # the default verdict band
        expected = ((name, p, profit) for name, p in PROTOCOLS for profit in self.profits)
        for row, (name, p, profit) in zip(rows, expected):
            # Money in integer thousands of dollars, as the audit defines it.
            ev = (round(p * round(profit / 1000.0)) - round(cost / 1000.0)) * 1000
            verdict = "not_aligned" if ev > margin else "aligned" if ev < -margin else "borderline"
            checks.expect(
                (row["protocol"], int(row["profit"]), int(row["cost"]),
                 int(row["expected_value"]), row["verdict"])
                == (name, profit, cost, ev, verdict),
                f"fda-audit row {row}",
            )


WORKLOADS = {w.name: w for w in (PaperDefaults, DpFineGrid, McNullAudit, ClosedFormSweep)}
