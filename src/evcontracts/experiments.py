"""Experiment drivers behind the CLI.

Each experiment takes a flat key=value configuration (file and/or flag
overrides), writes CSVs plus static SVG plots into an output directory, and
drops a manifest echoing the resolved configuration so any run can be
replayed. All randomness flows through seeded replicate-indexed streams:
same config, same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .fda import audit_table, builtin_protocols, matches_reference
from .gaussian import GaussianModel, RandomStream, sample_normal, upper_tail_inverse
from .licenses import Menu, null_expectation
from .single_round import Contract, np_best_response
from .svgplot import render_lines
from .welfare import HIGH_SEVERITY, LOW_SEVERITY, welfare_curve
from .multiround import (
    LicenseGrid,
    backward_induction,
    episodes_to_csv_rows,
    simulate_policy,
)

DEFAULT_SEED = 20240718


class ConfigError(ValueError):
    """Invalid experiment configuration (unknown key or bad value)."""


class ReferenceDeviation(RuntimeError):
    """A reference-checked output disagrees with its committed values."""


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite real, got {text!r}")
    return value


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(_parse_float(tok) for tok in str(text).split(",") if tok.strip())


_PARSERS: dict[str, Callable] = {
    "int": int,
    "float": _parse_float,
    "str": str,
    "floats": _parse_float_list,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration: experiment name, typed parameters, output dir."""

    experiment: str
    parameters: dict
    output_dir: Path

    def __getitem__(self, key: str):
        return self.parameters[key]


# Allowed keys and defaults per experiment. "seed" is common to all so that
# every manifest records one even for closed-form runs.
SCHEMAS: dict[str, dict[str, tuple[str, object]]] = {
    "welfare": {
        "seed": ("int", DEFAULT_SEED),
        "grid_points": ("int", 101),
        "theta1": ("float", 1.0),
        "cost": ("float", 1.0),
        "ratio_a": ("float", 5.0),
        "ratio_b": ("float", 50.0),
        "severity_a": ("str", "high"),
        "severity_b": ("str", "low"),
    },
    "evalue_growth": {
        "seed": ("int", DEFAULT_SEED),
        "theta1": ("float", 0.2),
        "n_max": ("int", 500),
        "reps": ("int", 10_000),
        "paths_out": ("int", 10),
    },
    "fda_audit": {
        "seed": ("int", DEFAULT_SEED),
        "cost": ("float", 50_000_000.0),
        "profits": ("floats", (1e9, 1e10, 1e11)),
        "band": ("float", 0.02),
    },
    "multiround": {
        "seed": ("int", DEFAULT_SEED),
        "horizon": ("int", 5),
        "cost": ("float", 0.1),
        "levels": ("int", 100),
        "caps": ("floats", (1.0, 5.0)),
        "theta_grid": ("floats", (0.5, 1.0, 1.645, 2.5)),
        "theta_star": ("float", 1.645),
        "reps": ("int", 10_000),
    },
    "best_response": {
        "seed": ("int", DEFAULT_SEED),
        "cap": ("float", 1.0),
        "cost_ratios": ("floats", (0.002, 0.05, 0.2)),
        "theta_grid": ("floats", (0.5, 1.0, 1.645)),
    },
}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def resolve_config(
    experiment: str,
    output_dir: str | Path,
    file_values: dict[str, str] | None = None,
    overrides: dict[str, str] | None = None,
) -> ExperimentConfig:
    """Merge defaults, config file, and overrides against the schema."""
    if experiment not in SCHEMAS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {sorted(SCHEMAS)}"
        )
    schema = SCHEMAS[experiment]
    merged: dict[str, object] = {key: default for key, (_, default) in schema.items()}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if key not in schema:
                raise ConfigError(
                    f"unknown key {key!r} for experiment {experiment!r}; "
                    f"allowed: {sorted(schema)}"
                )
            kind = schema[key][0]
            try:
                merged[key] = _PARSERS[kind](value)
            except (TypeError, ValueError) as err:
                raise ConfigError(f"bad value for {key!r}: {value!r} ({err})") from err
    return ExperimentConfig(experiment, merged, Path(output_dir))


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(f"{v:.12g}" for v in value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_manifest(config: ExperimentConfig) -> Path:
    lines = [f"experiment = {config.experiment}"]
    for key in sorted(config.parameters):
        lines.append(f"{key} = {_format_value(config.parameters[key])}")
    path = config.output_dir / "manifest.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Comma-separated, header row, LF endings, 12 significant digits."""

    def cell(v) -> str:
        if isinstance(v, (bool, np.bool_)):
            return str(v)
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return f"{float(v):.12g}"
        return str(v)

    text = ",".join(header) + "\n"
    text += "".join(",".join(cell(v) for v in row) + "\n" for row in rows)
    path.write_text(text, encoding="utf-8")


@dataclass
class RunResult:
    files: list[Path] = field(default_factory=list)
    summary: dict = field(default_factory=dict)


_SEVERITIES = {"high": HIGH_SEVERITY, "low": LOW_SEVERITY}


def run_welfare(config: ExperimentConfig) -> RunResult:
    """Principal utility vs null share, aligned menu against the status quo."""
    result = RunResult()
    n = config["grid_points"]
    if n < 1:
        raise ConfigError("grid_points must be at least 1")
    if config["theta1"] <= 0.0:
        raise ConfigError("theta1 must be positive: it is the non-null type")
    if config["cost"] <= 0.0:
        raise ConfigError(f"cost must be positive, got {config['cost']}")
    panels = [
        ("a", config["ratio_a"], config["severity_a"]),
        ("b", config["ratio_b"], config["severity_b"]),
    ]
    for label, ratio, severity_name in panels:
        if not ratio > 1.0:
            raise ConfigError(
                f"ratio_{label} must exceed 1 (the cap is ratio_{label} times cost), "
                f"got {ratio}"
            )
        if severity_name not in _SEVERITIES:
            raise ConfigError(
                f"severity_{label} must be 'high' or 'low', got {severity_name!r}"
            )
    config.output_dir.mkdir(parents=True, exist_ok=True)
    pi0_grid = [0.0] if n == 1 else [i / (n - 1) for i in range(n)]
    for label, ratio, severity_name in panels:
        cost = config["cost"]
        contract = Contract(Menu.all_evalues(cost), cost, ratio * cost)
        rows = welfare_curve(
            pi0_grid, contract, _SEVERITIES[severity_name], config["theta1"]
        )
        csv_path = config.output_dir / f"welfare_panel_{label}.csv"
        write_csv(csv_path, ["pi0", "utility_aligned", "utility_status_quo"], rows)
        svg_path = config.output_dir / f"welfare_panel_{label}.svg"
        render_lines(
            [
                ("aligned menu", [r[0] for r in rows], [r[1] for r in rows]),
                ("status quo", [r[0] for r in rows], [r[2] for r in rows]),
            ],
            title=f"Principal utility, cap/cost = {ratio:g}, {severity_name} severity",
            xlabel="null share",
            ylabel="expected utility",
            path=svg_path,
        )
        result.files += [csv_path, svg_path]
        result.summary[f"panel_{label}"] = {
            "ratio": ratio,
            "severity": severity_name,
            "aligned_min": min(r[1] for r in rows),
            "status_quo_at_1": rows[-1][2],
        }
    result.files.append(write_manifest(config))
    return result


def run_evalue_growth(config: ExperimentConfig) -> RunResult:
    """Growth of the analytic e-value with sample size.

    Under the alternative the mean of log E grows linearly at rate
    theta1^2/2 per observation; under the null the mean of E itself stays at
    one (martingale), which is what caps a bluffing agent.
    """
    result = RunResult()
    theta1 = config["theta1"]
    n_max, reps = config["n_max"], config["reps"]
    if n_max < 1 or reps < 2:
        raise ConfigError("need n_max >= 1 and reps >= 2")
    if config["paths_out"] < 0:
        raise ConfigError("paths_out must be nonnegative")
    config.output_dir.mkdir(parents=True, exist_ok=True)
    seed = config["seed"]

    def log_paths(mean: float, stream_index: int) -> np.ndarray:
        # log E after n observations: theta1 * sum(z) - n * theta1^2 / 2
        out = np.empty((reps, n_max))
        for r in range(reps):
            z = sample_normal(
                GaussianModel(mean), RandomStream(seed, stream_index + r), n_max
            )
            out[r] = theta1 * np.cumsum(z) - theta1**2 / 2.0 * np.arange(1, n_max + 1)
        return out

    log_alt = log_paths(theta1, 0)
    log_null = log_paths(0.0, reps)
    ns = np.arange(1, n_max + 1)
    mean_log_alt = log_alt.mean(axis=0)
    se_log_alt = log_alt.std(axis=0, ddof=1) / math.sqrt(reps)
    e_null = np.exp(log_null)
    mean_e_null = e_null.mean(axis=0)
    se_e_null = e_null.std(axis=0, ddof=1) / math.sqrt(reps)
    # Least-squares slope through the origin of mean log E against n.
    slope = float(np.dot(ns, mean_log_alt) / np.dot(ns, ns))

    growth_path = config.output_dir / "evalue_growth.csv"
    write_csv(
        growth_path,
        ["n", "mean_log_e_alt", "se_log_e_alt", "mean_e_null", "se_e_null"],
        list(zip(ns, mean_log_alt, se_log_alt, mean_e_null, se_e_null)),
    )
    paths_out = min(config["paths_out"], reps)
    paths_path = config.output_dir / "evalue_growth_paths.csv"
    write_csv(
        paths_path,
        ["n"] + [f"log_e_path_{i}" for i in range(paths_out)],
        list(zip(ns, *[log_alt[i] for i in range(paths_out)])),
    )
    svg_path = config.output_dir / "evalue_growth.svg"
    series = [("mean log e-value", ns.tolist(), mean_log_alt.tolist())]
    series += [
        (f"path {i}", ns.tolist(), log_alt[i].tolist()) for i in range(min(paths_out, 3))
    ]
    render_lines(
        series,
        title=f"e-value growth, effect {theta1:g}",
        xlabel="sample size",
        ylabel="log e-value",
        path=svg_path,
    )
    result.files += [growth_path, paths_path, svg_path, write_manifest(config)]
    result.summary = {
        "slope": slope,
        "theory_slope": theta1**2 / 2.0,
        "max_null_mean": float(mean_e_null.max()),
        "null_mean_ok": bool(np.all(mean_e_null <= 1.0 + 3.0 * se_e_null)),
    }
    return result


def run_fda_audit(config: ExperimentConfig) -> RunResult:
    """Expected value of a placebo trial across protocols and market sizes."""
    result = RunResult()
    if not config["profits"]:
        raise ConfigError("profits must list at least one market profit")
    if min(config["profits"]) <= 0.0:
        raise ConfigError("profits must be positive")
    config.output_dir.mkdir(parents=True, exist_ok=True)
    rows = audit_table(
        builtin_protocols(), config["profits"], config["cost"], config["band"]
    )
    csv_path = config.output_dir / "fda_audit.csv"
    write_csv(
        csv_path,
        ["protocol", "p_null_approval", "profit", "cost", "expected_value", "verdict"],
        [
            (r.protocol, r.p_null_approval, r.profit, r.cost, r.expected_value, r.verdict)
            for r in rows
        ],
    )
    result.files += [csv_path, write_manifest(config)]
    defaults = SCHEMAS["fda_audit"]
    is_default = (
        config["cost"] == defaults["cost"][1]
        and tuple(config["profits"]) == tuple(defaults["profits"][1])
        and config["band"] == defaults["band"][1]
    )
    result.summary = {
        "rows": len(rows),
        "reference_checked": is_default,
        "verdicts": [str(r.verdict) for r in rows],
    }
    if is_default and not matches_reference(rows):
        raise ReferenceDeviation(
            "default audit table disagrees with its committed verdicts"
        )
    return result


def _one_round_profits(
    design_theta: float,
    true_theta: float,
    cost: float,
    cap: float,
    sd: float,
    reps: int,
    stream: RandomStream,
) -> np.ndarray:
    """Monte Carlo profits of a one-round agent playing its best response.

    The license is optimal for ``design_theta``; evidence is drawn from
    ``true_theta``, which covers bluffing null agents.
    """
    f = np_best_response(0.0, design_theta, cost, cap, sd=sd)
    z = sample_normal(GaussianModel(true_theta, sd), stream, reps)
    return np.asarray(f(z), dtype=float) - cost


def _multiround_cell(
    config: ExperimentConfig, cap: float, theta1: float, stream_index: int
):
    """DP policy, its simulated episodes and both one-round references for
    one (cap, effect) cell, on streams stream_index .. stream_index + 2.

    An effect at most zero plays the theta_star agent's strategies against
    null evidence.
    """
    T, cost = config["horizon"], config["cost"]
    reps, seed = config["reps"], config["seed"]
    design_theta = theta1 if theta1 > 0.0 else config["theta_star"]
    policy = backward_induction(
        T, cost, design_theta, LicenseGrid.from_cap(cap, config["levels"])
    )
    episodes = simulate_policy(policy, theta1, reps, RandomStream(seed, stream_index))
    one = _one_round_profits(
        design_theta, theta1, cost, cap, 1.0, reps, RandomStream(seed, stream_index + 1)
    )
    five = _one_round_profits(
        design_theta, theta1, T * cost, cap, 1.0 / math.sqrt(T), reps,
        RandomStream(seed, stream_index + 2),
    )
    return policy, episodes, one, five


def run_multiround(config: ExperimentConfig) -> RunResult:
    """Multi-round DP agent against two one-round references.

    The one-round references pay the stage cost once (same evidence) or five
    stages' cost upfront for five observations' worth of evidence, both with
    their closed-form best-response licenses. Grid points with effect at
    most zero are simulated as bluffers: the agents play the strategies an
    honest agent of the focal effect would, against evidence from the true
    (null) effect, so alignment caps their mean profit at zero.
    """
    result = RunResult()
    reps = config["reps"]
    if reps < 2:
        raise ConfigError("reps must be at least 2")
    if config["horizon"] < 1 or config["levels"] < 1:
        raise ConfigError("horizon and levels must be at least 1")
    if config["cost"] <= 0.0:
        raise ConfigError(f"cost must be positive, got {config['cost']}")
    for key in ("caps", "theta_grid"):
        values = config[key]
        if not values:
            raise ConfigError(f"{key} must list at least one value")
        if len(set(values)) != len(values):
            raise ConfigError(f"{key} lists a value more than once: {values}")
    if min(config["caps"]) <= 0.0:
        raise ConfigError(f"caps must be positive, got {config['caps']}")
    if config["theta_star"] <= 0.0:
        raise ConfigError("theta_star must be positive")
    config.output_dir.mkdir(parents=True, exist_ok=True)

    stream_index = 0
    profit_files = []
    curve_summaries = {}
    star_outputs_done = False
    for cap in config["caps"]:
        rows = []
        for theta1 in config["theta_grid"]:
            policy, episodes, one, five = _multiround_cell(
                config, cap, theta1, stream_index
            )
            stream_index += 3
            root = math.sqrt(reps)
            rows.append(
                (
                    theta1,
                    float(episodes.profit.mean()),
                    float(episodes.profit.std(ddof=1) / root),
                    float(one.mean()),
                    float(one.std(ddof=1) / root),
                    float(five.mean()),
                    float(five.std(ddof=1) / root),
                )
            )
            if cap == min(config["caps"]) and math.isclose(
                theta1, config["theta_star"], rel_tol=0.0, abs_tol=1e-12
            ):
                star_outputs_done = True
                _write_star_outputs(config, result, policy, episodes, one, five)
        path = config.output_dir / f"multiround_profit_cap{cap:g}.csv"
        write_csv(
            path,
            [
                "theta1",
                "profit_multi", "se_multi",
                "profit_one_round", "se_one_round",
                "profit_five_data", "se_five_data",
            ],
            rows,
        )
        svg = config.output_dir / f"multiround_profit_cap{cap:g}.svg"
        render_lines(
            [
                ("multi-round", [r[0] for r in rows], [r[1] for r in rows]),
                ("one round", [r[0] for r in rows], [r[3] for r in rows]),
                ("one round, 5x data", [r[0] for r in rows], [r[5] for r in rows]),
            ],
            title=f"Agent profit vs effect size, cap {cap:g}",
            xlabel="effect size",
            ylabel="mean profit",
            path=svg,
        )
        profit_files += [path, svg]
        curve_summaries[cap] = rows
    if not star_outputs_done:
        # theta_star not on the grid: run it separately for the histograms.
        cell = _multiround_cell(
            config, min(config["caps"]), config["theta_star"], stream_index
        )
        _write_star_outputs(config, result, *cell)
    result.files += profit_files + [write_manifest(config)]
    result.summary["profit_curves"] = curve_summaries
    return result


def _write_star_outputs(config, result, policy, episodes, one, five) -> None:
    """Terminal-license and rounds-used distributions at the focal effect,
    plus the full policy table and per-episode ledger."""
    cap = policy.grid.cap
    cost = policy.costs[0]
    values, counts = np.unique(episodes.terminal_license, return_counts=True)
    rows = [("multi_round", v, c) for v, c in zip(values, counts)]
    for name, profits, paid in (("one_round", one, cost), ("five_data", five, len(policy.costs) * cost)):
        terminal = profits + paid
        vals, cnts = np.unique(np.round(terminal, 12), return_counts=True)
        rows += [(name, v, c) for v, c in zip(vals, cnts)]
    term_path = config.output_dir / "multiround_terminal.csv"
    write_csv(term_path, ["agent", "terminal_license", "count"], rows)

    taus, tau_counts = np.unique(episodes.tau, return_counts=True)
    rounds_path = config.output_dir / "multiround_rounds.csv"
    write_csv(
        rounds_path, ["rounds_used", "count"], list(zip(taus, tau_counts))
    )
    policy_path = config.output_dir / "multiround_policy.txt"
    policy_path.write_text(policy.export_text(), encoding="utf-8")
    episodes_path = config.output_dir / "multiround_episodes.csv"
    write_csv(
        episodes_path,
        ["rep", "tau", "terminal_license", "total_cost", "profit"],
        episodes_to_csv_rows(episodes),
    )
    result.files += [term_path, rounds_path, policy_path, episodes_path]
    result.summary["at_theta_star"] = {
        "p_terminal_cap": float(np.mean(episodes.terminal_license >= cap - 1e-12)),
        "mean_rounds": float(episodes.tau.mean()),
        "mean_total_cost": float(episodes.total_cost.mean()),
        "mean_profit_multi": float(episodes.profit.mean()),
        "mean_profit_five_data": float(five.mean()),
    }


def run_best_response(config: ExperimentConfig) -> RunResult:
    """Closed-form best-response licenses across cost ratios and effects."""
    result = RunResult()
    cap = config["cap"]
    if cap <= 0.0:
        raise ConfigError(f"cap must be positive, got {cap}")
    for key in ("cost_ratios", "theta_grid"):
        if not config[key]:
            raise ConfigError(f"{key} must list at least one value")
    if not all(0.0 < ratio < 1.0 for ratio in config["cost_ratios"]):
        raise ConfigError(f"cost_ratios must lie in (0, 1), got {config['cost_ratios']}")
    if min(config["theta_grid"]) <= 0.0:
        raise ConfigError(
            f"theta_grid must be positive (effects above the null), got {config['theta_grid']}"
        )
    config.output_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for ratio in config["cost_ratios"]:
        threshold = upper_tail_inverse(ratio)
        for theta1 in config["theta_grid"]:
            f = np_best_response(0.0, theta1, ratio * cap, cap)
            power = null_expectation(f, GaussianModel(theta1)) / cap
            rows.append((ratio, theta1, threshold, power, cap * power - ratio * cap))
    path = config.output_dir / "best_response.csv"
    write_csv(
        path,
        ["cost_ratio", "theta1", "threshold", "power", "expected_profit"],
        rows,
    )
    result.files += [path, write_manifest(config)]
    result.summary["rows"] = len(rows)
    return result


RUNNERS: dict[str, Callable[[ExperimentConfig], RunResult]] = {
    "welfare": run_welfare,
    "evalue_growth": run_evalue_growth,
    "fda_audit": run_fda_audit,
    "multiround": run_multiround,
    "best_response": run_best_response,
}
