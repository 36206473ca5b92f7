"""Experiment drivers behind the CLI.

Each experiment takes a flat key=value configuration (file and/or flag
overrides), writes CSVs plus static SVG plots into an output directory, and
drops a manifest echoing the resolved configuration so any run can be
replayed. All randomness flows through seeded streams: same config, same
bytes.
"""

from __future__ import annotations

import math
import operator
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
    MultiplierRangeError,
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


_SEVERITIES = {"high": HIGH_SEVERITY, "low": LOW_SEVERITY}


@dataclass(frozen=True)
class Key:
    """One config key: its parser kind, its default and its domain.

    The numeric bounds apply to every element of a ``floats`` list, and a
    ``floats`` list must name at least one value.
    """

    kind: str
    default: object
    above: float | None = None  # strict lower bound
    at_least: float | None = None  # inclusive lower bound
    below: float | None = None  # strict upper bound
    choices: tuple[str, ...] = ()
    unique: bool = False

    def violation(self, value) -> str | None:
        """Why ``value`` lies outside the domain, or None if it lies inside."""
        items, each = (value, "each ") if self.kind == "floats" else ((value,), "")
        if not items:
            return "must list at least one value"
        if self.unique and len(set(items)) != len(items):
            return "lists a value more than once"
        if self.choices and value not in self.choices:
            return f"must be one of {', '.join(self.choices)}"
        for op, bound, holds in (
            (">", self.above, operator.gt),
            (">=", self.at_least, operator.ge),
            ("<", self.below, operator.lt),
        ):
            if bound is not None and not all(holds(x, bound) for x in items):
                return f"{each}must be {op} {bound:g}"
        return None


# Allowed keys, defaults and domains per experiment. "seed" is common to all
# so that every manifest records one even for closed-form runs.
SCHEMAS: dict[str, dict[str, Key]] = {
    "welfare": {
        "seed": Key("int", DEFAULT_SEED),
        "grid_points": Key("int", 101, at_least=1),
        "theta1": Key("float", 1.0, above=0.0),
        "cost": Key("float", 1.0, above=0.0),
        # the cap is ratio times cost and must exceed it
        "ratio_a": Key("float", 5.0, above=1.0),
        "ratio_b": Key("float", 50.0, above=1.0),
        "severity_a": Key("str", "high", choices=tuple(_SEVERITIES)),
        "severity_b": Key("str", "low", choices=tuple(_SEVERITIES)),
    },
    "evalue_growth": {
        "seed": Key("int", DEFAULT_SEED),
        # beyond 2**52 the spacing of doubles near theta1 reaches 1, so a
        # draw's unit noise is lost to rounding (README, Configuration)
        "theta1": Key("float", 0.2, above=-(2.0**52), below=2.0**52),
        "n_max": Key("int", 500, at_least=1),
        "reps": Key("int", 10_000, at_least=2),
        "paths_out": Key("int", 10, at_least=0),
    },
    "fda_audit": {
        "seed": Key("int", DEFAULT_SEED),
        "cost": Key("float", 50_000_000.0, above=0.0),
        "profits": Key("floats", (1e9, 1e10, 1e11), above=0.0),
        "band": Key("float", 0.02, at_least=0.0),
    },
    "multiround": {
        "seed": Key("int", DEFAULT_SEED),
        "horizon": Key("int", 5, at_least=1),
        "cost": Key("float", 0.1, above=0.0),
        "levels": Key("int", 100, at_least=1),
        # a repeated cap or effect would solve and write the same cell twice
        "caps": Key("floats", (1.0, 5.0), above=0.0, unique=True),
        "theta_grid": Key("floats", (0.5, 1.0, 1.645, 2.5), unique=True),
        "theta_star": Key("float", 1.645, above=0.0),
        "reps": Key("int", 10_000, at_least=2),
    },
    "best_response": {
        "seed": Key("int", DEFAULT_SEED),
        "cap": Key("float", 1.0, above=0.0),
        "cost_ratios": Key("floats", (0.002, 0.05, 0.2), above=0.0, below=1.0),
        # effects above the null
        "theta_grid": Key("floats", (0.5, 1.0, 1.645), above=0.0),
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
    """Merge defaults, config file, and overrides against the schema, and
    check every merged value against its key's domain."""
    if experiment not in SCHEMAS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {sorted(SCHEMAS)}"
        )
    schema = SCHEMAS[experiment]
    merged: dict[str, object] = {key: spec.default for key, spec in schema.items()}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if key not in schema:
                raise ConfigError(
                    f"unknown key {key!r} for experiment {experiment!r}; "
                    f"allowed: {sorted(schema)}"
                )
            try:
                merged[key] = _PARSERS[schema[key].kind](value)
            except (TypeError, ValueError) as err:
                raise ConfigError(f"bad value for {key!r}: {value!r} ({err})") from err
    for key, value in merged.items():
        reason = schema[key].violation(value)
        if reason is not None:
            raise ConfigError(f"bad value for {key!r}: {value!r} ({reason})")
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


def run_welfare(config: ExperimentConfig) -> RunResult:
    """Principal utility vs null share, aligned menu against the status quo."""
    result = RunResult()
    n, cost = config["grid_points"], config["cost"]
    # Each key lies in its domain, but their product may still overflow or
    # round down to the cost.
    for label in ("a", "b"):
        cap = config[f"ratio_{label}"] * cost
        if not (math.isfinite(cap) and cap > cost):
            raise ConfigError(
                f"bad value for 'cost' and 'ratio_{label}': their product, the "
                f"cap {cap!r}, must be finite and exceed cost {cost!r}"
            )
    config.output_dir.mkdir(parents=True, exist_ok=True)
    pi0_grid = [0.0] if n == 1 else [i / (n - 1) for i in range(n)]
    for label in ("a", "b"):
        ratio, severity_name = config[f"ratio_{label}"], config[f"severity_{label}"]
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
    one (martingale), which is what caps a bluffing agent. Each hypothesis
    draws one (reps, n_max) evidence matrix, replicate r in row r: the
    alternative from stream 0, the null from stream 1. A theta1 so large
    that the statistics overflow is a config error, raised before the
    output directory is created.
    """
    result = RunResult()
    theta1 = config["theta1"]
    n_max, reps = config["n_max"], config["reps"]
    seed = config["seed"]
    ns = np.arange(1, n_max + 1)
    try:
        half_square = theta1**2 / 2.0
    except OverflowError:  # |theta1| above about 1.3e154; rejected below
        half_square = math.inf

    def log_paths(mean: float, stream_index: int) -> np.ndarray:
        # log E after n observations, theta1 * sum(z) - n * theta1^2 / 2, built
        # in place on one (reps, n_max) draw with replicate r in row r
        z = sample_normal(
            GaussianModel(mean), RandomStream(seed, stream_index), (reps, n_max)
        )
        np.cumsum(z, axis=1, out=z)
        z *= theta1
        z -= drift
        return z

    def mean_and_se(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # column means and standard errors, equal to std(ddof=1) / sqrt(reps)
        # bit for bit but computed in place: x is overwritten
        mean = x.mean(axis=0)
        x -= mean
        x *= x
        return mean, np.sqrt(x.sum(axis=0) / (reps - 1)) / math.sqrt(reps)

    # One matrix at a time: the null's is reduced and freed before the
    # alternative's is drawn. Overflow is checked once, on the results.
    with np.errstate(over="ignore", invalid="ignore"):
        drift = half_square * ns
        e_null = log_paths(0.0, 1)
        np.exp(e_null, out=e_null)
        mean_e_null, se_e_null = mean_and_se(e_null)
        del e_null
        log_alt = log_paths(theta1, 0)
        paths_out = min(config["paths_out"], reps)
        written = log_alt[:paths_out].copy()
        mean_log_alt, se_log_alt = mean_and_se(log_alt)
        del log_alt
        # Least-squares slope through the origin of mean log E against n.
        slope = float(np.dot(ns, mean_log_alt) / np.dot(ns, ns))
    stats = (mean_log_alt, se_log_alt, mean_e_null, se_e_null, written, slope)
    if not all(np.isfinite(x).all() for x in stats):
        raise ConfigError(
            f"bad value for 'theta1' and 'n_max': theta1 {theta1!r} over n_max "
            f"{n_max} observations overflows the e-value statistics"
        )

    config.output_dir.mkdir(parents=True, exist_ok=True)
    growth_path = config.output_dir / "evalue_growth.csv"
    write_csv(
        growth_path,
        ["n", "mean_log_e_alt", "se_log_e_alt", "mean_e_null", "se_e_null"],
        list(zip(ns, mean_log_alt, se_log_alt, mean_e_null, se_e_null)),
    )
    paths_path = config.output_dir / "evalue_growth_paths.csv"
    write_csv(
        paths_path,
        ["n"] + [f"log_e_path_{i}" for i in range(paths_out)],
        list(zip(ns, *written)),
    )
    svg_path = config.output_dir / "evalue_growth.svg"
    series = [("mean log e-value", ns.tolist(), mean_log_alt.tolist())]
    series += [
        (f"path {i}", ns.tolist(), written[i].tolist()) for i in range(min(paths_out, 3))
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
        "theory_slope": half_square,
        "max_null_mean": float(mean_e_null.max()),
        "null_mean_ok": bool(np.all(mean_e_null <= 1.0 + 3.0 * se_e_null)),
    }
    return result


def run_fda_audit(config: ExperimentConfig) -> RunResult:
    """Expected value of a placebo trial across protocols and market sizes."""
    result = RunResult()
    rows = audit_table(
        builtin_protocols(), config["profits"], config["cost"], config["band"]
    )
    config.output_dir.mkdir(parents=True, exist_ok=True)
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
        config["cost"] == defaults["cost"].default
        and tuple(config["profits"]) == tuple(defaults["profits"].default)
        and config["band"] == defaults["band"].default
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


def _multiround_cell(
    config: ExperimentConfig, cap: float, theta1: float, stream_index: int
):
    """DP policy, its simulated episodes and the license payouts of both
    one-round references for one (cap, effect) cell.

    The three agents read one (reps, horizon) evidence matrix drawn from
    stream ``stream_index`` (common random numbers): the DP agent reads row
    r, the same-cost agent applies its best response to column 0, and the
    pooled agent applies its best response to the row mean, which is
    N(theta1, 1/sqrt(horizon)).

    An effect at most zero plays the theta_star agent's strategies against
    null evidence. A design effect too large for the multiplier's double
    range is a config error naming the key it came from.
    """
    T, cost = config["horizon"], config["cost"]
    design_theta = theta1 if theta1 > 0.0 else config["theta_star"]
    try:
        policy = backward_induction(
            T, cost, design_theta, LicenseGrid.from_cap(cap, config["levels"])
        )
    except MultiplierRangeError as err:
        on_grid = theta1 > 0.0 and theta1 in config["theta_grid"]
        key = "theta_grid" if on_grid else "theta_star"
        raise ConfigError(
            f"bad value for {key!r}: {design_theta!r} at cap {cap:g} ({err})"
        ) from err
    episodes = simulate_policy(
        policy, theta1, config["reps"], RandomStream(config["seed"], stream_index)
    )
    z = episodes.evidence
    one = np_best_response(0.0, design_theta, cost, cap)
    pooled = np_best_response(0.0, design_theta, T * cost, cap, sd=1.0 / math.sqrt(T))
    return policy, episodes, one(z[:, 0]), pooled(z.mean(axis=1))


def run_multiround(config: ExperimentConfig) -> RunResult:
    """Multi-round DP agent against two one-round references.

    The one-round references pay the stage cost once for one observation or
    every stage's cost upfront for the mean of horizon observations, both
    with their closed-form best-response licenses. Grid points with effect
    at most zero are simulated as bluffers: the agents play the strategies
    an honest agent of the focal effect would, against evidence from the
    true (null) effect, so alignment caps their mean profit at zero.

    Cell i reads stream i. The cells are the (cap, effect) grid in order,
    then the theta_star cell at the smallest cap (histograms, policy table
    and episode ledger), appended only when no grid cell is that cell.
    """
    result = RunResult()
    caps, star = config["caps"], config["theta_star"]
    T, cost, root = config["horizon"], config["cost"], math.sqrt(config["reps"])

    def is_star(cap: float, theta1: float) -> bool:
        return cap == min(caps) and math.isclose(theta1, star, rel_tol=0.0, abs_tol=1e-12)

    cells = [(cap, theta1) for cap in caps for theta1 in config["theta_grid"]]
    n_grid = len(cells)
    if not any(is_star(*cell) for cell in cells):
        cells.append((min(caps), star))

    # Every cell is solved and simulated before anything is written, so a
    # config error found by the solver leaves no output directory. Only the
    # curve rows and the star cell's arrays are kept.
    curve_summaries = {cap: [] for cap in caps}
    for i, (cap, theta1) in enumerate(cells):
        cell = _multiround_cell(config, cap, theta1, i)
        _, episodes, one, five = cell
        if i < n_grid:
            row = [theta1]
            for x, paid in ((episodes.profit, 0.0), (one, cost), (five, T * cost)):
                row += [float(x.mean()) - paid, float(x.std(ddof=1)) / root]
            curve_summaries[cap].append(tuple(row))
        if is_star(cap, theta1):
            star_cell = cell

    config.output_dir.mkdir(parents=True, exist_ok=True)
    _write_star_outputs(config, result, *star_cell)
    for cap, rows in curve_summaries.items():
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
        result.files += [path, svg]
    result.files.append(write_manifest(config))
    result.summary["profit_curves"] = curve_summaries
    return result


def _write_star_outputs(config, result, policy, episodes, one, five) -> None:
    """Terminal-license and rounds-used distributions at the focal effect,
    plus the full policy table and per-episode ledger. ``one`` and ``five``
    are the one-round references' license payouts."""
    cap = policy.grid.cap
    values, counts = np.unique(episodes.terminal_license, return_counts=True)
    rows = [("multi_round", v, c) for v, c in zip(values, counts)]
    for name, payouts in (("one_round", one), ("five_data", five)):
        vals, cnts = np.unique(payouts, return_counts=True)
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
        "mean_profit_five_data": float(five.mean()) - config["horizon"] * config["cost"],
    }


def run_best_response(config: ExperimentConfig) -> RunResult:
    """Closed-form best-response licenses across cost ratios and effects."""
    result = RunResult()
    cap = config["cap"]
    rows = []
    for ratio in config["cost_ratios"]:
        # each key lies in its domain, but their product may underflow to 0
        if not ratio * cap > 0.0:
            raise ConfigError(
                f"bad value for 'cap' and 'cost_ratios': the cost {ratio!r} * {cap!r} "
                f"rounds to {ratio * cap!r} and must be positive"
            )
        threshold = upper_tail_inverse(ratio)
        for theta1 in config["theta_grid"]:
            f = np_best_response(0.0, theta1, ratio * cap, cap)
            power = null_expectation(f, GaussianModel(theta1)) / cap
            rows.append((ratio, theta1, threshold, power, cap * power - ratio * cap))
    config.output_dir.mkdir(parents=True, exist_ok=True)
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
