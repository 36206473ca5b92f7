"""Experiment drivers behind the CLI.

Each experiment takes a flat key=value configuration (file and/or flag
overrides) and computes all of its outputs first. It then hands them to
``_write_outputs``, the only code here that touches the filesystem: it makes
the output directory, removes the config-dependent outputs an earlier run of
the same experiment left there, writes the CSVs and static SVG plots in
order, and writes the manifest last: a config file whose values read back
exactly, so ``--config <out>/manifest.txt`` replays the run. A rejected
config (exit 2) or a reference deviation (exit 3) is raised before that call
and leaves no output directory. All randomness flows through seeded streams:
same config, same bytes.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .fda import (
    DEFAULT_BAND,
    DEFAULT_PROFITS,
    DEFAULT_TRIAL_COST,
    audit_table,
    builtin_protocols,
    matches_reference,
)
from .gaussian import GaussianModel, RandomStream, mean_and_se, sample_normal, upper_tail
from .single_round import np_best_response
from .svgplot import _CHUNK, render_lines
from .welfare import HIGH_SEVERITY, LOW_SEVERITY, welfare_curve
from .multiround import (
    LicenseGrid,
    MultiplierRangeError,
    backward_induction,
    episodes_to_csv_columns,
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


_PARSERS: dict[str, Callable] = {
    "int": int,
    "float": _parse_float,
    "str": str,
    "floats": lambda text: tuple(map(_parse_float, text.split(","))),
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

    The numeric bounds apply to every element of a ``floats`` list; its
    parser already rejects an empty element, so an empty list cannot occur.
    """

    kind: str
    default: object
    above: float | None = None  # strict lower bound
    at_least: float | None = None  # inclusive lower bound
    below: float | None = None  # strict upper bound
    choices: tuple[str, ...] = ()

    def violation(self, value) -> str | None:
        """Why ``value`` lies outside the domain (its bound spelled exactly), or None."""
        items, each = (value, "each ") if self.kind == "floats" else ((value,), "")
        if self.choices and value not in self.choices:
            return f"must be one of {', '.join(self.choices)}"
        for op, bound, holds in (
            (">", self.above, operator.gt),
            (">=", self.at_least, operator.ge),
            ("<", self.below, operator.lt),
        ):
            if bound is not None and not all(holds(x, bound) for x in items):
                exact = isinstance(bound, float) and float(f"{bound:g}") == bound
                return f"{each}must be {op} {format(bound, 'g') if exact else repr(bound)}"
        return None


# Allowed keys, defaults and domains per experiment. Every manifest records a
# seed, even for closed-form runs; RandomStream keys each signed 64-bit seed apart.
_SEED = Key("int", DEFAULT_SEED, at_least=-(2**63), below=2**63)
SCHEMAS: dict[str, dict[str, Key]] = {
    "welfare": {
        "seed": _SEED,
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
        "seed": _SEED,
        # beyond 2**52 the spacing of doubles near theta1 reaches 1, so a
        # draw's unit noise is lost to rounding (README, Configuration)
        "theta1": Key("float", 0.2, above=-(2.0**52), below=2.0**52),
        "n_max": Key("int", 500, at_least=1),
        "reps": Key("int", 10_000, at_least=2),
        "paths_out": Key("int", 10, at_least=0),
    },
    "fda_audit": {
        "seed": _SEED,
        # money is counted in thousands, and a cost up to $500 rounds to 0 of them
        "cost": Key("float", float(DEFAULT_TRIAL_COST), above=500.0),
        "profits": Key("floats", tuple(map(float, DEFAULT_PROFITS)), above=0.0),
        "band": Key("float", DEFAULT_BAND, at_least=0.0),
    },
    "multiround": {
        "seed": _SEED,
        "horizon": Key("int", 5, at_least=1, below=2**53),  # a double holds every such count
        "cost": Key("float", 0.1, above=0.0),
        "levels": Key("int", 100, at_least=1),
        "caps": Key("floats", (1.0, 5.0), above=0.0),  # run_multiround checks file names
        # effects are draw means, bounded as evalue_growth's theta1 is; distinct in 12 digits
        "theta_grid": Key("floats", (0.5, 1.0, 1.645, 2.5), above=-(2.0**52), below=2.0**52),
        "theta_star": Key("float", 1.645, above=0.0, below=2.0**52),
        "reps": Key("int", 10_000, at_least=2),
    },
    "best_response": {
        "seed": _SEED,
        "cap": Key("float", 1.0, above=0.0),
        "cost_ratios": Key("floats", (0.002, 0.05, 0.2), above=0.0, below=1.0),
        # effects above the null
        "theta_grid": Key("floats", (0.5, 1.0, 1.645), above=0.0),
    },
}


def parse_assignment(text: str, where: str) -> tuple[str, str]:
    """Key and value of one ``key = value``; ``where`` prefixes the error."""
    key, sep, value = text.partition("=")
    if not sep:
        raise ConfigError(f"{where}: expected 'key = value', got {text!r}")
    return key.strip(), value.strip()


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat ``key = value`` lines of UTF-8 text; '#' starts a comment and a
    key may be set only once. A manifest is such a file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        raise ConfigError(f"cannot read config file {str(path)!r}: {reason}") from err
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = parse_assignment(line, f"{path}:{lineno}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
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
    output_dir = Path(output_dir)
    # The nearest existing ancestor (or the path itself, or a dangling link)
    # must be a directory, or making the output directory would fail after
    # all the compute.
    existing = next(p for p in (output_dir, *output_dir.parents) if os.path.lexists(p))
    if not existing.is_dir():
        raise ConfigError(
            f"bad value for --out: {str(output_dir)!r} "
            f"({str(existing)!r} exists and is not a directory)"
        )
    return ExperimentConfig(experiment, merged, output_dir)


_FLOATS = (float, np.floating)


def _cell(v) -> str:
    """One CSV field: 12 significant digits for a float, str for anything
    else (bools, integers, labels, verdicts)."""
    return f"{v:.12g}" if isinstance(v, _FLOATS) else str(v)


def _format_value(value) -> str:
    """One manifest value, spelled so that ``_PARSERS`` reads it back exactly."""
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return repr(value) if isinstance(value, float) else str(value)


def write_csv(path: Path, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """Comma-separated, header row, LF endings, one column per header field;
    each cell is ``_cell(v)``: ``%.12g`` (12 significant digits) for a float
    or numpy float, ``str`` for anything else. A column's format is chosen
    once, a numeric ndarray's from its dtype and any other's from its cells'
    types (a column mixing floats with other types goes through ``_cell``);
    rows are formatted ``_CHUNK`` at a time, one ``%`` each chunk, and each
    chunk is written as it is formatted. Columns not one per header field or
    of unequal lengths raise ValueError before the file is opened.
    """
    if len(columns) != len(header) or len(set(map(len, columns))) > 1:
        raise ValueError(f"{path.name} needs {len(header)} columns of one length")
    formats, casts = [], []  # per column: its format, and the cells of a slice of it
    for c in columns:
        if isinstance(c, np.ndarray) and c.dtype.kind in "biuf":
            kinds, cast = {c.dtype.kind == "f"}, np.ndarray.tolist
        else:  # {True} all floats, {False} none, {True, False} mixed
            kinds = {issubclass(t, _FLOATS) for t in set(map(type, c))}
            cast = (lambda s: list(map(_cell, s))) if kinds == {True, False} else list
        formats.append("%.12g" if kinds == {True} else "%s")
        casts.append(cast)
    n_rows, k = min(map(len, columns), default=0), len(columns)
    template = ",".join(formats) + "\n"
    with path.open("w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CHUNK):
            m = min(_CHUNK, n_rows - start)
            cells = [None] * (m * k)  # row-major: the slices' cells interleaved
            for j, (c, cast) in enumerate(zip(columns, casts)):
                cells[j::k] = cast(c[start:start + m])
            f.write(template * m % tuple(cells))


@dataclass
class RunResult:
    files: list[Path]
    summary: dict
    removed: list[Path] = field(default_factory=list)


# Output names that vary with the config, as globs per experiment. Every
# output name starts with its experiment's name, so these never match
# another experiment's files.
_CONFIG_DEPENDENT_OUTPUTS = {"multiround": ("multiround_profit_cap*",)}


def _write_outputs(config: ExperimentConfig, outputs: list, summary: dict) -> RunResult:
    """Make the output directory, remove the files of the experiment's
    config-dependent names that this run does not write (an earlier run's
    outputs), call each ``(file name, writer, *args)`` as
    ``writer(output_dir / name, *args)`` in order, and write the manifest
    last. The files are listed in the order they were written."""
    config.output_dir.mkdir(parents=True, exist_ok=True)
    names = {name for name, *_ in outputs}
    removed = sorted(
        path
        for pattern in _CONFIG_DEPENDENT_OUTPUTS.get(config.experiment, ())
        for path in config.output_dir.glob(pattern)
        if path.name not in names and not path.is_dir()
    )
    for path in removed:
        path.unlink()
    manifest = f"# experiment = {config.experiment}\n" + "".join(
        f"{key} = {_format_value(config[key])}\n" for key in sorted(config.parameters)
    )
    outputs = outputs + [("manifest.txt", Path.write_text, manifest, "utf-8")]
    files = []
    for name, writer, *args in outputs:
        files.append(config.output_dir / name)
        writer(files[-1], *args)
    return RunResult(files, summary, removed)


def run_welfare(config: ExperimentConfig) -> RunResult:
    """Principal utility vs null share, aligned menu against the status quo."""
    n, cost = config["grid_points"], config["cost"]
    pi0_grid = np.arange(n) / max(n - 1, 1)  # each point i / (n - 1) rounded once
    outputs, summary = [], {}
    for label in ("a", "b"):
        ratio, severity_name = config[f"ratio_{label}"], config[f"severity_{label}"]
        cap = ratio * cost
        # Each key lies in its domain, but their product may still overflow or
        # round down to the cost.
        if not (math.isfinite(cap) and cap > cost):
            raise ConfigError(
                f"bad value for 'cost' and 'ratio_{label}': their product, the "
                f"cap {cap!r}, must be finite and exceed cost {cost!r}"
            )
        # one more point at pi0 = 1 for the summary, which the grid [0] lacks
        curve = welfare_curve(
            np.append(pi0_grid, 1.0), cost, cap, _SEVERITIES[severity_name], config["theta1"]
        )
        pi0, aligned, status_quo = (column[:-1] for column in curve)
        outputs += [
            (f"welfare_panel_{label}.csv", write_csv,
             ["pi0", "utility_aligned", "utility_status_quo"], [pi0, aligned, status_quo]),
            (f"welfare_panel_{label}.svg", render_lines,
             [("aligned menu", pi0, aligned), ("status quo", pi0, status_quo)],
             f"Principal utility, cap/cost = {ratio:g}, {severity_name} severity",
             "null share", "expected utility"),
        ]
        summary[f"panel_{label}"] = {
            "ratio": ratio,
            "severity": severity_name,
            "aligned_min": float(aligned.min()),
            "status_quo_at_1": float(curve[2][-1]),
        }
    return _write_outputs(config, outputs, summary)


def run_evalue_growth(config: ExperimentConfig) -> RunResult:
    """Growth of the analytic e-value with sample size.

    Under the alternative the mean of log E grows linearly at rate
    theta1^2/2 per observation; under the null the mean of E itself stays at
    one (martingale), which is what caps a bluffing agent. Each hypothesis
    draws one (reps, n_max) evidence matrix, replicate r in row r: the
    alternative from stream 0, the null from stream 1. A theta1 so large
    that the statistics overflow is a config error.
    """
    theta1 = config["theta1"]
    n_max, reps = config["n_max"], config["reps"]
    seed = config["seed"]
    ns = np.arange(1, n_max + 1)
    half_square = theta1**2 / 2.0  # below 2**103: the domain keeps |theta1| < 2**52

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

    series = [("mean log e-value", ns, mean_log_alt)]
    series += [(f"path {i}", ns, path) for i, path in enumerate(written[:3])]
    outputs = [
        ("evalue_growth.csv", write_csv,
         ["n", "mean_log_e_alt", "se_log_e_alt", "mean_e_null", "se_e_null"],
         [ns, mean_log_alt, se_log_alt, mean_e_null, se_e_null]),
        # path i, row i of the matrix, is column i + 1
        ("evalue_growth_paths.csv", write_csv,
         ["n"] + [f"log_e_path_{i}" for i in range(paths_out)], [ns, *written]),
        ("evalue_growth.svg", render_lines, series,
         f"e-value growth, effect {theta1:g}", "sample size", "log e-value"),
    ]
    summary = {
        "slope": slope,
        "theory_slope": half_square,
        "max_null_mean": float(mean_e_null.max()),
        "null_mean_ok": bool(np.all(mean_e_null <= 1.0 + 3.0 * se_e_null)),
    }
    return _write_outputs(config, outputs, summary)


def run_fda_audit(config: ExperimentConfig) -> RunResult:
    """Expected value of a placebo trial across protocols and market sizes."""
    rows = audit_table(
        builtin_protocols(), config["profits"], config["cost"], config["band"]
    )
    is_default = (config["cost"], config["profits"], config["band"]) == (
        DEFAULT_TRIAL_COST, DEFAULT_PROFITS, DEFAULT_BAND
    )
    if is_default and not matches_reference(rows):
        raise ReferenceDeviation(
            "default audit table disagrees with its committed verdicts"
        )
    header = ["protocol", "p_null_approval", "profit", "cost", "expected_value", "verdict"]
    outputs = [("fda_audit.csv", write_csv, header,  # each field an AuditRow attribute
                [[getattr(r, name) for r in rows] for name in header])]
    summary = {
        "rows": len(rows),
        "reference_checked": is_default,
        "verdicts": [str(r.verdict) for r in rows],
    }
    return _write_outputs(config, outputs, summary)


def _multiround_cell(
    config: ExperimentConfig, cap: float, theta1: float, stream_index: int
):
    """DP policy, its simulated episodes and the license payouts of both
    one-round references for one (cap, effect) cell.

    The three agents read one (reps, horizon) evidence matrix drawn from
    stream ``stream_index`` (common random numbers): the DP agent reads row
    r, the same-cost agent applies its best response to column 0, and the
    pooled agent applies its best response to the row mean, which is
    N(theta1, 1/sqrt(horizon)). Both best responses depend on the cost and
    the cap alone, so no effect enters them.

    An effect at most zero plays the theta_star agent's DP strategy against
    null evidence. A design effect too large for the multiplier's double
    range is a config error naming the key it came from; an unconverged
    multiplier solve or a root below its precision floor (a tiny effect, a
    subnormal cost, a cost within the tolerance of the cap) also names 'cost'.
    """
    T, cost = config["horizon"], config["cost"]
    design_theta = theta1 if theta1 > 0.0 else config["theta_star"]
    try:
        policy = backward_induction(
            T, cost, design_theta, LicenseGrid.from_cap(cap, config["levels"])
        )
    except RuntimeError as err:
        on_grid = theta1 > 0.0 and theta1 in config["theta_grid"]
        key = "theta_grid" if on_grid else "theta_star"
        if isinstance(err, MultiplierRangeError):
            what = f"bad value for {key!r}: {design_theta!r}"
        else:  # the solve did not converge
            what = f"bad values for {key!r} and 'cost': {design_theta!r} with cost {cost!r}"
        raise ConfigError(f"{what} at cap {cap:g} ({err})") from err
    episodes = simulate_policy(
        policy, theta1, config["reps"], RandomStream(config["seed"], stream_index)
    )
    z = episodes.evidence
    one = np_best_response(cost, cap)
    pooled = np_best_response(T * cost, cap, sd=1.0 / math.sqrt(T))
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
    caps, T, cost = config["caps"], config["horizon"], config["cost"]
    star = (min(caps), config["theta_star"])
    # in-domain keys may still give a subnormal level spacing, where the DP loses
    # digits, or a profit range [-T * cost, cap] too wide for the figure's axis
    spacing, span = min(caps) / config["levels"], max(caps) + T * cost
    if not spacing >= sys.float_info.min:
        raise ConfigError(f"bad values for 'caps' and 'levels': the level spacing "
                          f"{min(caps)!r} / {config['levels']} is not a normal double")
    if not math.isfinite(span * span):
        raise ConfigError(f"bad values for 'caps', 'cost' and 'horizon': the profit range "
                          f"{max(caps)!r} + {T} * {cost!r} overflows when squared")
    # a cap's %g spelling names its curve files, an effect's 12 digits (0 for -0) its rows
    for key, spell in (("caps", "{:g}".format), ("theta_grid", lambda t: _cell(t + 0.0))):
        if len(set(map(spell, config[key]))) != len(config[key]):
            raise ConfigError(f"bad value for {key!r}: {config[key]!r} (two values share "
                              f"the spelling that names their output files or curve rows)")

    cells = [(cap, theta1) for cap in caps for theta1 in config["theta_grid"]]
    n_grid = len(cells)
    if star not in cells:
        cells.append(star)

    # Only the curve rows and the star cell's arrays are kept.
    curve_summaries = {cap: [] for cap in caps}
    for i, (cap, theta1) in enumerate(cells):
        cell = _multiround_cell(config, cap, theta1, i)
        _, episodes, one, five = cell
        row = (theta1,)
        for x, paid in ((episodes.profit, 0.0), (one, cost), (five, T * cost)):
            mean, se = mean_and_se(x.copy())
            row += (float(mean) - paid, float(se))
        if i < n_grid:
            curve_summaries[cap].append(row)
        if (cap, theta1) == star:
            star_row, star_cell = row, cell

    outputs, star_summary = _star_outputs(star_row, *star_cell)
    for cap, rows in curve_summaries.items():
        columns = list(zip(*rows))
        theta, multi, _, single, _, pooled, _ = columns
        outputs += [
            (f"multiround_profit_cap{cap:g}.csv", write_csv,
             ["theta1", "profit_multi", "se_multi", "profit_one_round", "se_one_round",
              "profit_five_data", "se_five_data"], columns),
            (f"multiround_profit_cap{cap:g}.svg", render_lines,
             [("multi-round", theta, multi), ("one round", theta, single),
              ("one round, 5x data", theta, pooled)],
             f"Agent profit vs effect size, cap {cap:g}", "effect size", "mean profit"),
        ]
    summary = {"at_theta_star": star_summary, "profit_curves": curve_summaries}
    return _write_outputs(config, outputs, summary)


def _star_outputs(row: tuple, policy, episodes, one, five) -> tuple[list, dict]:
    """Terminal-license and rounds-used distributions at the focal effect,
    plus the full policy table and per-episode ledger, and their summary.
    ``row`` is the focal cell's curve row, its mean profits net of costs;
    ``one`` and ``five`` are the one-round references' license payouts."""
    agents, values, counts = [], [], []
    for name, payouts in (("multi_round", episodes.terminal_license),
                          ("one_round", one), ("five_data", five)):
        v, c = np.unique(payouts, return_counts=True)
        agents += [name] * len(v)
        values.append(v)
        counts.append(c)
    outputs = [
        ("multiround_terminal.csv", write_csv, ["agent", "terminal_license", "count"],
         [agents, np.concatenate(values), np.concatenate(counts)]),
        ("multiround_rounds.csv", write_csv,
         ["rounds_used", "count"], np.unique(episodes.tau, return_counts=True)),
        ("multiround_policy.txt", Path.write_text, policy.export_text(), "utf-8"),
        ("multiround_episodes.csv", write_csv,
         ["rep", "tau", "terminal_license", "total_cost", "profit"],
         episodes_to_csv_columns(episodes)),
    ]
    summary = {
        "p_terminal_cap": float(np.mean(episodes.terminal_license == policy.grid.cap)),
        "mean_rounds": float(episodes.tau.mean()),
        "mean_total_cost": float(mean_and_se(episodes.total_cost.copy())[0]),
        "mean_profit_multi": row[1],
        "mean_profit_five_data": row[5],
    }
    return outputs, summary


def run_best_response(config: ExperimentConfig) -> RunResult:
    """Closed-form best-response licenses across cost ratios and effects.

    The best response pays the cap once z clears the threshold whose null
    tail mass is cost/cap, which depends on the cost ratio alone and not on
    the effect, so each ratio builds one license. The cells a ratio repeats
    (the ratio and the threshold) and the effects every ratio repeats are
    spelled once by ``_cell``, the writer's own per-cell spelling, so the
    file reads as if each row were written from floats.
    """
    cap = config["cap"]
    thetas = config["theta_grid"]
    theta_cells = list(map(_cell, thetas))
    ratio_cells, theta_col, threshold_cells, powers, profits = columns = [[], [], [], [], []]
    for ratio in config["cost_ratios"]:
        cost = ratio * cap
        # each key lies in its domain, but their product may underflow to 0
        # or, at a tiny cap, round up to the cap
        if not 0.0 < cost < cap:
            raise ConfigError(
                f"bad value for 'cap' and 'cost_ratios': the cost {ratio!r} * {cap!r} "
                f"rounds to {cost!r} and must lie strictly between 0 and the cap"
            )
        threshold = np_best_response(cost, cap).approval_threshold()
        power = [upper_tail(threshold - theta1) for theta1 in thetas]
        ratio_cells += [_cell(ratio)] * len(thetas)
        theta_col += theta_cells
        threshold_cells += [_cell(threshold)] * len(thetas)
        powers += power
        profits += [cap * p - cost for p in power]
    outputs = [(
        "best_response.csv", write_csv,
        ["cost_ratio", "theta1", "threshold", "power", "expected_profit"], columns,
    )]
    return _write_outputs(config, outputs, {"rows": len(powers)})


RUNNERS: dict[str, Callable[[ExperimentConfig], RunResult]] = {
    "welfare": run_welfare,
    "evalue_growth": run_evalue_growth,
    "fda_audit": run_fda_audit,
    "multiround": run_multiround,
    "best_response": run_best_response,
}
