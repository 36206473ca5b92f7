import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import evcontracts
from evcontracts import experiments
from evcontracts.cli import EXIT_CONFIG, EXIT_DEVIATION, EXIT_OK, main
from evcontracts.gaussian import (
    GaussianModel, RandomStream, sample_normal, upper_tail, upper_tail_inverse,
)
from evcontracts.experiments import (
    SCHEMAS,
    ConfigError,
    parse_config_file,
    resolve_config,
    run_evalue_growth,
    run_multiround,
    write_csv,
)
from evcontracts.multiround import (
    LicenseGrid,
    backward_induction,
    episodes_to_csv_columns,
    simulate_policy,
)
from evcontracts.single_round import np_best_response


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestConfigParsing:
    def test_file_format(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\ngrid_points = 11\ntheta1 = 0.5  # inline\n")
        assert parse_config_file(cfg) == {"grid_points": "11", "theta1": "0.5"}

    def test_bad_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid_points: 11\n")
        with pytest.raises(ConfigError):
            parse_config_file(cfg)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            resolve_config("welfare", tmp_path, {"bogus": "1"})
        assert "bogus" in str(err.value)

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError):
            resolve_config("nonsense", tmp_path)

    def test_bad_value(self, tmp_path):
        with pytest.raises(ConfigError):
            resolve_config("welfare", tmp_path, {"grid_points": "eleven"})

    def test_defaults_applied(self, tmp_path):
        config = resolve_config("welfare", tmp_path)
        assert config["grid_points"] == 101
        assert config["ratio_b"] == 50.0

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "experiment,key",
        [
            (experiment, key)
            for experiment, schema in SCHEMAS.items()
            for key, spec in schema.items()
            if spec.kind in ("float", "floats")
        ],
    )
    def test_non_finite_value_exits_config(
        self, tmp_path, capsys, experiment, key, value
    ):
        command = experiment.replace("_", "-")
        code = main([command, "--out", str(tmp_path), "--param", f"{key}={value}"])
        assert code == EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value",
        (
            ("welfare", "theta1", "-1"),
            ("welfare", "theta1", "0"),
            ("evalue-growth", "paths_out", "-3"),
            ("fda-audit", "profits", "-1e9"),
            ("fda-audit", "profits", ","),
            ("multiround", "theta_grid", ","),
            # an empty element is not a number, wherever it stands
            ("multiround", "theta_grid", "1,,2"),
            ("multiround", "caps", "1,5,"),
            ("multiround", "caps", "1,-1"),
            ("multiround", "cost", "-0.1"),
            ("welfare", "ratio_b", "0.5"),
            ("welfare", "severity_b", "medium"),
            ("best-response", "cap", "-1"),
            ("best-response", "theta_grid", "-1"),
            ("best-response", "theta_grid", ","),
            ("best-response", "cost_ratios", ","),
        ),
    )
    def test_out_of_range_value_exits_config(
        self, tmp_path, capsys, command, key, value
    ):
        code = main([command, "--out", str(tmp_path), "--param", f"{key}={value}"])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, message",
        (
            (["welfare", "--seed", "-9223372036854775809"],
             "(must be >= -9223372036854775808)"),
            (["multiround", "--param", "horizon=9007199254740992"],
             "(must be < 9007199254740992)"),
            (["multiround", "--param", "theta_grid=1e20"], "(each must be < 4503599627370496.0)"),
        ),
    )
    def test_bound_is_printed_exactly(self, tmp_path, capsys, argv, message):
        # an int bound prints with str, a float with %g only where that reads back
        assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_file_is_read_as_utf8(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("# na\u00efve \u2264 comment\ntheta1 = 0.5\n".encode("utf-8"))
        assert parse_config_file(cfg) == {"theta1": "0.5"}

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\n# again\nseed = 2\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:3: duplicate key 'seed'"):
            parse_config_file(cfg)

    def test_param_without_equals_exits_config(self, tmp_path, capsys):
        out = tmp_path / "w"
        assert main(["welfare", "--out", str(out), "--param", "seed"]) == EXIT_CONFIG
        assert "--param: expected 'key = value', got 'seed'" in capsys.readouterr().err
        assert not out.exists()

    def test_only_a_config_error_exits_2(self, tmp_path, monkeypatch):
        # any other exception reaching main is a defect and must show a traceback
        def broken(config):
            raise ValueError("not a config error")

        monkeypatch.setitem(experiments.RUNNERS, "welfare", broken)
        with pytest.raises(ValueError, match="not a config error"):
            main(["welfare", "--out", str(tmp_path / "w")])

    def test_repeated_param_override_last_wins(self, tmp_path):
        out = tmp_path / "w"
        args = ["welfare", "--out", str(out), "--param", "grid_points=3",
                "--param", "seed=1", "--param", "seed=2"]
        assert main(args) == EXIT_OK
        assert "seed = 2\n" in (out / "manifest.txt").read_text()

    @pytest.mark.parametrize("kind", ["directory", "not utf-8"])
    def test_unreadable_config_exits_config_naming_the_path(self, tmp_path, capsys, kind):
        cfg = tmp_path / "run.cfg"
        if kind == "directory":
            cfg.mkdir()
        else:
            cfg.write_bytes(b"theta1 = 0.5 # \xff\n")
        out = tmp_path / "w"
        assert main(["welfare", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert f"cannot read config file {str(cfg)!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fda-audit", "best-response"])
    @pytest.mark.parametrize("shape", ["file", "below a file", "dangling link"])
    def test_out_through_an_existing_file_exits_before_compute(
        self, tmp_path, capsys, monkeypatch, command, shape
    ):
        monkeypatch.setitem(experiments.RUNNERS, command.replace("-", "_"), None)
        blocker = tmp_path / "taken"
        if shape == "dangling link":
            blocker.symlink_to(tmp_path / "missing")
        else:
            blocker.write_text("keep")
        out = blocker / "x" if shape == "below a file" else blocker
        assert main([command, "--out", str(out)]) == EXIT_CONFIG
        assert (
            f"bad value for --out: {str(out)!r} ({str(blocker)!r} exists and is "
            "not a directory)"
        ) in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [blocker]


class TestRepsFlag:
    """--reps is offered only by the experiments whose schema has a reps key."""

    def test_experiment_without_reps_rejects_the_flag(self, tmp_path, capsys):
        out = tmp_path / "w"
        with pytest.raises(SystemExit) as exit_:
            main(["welfare", "--out", str(out), "--reps", "5"])
        assert exit_.value.code == EXIT_CONFIG
        assert "--reps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(SCHEMAS))
    def test_help_lists_reps_only_where_the_schema_has_it(self, capsys, name):
        command = name.replace("_", "-")
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == EXIT_OK
        offered = "--reps" in capsys.readouterr().out
        assert offered == (command in ("evalue-growth", "multiround"))


class TestWelfareCommand:
    def test_default_structure(self, tmp_path):
        out = tmp_path / "w"
        code = main(["welfare", "--out", str(out), "--param", "grid_points=21"])
        assert code == EXIT_OK
        header, rows = read_csv(out / "welfare_panel_a.csv")
        assert header == ["pi0", "utility_aligned", "utility_status_quo"]
        assert len(rows) == 21
        assert (out / "welfare_panel_b.svg").exists()
        manifest = (out / "manifest.txt").read_text()
        assert "experiment = welfare" in manifest
        assert "grid_points = 21" in manifest

    def test_sign_structure(self, tmp_path):
        out = tmp_path / "w"
        assert main(["welfare", "--out", str(out)]) == EXIT_OK
        _, rows_a = read_csv(out / "welfare_panel_a.csv")
        assert all(float(r[1]) >= float(r[2]) - 1e-12 for r in rows_a)
        _, rows_b = read_csv(out / "welfare_panel_b.csv")
        last = rows_b[-1]
        assert float(last[1]) == 0.0
        assert float(last[2]) < 0.0

    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "w"
        code = main(["welfare", "--out", str(out), "--param", "grid_points=1"])
        assert code == EXIT_OK
        _, rows = read_csv(out / "welfare_panel_a.csv")
        assert len(rows) == 1 and float(rows[0][0]) == 0.0
        # the summary's status quo utility is the one at pi0 = 1, as on the
        # two-point grid [0, 1], not the grid's last row (pi0 = 0)
        summaries = [
            experiments.run_welfare(
                resolve_config("welfare", tmp_path / str(n), None, {"grid_points": str(n)})
            ).summary
            for n in (1, 2)
        ]
        assert [s[p]["status_quo_at_1"] for s in summaries for p in ("panel_a", "panel_b")] == [
            0.0, -0.05000000000000002, 0.0, -0.05000000000000002]

    def test_summary_prints_python_floats(self, tmp_path, capsys):
        # the curves are arrays, but the summary spells its values as floats
        assert main(["welfare", "--out", str(tmp_path / "w")]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "panel_b: {'ratio': 50.0, 'severity': 'low', 'aligned_min': 0.0, " \
               "'status_quo_at_1': -0.05000000000000002}" in stdout
        assert "np.float64(" not in stdout

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "w"
        args = ["welfare", "--out", str(out), "--param", "grid_points=31"]
        assert main(args) == EXIT_OK
        first = (out / "welfare_panel_a.csv").read_bytes()
        # plots are presentation-only: deleting them must not disturb CSVs
        (out / "welfare_panel_a.svg").unlink()
        assert main(args) == EXIT_OK
        assert (out / "welfare_panel_a.csv").read_bytes() == first
        assert (out / "welfare_panel_a.svg").exists()

    def test_unknown_key_exit_code(self, tmp_path):
        code = main(["welfare", "--out", str(tmp_path), "--param", "bogus=3"])
        assert code == EXIT_CONFIG

    def test_bad_severity_exit_code(self, tmp_path):
        code = main(["welfare", "--out", str(tmp_path), "--param", "severity_a=extreme"])
        assert code == EXIT_CONFIG

    def test_domain_error_maps_to_config_exit(self, tmp_path):
        # cap below cost fails contract validation, not a traceback
        code = main(["welfare", "--out", str(tmp_path), "--param", "ratio_a=0.5"])
        assert code == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        code = main(["welfare", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG


class TestFdaCommand:
    def test_default_matches_reference(self, tmp_path):
        out = tmp_path / "fda"
        assert main(["fda-audit", "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "fda_audit.csv")
        assert header == [
            "protocol",
            "p_null_approval",
            "profit",
            "cost",
            "expected_value",
            "verdict",
        ]
        assert len(rows) == 9

    def test_custom_cost_recomputes(self, tmp_path):
        out = tmp_path / "fda"
        code = main(["fda-audit", "--out", str(out), "--param", "cost=20000000"])
        assert code == EXIT_OK
        _, rows = read_csv(out / "fda_audit.csv")
        lookup = {(r[0], r[2]): r for r in rows}
        row = lookup[("modernized", "10000000000")]
        assert int(row[4]) == 30_000_000
        assert row[5] == "not_aligned"

    def test_empty_profits(self, tmp_path, capsys):
        out = tmp_path / "fda"
        code = main(["fda-audit", "--out", str(out), "--param", "profits="])
        assert code == EXIT_CONFIG
        assert "profits" in capsys.readouterr().err
        assert not (out / "fda_audit.csv").exists()

    def test_cost_below_a_thousand_rounding_exits_config(self, tmp_path, capsys):
        # money is integer thousands: a $400 trial would be audited as free
        code = main(["fda-audit", "--out", str(tmp_path / "fda"), "--param", "cost=400"])
        assert code == EXIT_CONFIG
        assert "bad value for 'cost': 400.0 (must be > 500)" in capsys.readouterr().err

    def test_reference_deviation_exit_code(self, tmp_path, monkeypatch):
        # tampering with the committed verdicts must be caught on a default run
        import evcontracts.fda as fda

        broken = dict(fda.REFERENCE_VERDICTS)
        broken[("standard", 1_000_000_000)] = fda.Verdict.NOT_ALIGNED
        monkeypatch.setattr(fda, "REFERENCE_VERDICTS", broken)
        out = tmp_path / "fda"
        code = main(["fda-audit", "--out", str(out)])
        assert code == EXIT_DEVIATION
        assert not out.exists()


class TestEvalueGrowthCommand:
    def test_small_run(self, tmp_path):
        out = tmp_path / "g"
        config = resolve_config(
            "evalue_growth", out, overrides={"n_max": "40", "reps": "400"}
        )
        result = run_evalue_growth(config)
        assert (out / "evalue_growth.csv").exists()
        assert (out / "evalue_growth_paths.csv").exists()
        assert result.summary["slope"] == pytest.approx(
            result.summary["theory_slope"], rel=0.5
        )

    def test_cli_entry(self, tmp_path):
        out = tmp_path / "g"
        code = main(
            [
                "evalue-growth",
                "--out",
                str(out),
                "--param",
                "n_max=20",
                "--reps",
                "100",
                "--seed",
                "4",
            ]
        )
        assert code == EXIT_OK
        assert "seed = 4" in (out / "manifest.txt").read_text()

    def test_bad_reps(self, tmp_path):
        code = main(["evalue-growth", "--out", str(tmp_path), "--reps", "1"])
        assert code == EXIT_CONFIG

    def test_paths_are_rows_of_one_matrix(self, tmp_path, monkeypatch):
        # path i is row i of the (reps, n_max) matrix drawn from stream 0
        written = {}

        def record(path, header, columns):
            written[path.name] = (header, columns)

        monkeypatch.setattr(experiments, "write_csv", record)
        theta1, n_max, reps, seed = 0.3, 50, 20, 8
        config = resolve_config(
            "evalue_growth",
            tmp_path / "g",
            overrides={"theta1": str(theta1), "n_max": str(n_max), "reps": str(reps),
                       "seed": str(seed), "paths_out": "5"},
        )
        run_evalue_growth(config)
        header, columns = written["evalue_growth_paths.csv"]
        assert header == ["n"] + [f"log_e_path_{i}" for i in range(5)]
        paths = np.array(columns[1:])
        z = sample_normal(GaussianModel(theta1), RandomStream(seed, 0), (reps, n_max))
        ns = np.arange(1, n_max + 1)
        expected = theta1 * np.cumsum(z[:5], axis=1) - ns * theta1**2 / 2.0
        assert np.max(np.abs(paths - expected)) <= 1e-12


class TestMultiroundCommand:
    def test_small_run(self, tmp_path):
        out = tmp_path / "m"
        config = resolve_config(
            "multiround",
            out,
            overrides={
                "reps": "300",
                "levels": "20",
                "horizon": "3",
                "caps": "1",
                "theta_grid": "1.645",
            },
        )
        result = run_multiround(config)
        assert (out / "multiround_profit_cap1.csv").exists()
        assert (out / "multiround_terminal.csv").exists()
        assert (out / "multiround_rounds.csv").exists()
        star = result.summary["at_theta_star"]
        assert star["p_terminal_cap"] > 0.8

    def test_cli_entry(self, tmp_path):
        out = tmp_path / "m"
        code = main(
            [
                "multiround",
                "--out",
                str(out),
                "--reps",
                "100",
                "--param",
                "levels=10",
                "--param",
                "horizon=2",
                "--param",
                "caps=1",
                "--param",
                "theta_grid=1.0",
            ]
        )
        assert code == EXIT_OK
        # theta_star defaults to 1.645 and is off the grid: run separately
        assert (out / "multiround_terminal.csv").exists()
        assert (out / "multiround_policy.txt").exists()
        assert (out / "multiround_episodes.csv").exists()

    def test_null_effect_grid_point(self, tmp_path):
        # bluffing agents: nonpositive mean profit for all three columns
        out = tmp_path / "m"
        config = resolve_config(
            "multiround",
            out,
            overrides={
                "reps": "4000",
                "levels": "20",
                "horizon": "3",
                "caps": "1",
                "theta_grid": "0",
            },
        )
        result = run_multiround(config)
        rows = result.summary["profit_curves"][1.0]
        (theta, multi, se_m, one, se_1, five, se_5) = rows[0]
        assert theta == 0.0
        assert multi <= 3.0 * se_m
        assert one <= 3.0 * se_1
        assert five <= 3.0 * se_5

    def test_empty_caps_rejected(self, tmp_path):
        code = main(["multiround", "--out", str(tmp_path), "--param", "caps="])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "key, value",
        (
            ("caps", "1,5,1"),
            ("caps", "1,1.0000001"),
            ("theta_grid", "1.645,1.645"),
            ("theta_grid", "1.645,1.6450000000001"),
            ("theta_grid", "0,-0"),
        ),
    )
    def test_repeated_grid_value_rejected(self, tmp_path, capsys, key, value):
        # a repeat would solve and write the same cell twice, two caps with one
        # %g spelling (1 and 1.0000001) would write one curve file twice, and two
        # effects with one 12-digit spelling would write curve rows that read alike
        code = main(
            ["multiround", "--out", str(tmp_path), "--reps", "10", "--param", "levels=4",
             "--param", f"{key}={value}"]
        )
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_large_effect_runs(self, tmp_path):
        # theta 36 needs multipliers near exp(-694)
        code = main(
            ["multiround", "--out", str(tmp_path / "m"), "--reps", "10",
             "--param", "theta_grid=36", "--param", "caps=1", "--param", "levels=10"]
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "key, params",
        (
            ("theta_grid", ["theta_grid=40"]),
            # a null cell designs for theta_star
            ("theta_star", ["theta_grid=-0.5", "theta_star=40"]),
            # theta_star off the grid runs as a cell of its own
            ("theta_star", ["theta_grid=1", "theta_star=40"]),
        ),
    )
    def test_effect_beyond_the_multiplier_range_exits_config(
        self, tmp_path, capsys, key, params
    ):
        out = tmp_path / "m"
        argv = ["multiround", "--out", str(out), "--reps", "10",
                "--param", "caps=1", "--param", "levels=10"]
        for param in params:
            argv += ["--param", param]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"bad value for '{key}': 40.0 at cap 1" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("theta, levels", (("80", "10"), ("1e5", "400")))
    def test_effect_far_beyond_the_multiplier_range_exits_config(
        self, tmp_path, capsys, theta, levels
    ):
        # the spend underflows long before such a multiplier, so no search for
        # it could tell a huge effect from an unattainable budget
        out = tmp_path / "m"
        code = main(
            ["multiround", "--out", str(out), "--reps", "10", "--param", "caps=1",
             "--param", f"levels={levels}", "--param", f"theta_grid={theta}"]
        )
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"bad value for 'theta_grid': {float(theta)!r} at cap 1" in err
        assert "outside the normal double range" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, params",
        (
            # a tiny effect or a subnormal cost leaves the multiplier solve
            # short of its tolerance
            ("theta_grid", ["theta_grid=1e-300"]),
            ("theta_star", ["theta_grid=-0.5", "theta_star=1e-300"]),
            ("theta_grid", ["cost=1e-320"]),
        ),
    )
    def test_unconverged_multiplier_solve_exits_config(self, tmp_path, capsys, key, params):
        out = tmp_path / "m"
        argv = ["multiround", "--out", str(out), "--reps", "5",
                "--param", "caps=1", "--param", "levels=10"]
        for param in params:
            argv += ["--param", param]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"bad values for '{key}' and 'cost'" in err
        assert "above the relative tolerance" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, params",
        (
            # the solves converge, but the root's profit, about 0.9 theta, is
            # under what their tolerance resolves
            ("theta_grid", ["theta_grid=1e-13"]),
            ("theta_star", ["theta_grid=-0.5", "theta_star=1e-13"]),
        ),
    )
    def test_root_below_its_precision_floor_exits_config(self, tmp_path, capsys, key, params):
        out = tmp_path / "m"
        argv = ["multiround", "--out", str(out), "--reps", "5",
                "--param", "caps=1", "--param", "levels=10"]
        for param in params:
            argv += ["--param", param]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"bad values for '{key}' and 'cost': 1e-13 with cost 0.1 at cap 1" in err
        assert "below its precision floor" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_theta_star_near_a_grid_effect_designs_its_own_cell(self, tmp_path):
        # theta_star 1e-13 away from the grid effect 1.645 is not that effect
        out = tmp_path / "m"
        code = main(["multiround", "--out", str(out), "--reps", "50", "--param", "caps=1",
                     "--param", "levels=5", "--param", "horizon=2",
                     "--param", "theta_grid=1.645", "--param", "theta_star=1.6450000000001"])
        assert code == EXIT_OK
        section_2 = (out / "multiround_policy.txt").read_text().split("\n\n")[1]
        thetas = [float(line.split(",")[1]) for line in section_2.splitlines()[1:]]
        assert thetas == [1.6450000000001] * 2

    def test_five_data_agent_reaches_cap_at_focal_effect(self, tmp_path):
        out = tmp_path / "m"
        config = resolve_config(
            "multiround",
            out,
            overrides={
                "reps": "400",
                "levels": "20",
                "horizon": "5",
                "caps": "1",
                "theta_grid": "1.645",
            },
        )
        run_multiround(config)
        text = (out / "multiround_terminal.csv").read_text().splitlines()[1:]
        five_rows = [r.split(",") for r in text if r.startswith("five_data")]
        total = sum(int(r[2]) for r in five_rows)
        at_cap = sum(int(r[2]) for r in five_rows if float(r[1]) >= 1.0 - 1e-9)
        assert at_cap / total >= 0.95

    def test_policy_and_episode_bytes_are_pinned(self, tmp_path):
        # Guards refactors of the DP, the policy simulator and the one-round
        # references: the policy table, the per-episode ledger, the profit
        # curves and the terminal histograms must keep their exact bytes.
        # The digests were recorded with numpy 2.4.6 and scipy 1.17.1;
        # another numpy or scipy may move the last printed digit and need
        # new ones. The policy digest was re-recorded when the file began to
        # write the stored policy (repr floats, one row per level, one step
        # pattern per round), and again when the multipliers began to come
        # from per-cell interpolants (its repr floats moved in the 12th digit),
        # and again when it began to store the solver's log multiplier as
        # solved rather than log(exp(u)) (last-digit moves), and again when
        # the alternative values began to come from the fit cells'
        # interpolants (values within 1e-13 relative, multipliers in the last
        # digits);
        # test_dp.py::TestPolicyExport checks that every update rebuilt from
        # the file equals the solver's. The two profit plots and the
        # rounds-used table complete the run's outputs (all but the manifest).
        out = tmp_path / "m"
        code = main(
            ["multiround", "--out", str(out), "--reps", "200",
             "--param", "levels=20", "--param", "caps=1,5",
             "--param", "theta_grid=1.645,-0.5"]
        )
        assert code == EXIT_OK
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in (
                "multiround_policy.txt",
                "multiround_episodes.csv",
                "multiround_profit_cap1.csv",
                "multiround_profit_cap5.csv",
                "multiround_profit_cap1.svg",
                "multiround_profit_cap5.svg",
                "multiround_rounds.csv",
                "multiround_terminal.csv",
            )
        }
        assert digests == {
            "multiround_policy.txt":
                "896187969bc8f31180415f9227d0416cedd48d1b1a2404d13c00367092d3a26c",
            "multiround_episodes.csv":
                "87f73b50054c12adffd616a036afd0f38844ca935d8821e6dfdb83183dfeeb89",
            "multiround_profit_cap1.csv":
                "bc4058ca6a1052ca61dbb0c4159f0eb602eac7122f7222685b439a132570d47c",
            "multiround_profit_cap5.csv":
                "199ddba17e959ae64e896e4f5907548e24a6373b391f8133d8ffc49f49748318",
            "multiround_profit_cap1.svg":
                "90c28da2e3cac40d90f1c760ed358bd858321ab64ee66282f4c84116ac896d8b",
            "multiround_profit_cap5.svg":
                "a87044feabbaf8350c0172674188014adf567b84b974d88dd56a653a6d9f164b",
            "multiround_rounds.csv":
                "3a19e3e498f9720c202d25cfff5ef86e164c396cb68179e98d1c9a9a724d4ec8",
            "multiround_terminal.csv":
                "288e87056c3a0c260d1de12917116bbefb5d08b3a5c1bc7bd07d50277f934382",
        }


# SHA-256 of every file a run writes, SVGs and manifest included, in the
# order of its "wrote" lines. The digests were recorded with numpy 2.4.6 and
# scipy 1.17.1, before the runners wrote through one writer; another numpy or
# scipy may move the last printed digit and need new ones. The
# welfare_panel_b.csv digest was re-recorded with Python 3.11.7 when the
# quantile moved to statistics.NormalDist, whose result at p = 1/50 is one ulp
# from scipy's and moves two cells in the 12th digit; another Python may too.
# The manifest digests were re-recorded when the manifest became a config file
# that spells each float with repr. A key names the command, with a "/" suffix
# on a second run of one command.
PINNED_RUNS = {
    "welfare": ([], {
        "welfare_panel_a.csv":
            "8fd9863bc7f155055f7fc7a1c9eeff521be91198fb12bedb383460a7ee029a75",
        "welfare_panel_a.svg":
            "1d88fb5dbcea987405970e9ed9a0b74420d07375473e8c3912b98c5c6653494d",
        "welfare_panel_b.csv":
            "3528d466ee17dece8f43c04d2e33f8a10bb135067cb09f4e490c6f46a1259279",
        "welfare_panel_b.svg":
            "457fdbd7412302689ffd37c507cf8e20dbf41b7e92f2371e0f3f9703abec38c6",
        "manifest.txt":
            "7edd93cb46ebb5fae55402bb4775ba0e99179c80b71fbb26cb12c29c4f5bfb9f",
    }),
    # 4097 rows cross the CSV writer's 4096-row chunk edge and the SVG
    # writer's 4096-point one
    "welfare/4097": (["--param", "grid_points=4097"], {
        "welfare_panel_a.csv":
            "5b3d1524943ef95a17ccce6127fa4c1a62e630ec9c12be9f3ea0dd82ee01f60d",
        "welfare_panel_a.svg":
            "75de1d767540af015c83e839f616eebea156b6a6540aed3448ffcc8c9040217c",
        "welfare_panel_b.csv":
            "0ad5f3b37bb3af20bc21c7b15cb0d6e89ca861b8ced47ba43efa9facc0487184",
        "welfare_panel_b.svg":
            "61a5bbed2cdc370a76198381f8ff7d4a3b96cae4137f6eef47c357a1f2dcdf67",
        "manifest.txt":
            "5d09fd0f7f2fccaf2985759e0c464ce2da8f8a883590a62901a6b25a9637655f",
    }),
    "fda-audit": ([], {
        "fda_audit.csv":
            "621af056428dd9b1066f3aaf8112871e58d23329bbc121e8ad3395a6be8fbc7e",
        "manifest.txt":
            "5085ba932341ab65cb7801fb8d98da8b56a3d35ee97e25a9688eac72d7690315",
    }),
    "best-response": ([], {
        "best_response.csv":
            "9bb3a5be7227f18a8fa2d1dccbd0d13bd90bc34f8ada3b8481b8341652218246",
        "manifest.txt":
            "827bb6366720e693bc6012922f9d8136cffc691fc0e918acbfe27b4f79e224cf",
    }),
    # 40 ratios x 10 effects, spelled with 17 digits, at a cap that moves the
    # ratios' null masses off their quantiles
    "best-response/40x10": (["--param", "cap=3",
                             "--param", "cost_ratios=" + ",".join(repr(k / 41) for k in range(1, 41)),
                             "--param", "theta_grid=" + ",".join(repr(k / 7) for k in range(1, 11))], {
        "best_response.csv":
            "3f08bce8162662e9b1cabc23aa127128558b367b0492e2a19fb82ca16c7c5e90",
        "manifest.txt":
            "b8bd89fe62d848c582d67582d58df529cb00a6f50491f0b414bb52925a573a3d",
    }),
    # ratio 0.5 puts the threshold at upper_tail_inverse(0.5), which is -0.0;
    # the file must spell it 0, not -0
    "best-response/half": (["--param", "cap=3", "--param", "cost_ratios=0.5,0.25",
                            "--param", "theta_grid=0.5,1"], {
        "best_response.csv":
            "4954362c2d9cb51084b56f525df807dbbf5d20f9f9ca8a853cabbc428f6ae1dd",
        "manifest.txt":
            "547d41634af3feab91c21d4ea28d91325a9342aaf0a7c116341ffb02ae240d54",
    }),
    "evalue-growth": (["--param", "n_max=40", "--reps", "200"], {
        "evalue_growth.csv":
            "0f6c9eab217ee4293a14359adc74be98894d40479a3c4fd7b663d8da57beb35f",
        "evalue_growth_paths.csv":
            "eb588e3b10b6bbdc2d91fc0f6af7351cedd040ad4d5e55fc67dcff5bf6b4693a",
        "evalue_growth.svg":
            "16aaa2fd9f4c5d4dcf333bd9c4a3ea0b5f36fffe623d3d917d595e203830bf9a",
        "manifest.txt":
            "2cd61aa2fd75cea6fea8b142423ea8b49850291f98f2b6a9e3dddf546aea5054",
    }),
    # small effects: at theta1 0.05 every fit cell of each cap's DP fails the
    # alternative-value fit test and at 0.1 one does, so these levels' values
    # are priced exactly at their certified roots
    "multiround/small-effects": (["--reps", "200", "--param", "levels=20",
                                  "--param", "caps=1,5", "--param", "theta_grid=0.05,0.1"], {
        "multiround_terminal.csv":
            "43c7f00a8e4ee1ee89ebc77cd1779e5b8df6d4867a5eb5a07450f38351ae4d91",
        "multiround_rounds.csv":
            "3f5884fbf98507a46ab6d9f4ed2a272825477a41291e4381f2944e1cc92f2c76",
        "multiround_policy.txt":
            "896187969bc8f31180415f9227d0416cedd48d1b1a2404d13c00367092d3a26c",
        "multiround_episodes.csv":
            "01ad093b667bc1a641da880bf44f6c2aaf94256f2f13a1c1a57ff7c22040f05e",
        "multiround_profit_cap1.csv":
            "4134a4ff2a646a231edf0e4f551d6a96e01b5682e6ef5e346947ea0fc854f49e",
        "multiround_profit_cap1.svg":
            "c2ff840437b9b18155b28ee9aedfb981d35c68f6d311647630b2c7137a627af2",
        "multiround_profit_cap5.csv":
            "e0299e8572c155e58b17ef95a42cf6cfcfe3239890cf2be5e4458ac4cce13053",
        "multiround_profit_cap5.svg":
            "ba235dbb8e4bb8a9d0747dd264527d8fb2cb42641261e2be3bf21b8c2a25a284",
        "manifest.txt":
            "f7fb7b74045ce806af53f75b8e414dcd27d536caf1b659a5c79690905a4dc6db",
    }),
}


@pytest.mark.parametrize("run", sorted(PINNED_RUNS))
def test_output_bytes_and_wrote_lines_are_pinned(tmp_path, capsys, run):
    args, digests = PINNED_RUNS[run]
    command = run.partition("/")[0]
    out = tmp_path / "o"
    assert main([command, "--out", str(out), *args]) == EXIT_OK
    stdout = capsys.readouterr().out.splitlines()
    assert [line for line in stdout if line.startswith("wrote ")] == [
        f"wrote {out / name}" for name in digests
    ]
    assert sorted(path.name for path in out.iterdir()) == sorted(digests)
    assert {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in digests
    } == digests


# Small runs with floats that 12 significant digits would misspell, each value
# written as the manifest spells it: theta_star is 1e-13 off the grid effect, so
# misspelling it would merge the focal cell into the grid.
REPLAYED_RUNS = {
    "welfare": ["grid_points=5", "theta1=0.1", "cost=1e-301", "ratio_a=5.0000000000001"],
    "evalue-growth": ["n_max=5", "reps=10", "paths_out=2", "theta1=0.2000000000001"],
    "fda-audit": ["cost=50000000.0000001", "profits=1000000000.0,10000000000.001"],
    "multiround": ["caps=1.0,5e-300", "cost=1e-301", "levels=5", "horizon=2", "reps=50",
                   "theta_grid=1.645", "theta_star=1.6450000000001"],
    "best-response": ["cap=1e-300", "cost_ratios=0.05", "theta_grid=1.6450000000001"],
}


@pytest.mark.parametrize("command", sorted(REPLAYED_RUNS))
def test_config_file_roundtrip(tmp_path, capsys, command):
    # The manifest is a config file: passing it back replays the run byte for
    # byte, manifest included.
    first, replay = tmp_path / "first", tmp_path / "replay"
    argv = [command, "--out", str(first)]
    for param in REPLAYED_RUNS[command]:
        argv += ["--param", param]
    assert main(argv) == EXIT_OK
    manifest = (first / "manifest.txt").read_text()
    for param in REPLAYED_RUNS[command]:
        assert param.replace("=", " = ") + "\n" in manifest
    argv = [command, "--config", str(first / "manifest.txt"), "--out", str(replay)]
    assert main(argv) == EXIT_OK
    names = sorted(path.name for path in first.iterdir())
    assert sorted(path.name for path in replay.iterdir()) == names
    for name in names:
        assert (replay / name).read_bytes() == (first / name).read_bytes(), name


class TestRerunIntoOneDirectory:
    MULTIROUND = ["multiround", "--reps", "20", "--param", "levels=5", "--param", "horizon=2"]

    def run(self, capsys, argv):
        assert main(argv) == EXIT_OK
        return capsys.readouterr().out.splitlines()

    def test_fewer_caps_remove_the_earlier_cap_files(self, tmp_path, capsys):
        out = tmp_path / "o"
        self.run(capsys, [*self.MULTIROUND, "--out", str(out), "--param", "caps=1,5"])
        lines = self.run(capsys, [*self.MULTIROUND, "--out", str(out), "--param", "caps=1"])
        assert [line for line in lines if line.startswith("removed ")] == [
            f"removed {out / 'multiround_profit_cap5.csv'}",
            f"removed {out / 'multiround_profit_cap5.svg'}",
        ]
        wrote = sorted(line.removeprefix("wrote ") for line in lines if line.startswith("wrote "))
        assert sorted(str(path) for path in out.iterdir()) == wrote
        assert len(wrote) == 7

    def test_other_files_survive(self, tmp_path, capsys):
        # another experiment's outputs and unrelated files share the directory
        out = tmp_path / "o"
        self.run(capsys, ["fda-audit", "--out", str(out)])
        for name in ("notes.txt", "multiround_notes.txt"):
            (out / name).write_text("kept\n")
        self.run(capsys, [*self.MULTIROUND, "--out", str(out), "--param", "caps=1,5"])
        lines = self.run(capsys, [*self.MULTIROUND, "--out", str(out), "--param", "caps=5"])
        assert [line for line in lines if line.startswith("removed ")] == [
            f"removed {out / 'multiround_profit_cap1.csv'}",
            f"removed {out / 'multiround_profit_cap1.svg'}",
        ]
        names = {path.name for path in out.iterdir()}
        assert {"fda_audit.csv", "notes.txt", "multiround_notes.txt"} <= names
        assert (out / "notes.txt").read_text() == "kept\n"
        assert not any("cap1" in name for name in names)


# Small configs that reach every output of each experiment.
TINY_RUNS = {
    "welfare": {"grid_points": "5"},
    "evalue_growth": {"n_max": "5", "reps": "10", "paths_out": "2"},
    "fda_audit": {},
    "multiround": {"horizon": "2", "levels": "5", "reps": "10", "caps": "1",
                   "theta_grid": "1.0"},
    "best_response": {"cost_ratios": "0.05", "theta_grid": "1.0"},
}


@pytest.mark.parametrize("experiment", sorted(experiments.RUNNERS))
def test_runners_write_only_through_the_writer(tmp_path, monkeypatch, experiment):
    # Every runner computes all of its outputs and hands them to
    # _write_outputs: with the writer replaced, nothing reaches the disk.
    names = []

    def record(config, outputs, summary):
        names.extend(name for name, *_ in outputs)
        return experiments.RunResult([], summary)

    monkeypatch.setattr(experiments, "_write_outputs", record)
    out = tmp_path / "out"
    config = resolve_config(experiment, out, overrides=TINY_RUNS[experiment])
    experiments.RUNNERS[experiment](config)
    assert names
    assert not out.exists()


# Runs TINY_RUNS through cli.main in a fresh interpreter, multiround last, and
# prints whether scipy was loaded after the import and after each run.
_SCIPY_PROBE = """
import json, sys, tempfile
from evcontracts.cli import main
loaded = ["scipy" in sys.modules]
with tempfile.TemporaryDirectory() as out:
    for argv in json.loads(sys.argv[1]):
        assert main([*argv, "--out", out + "/" + argv[0]]) == 0
        loaded.append("scipy" in sys.modules)
print(json.dumps(loaded))
"""


def test_only_the_multiround_dp_loads_scipy(tmp_path):
    # The quantile comes from the standard library; scipy.special is loaded
    # by the DP's vectorized tail on its first call and by nothing else.
    order = sorted(TINY_RUNS, key=lambda name: name == "multiround")
    runs = [
        [name.replace("_", "-")]
        + [arg for item in TINY_RUNS[name].items() for arg in ("--param", "=".join(item))]
        for name in order
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(evcontracts.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(runs)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert dict(zip(["import", *order], loaded)) == {
        "import": False, "welfare": False, "evalue_growth": False,
        "fda_audit": False, "best_response": False, "multiround": True,
    }


class TestMultiroundCommonRandomNumbers:
    """Cell i of a multiround run draws one evidence matrix from stream i,
    and all three agents read it."""

    OVERRIDES = {"reps": "300", "levels": "10", "horizon": "3", "caps": "1,5",
                 "theta_grid": "0.5,-0.5"}

    def config(self, tmp_path, **extra):
        return resolve_config("multiround", tmp_path / "m", overrides={**self.OVERRIDES, **extra})

    # the bluffing cell (theta -0.5) plays the same licenses as any other
    @pytest.mark.parametrize("cap, theta1, index", ((1.0, 0.5, 0), (5.0, 0.5, 2), (5.0, -0.5, 3)))
    def test_agents_read_the_cell_matrix(self, tmp_path, cap, theta1, index):
        config = self.config(tmp_path)
        _, episodes, one, five = experiments._multiround_cell(config, cap, theta1, index)
        z = sample_normal(GaussianModel(theta1), RandomStream(config["seed"], index), (300, 3))
        assert np.array_equal(episodes.evidence, z)
        same_cost = np_best_response(0.1, cap)
        pooled = np_best_response(3 * 0.1, cap, sd=1.0 / np.sqrt(3))
        assert np.array_equal(one, same_cost(z[:, 0]))
        assert np.array_equal(five, pooled(z.mean(axis=1)))

    def test_off_grid_theta_star_draws_the_next_stream(self, tmp_path):
        # two caps by two effects: the theta_star cell is cell 4
        config = self.config(tmp_path)
        run_multiround(config)
        policy = backward_induction(3, 0.1, config["theta_star"], LicenseGrid.from_cap(1.0, 10))
        expected = simulate_policy(
            policy, config["theta_star"], 300, RandomStream(config["seed"], 4)
        )
        path = tmp_path / "expected.csv"
        write_csv(path, ["rep", "tau", "terminal_license", "total_cost", "profit"],
                  episodes_to_csv_columns(expected))
        assert (tmp_path / "m" / "multiround_episodes.csv").read_bytes() == path.read_bytes()

    def test_one_round_and_pooled_agree_at_horizon_one(self, tmp_path):
        result = run_multiround(self.config(tmp_path, horizon="1", theta_star="0.5"))
        for rows in result.summary["profit_curves"].values():
            for row in rows:
                assert row[3:5] == row[5:7]
        _, rows = read_csv(tmp_path / "m" / "multiround_terminal.csv")
        one = [r[1:] for r in rows if r[0] == "one_round"]
        assert one and one == [r[1:] for r in rows if r[0] == "five_data"]


def multiround_at_scale(out, k: int) -> dict:
    """Summary of a multiround run with caps (2^k, 5 * 2^k) and cost 0.1 * 2^k."""
    s = math.ldexp(1.0, k)
    overrides = {"levels": "50", "reps": "4000", "caps": f"{s!r},{5 * s!r}", "cost": repr(0.1 * s)}
    return run_multiround(resolve_config("multiround", out, overrides=overrides)).summary


@pytest.fixture(scope="module")
def unit_scale_summary(tmp_path_factory):
    return multiround_at_scale(tmp_path_factory.mktemp("unit") / "m", 0)


# Money scales by 2^k with the cap and the cost, and every Monte Carlo mean and
# SE must follow it exactly; shares, rounds and effects must not move.
@pytest.mark.parametrize("k", [-1000, -60, 1, 40, 400])
def test_multiround_outputs_scale_exactly_with_cap_and_cost(tmp_path, unit_scale_summary, k):
    got, want, s = multiround_at_scale(tmp_path / "m", k), unit_scale_summary, math.ldexp(1.0, k)
    assert list(got["profit_curves"]) == [cap * s for cap in want["profit_curves"]]
    for rows, unit_rows in zip(got["profit_curves"].values(), want["profit_curves"].values()):
        assert [row[0] for row in rows] == [row[0] for row in unit_rows]
        assert [row[1:] for row in rows] == [tuple(v * s for v in row[1:]) for row in unit_rows]
    star, unit_star = got["at_theta_star"], want["at_theta_star"]
    for key in ("p_terminal_cap", "mean_rounds"):
        assert star[key] == unit_star[key]
    for key in ("mean_total_cost", "mean_profit_multi", "mean_profit_five_data"):
        assert star[key] == unit_star[key] * s


class TestBestResponseCommand:
    def test_values(self, tmp_path):
        out = tmp_path / "b"
        assert main(["best-response", "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "best_response.csv")
        assert header == ["cost_ratio", "theta1", "threshold", "power", "expected_profit"]
        assert len(rows) == 9
        by_key = {(r[0], r[1]): r for r in rows}
        row = by_key[("0.05", "1")]
        assert float(row[2]) == pytest.approx(1.6449, abs=1e-4)
        assert float(row[3]) == pytest.approx(0.2595, abs=5e-5)

    def test_threshold_is_the_scored_licenses(self, tmp_path, monkeypatch):
        # at cap 3 the scored license's null mass 0.1 * 3 / 3 is not 0.1 bit
        # for bit, so its threshold differs from the quantile of the ratio
        scored, written = [], []

        def best_response(*args, **kwargs):
            scored.append(np_best_response(*args, **kwargs))
            return scored[-1]

        monkeypatch.setattr(experiments, "np_best_response", best_response)
        monkeypatch.setattr(experiments, "write_csv",
                            lambda path, header, columns: written.extend(columns))
        argv = ["best-response", "--out", str(tmp_path / "b"), "--param", "cap=3",
                "--param", "cost_ratios=0.1", "--param", "theta_grid=1"]
        assert main(argv) == EXIT_OK
        [license] = scored
        [_, _, [threshold], [power], _] = written
        assert threshold == experiments._cell(license.breakpoints[0])
        assert power == upper_tail(license.breakpoints[0] - 1.0)
        assert power != upper_tail(upper_tail_inverse(0.1) - 1.0)

    def test_one_license_per_cost_ratio(self, tmp_path, monkeypatch):
        calls = []

        def best_response(*args, **kwargs):
            calls.append(args)
            return np_best_response(*args, **kwargs)

        monkeypatch.setattr(experiments, "np_best_response", best_response)
        argv = ["best-response", "--out", str(tmp_path / "b"),
                "--param", "cost_ratios=0.001,0.01,0.05,0.1,0.3,0.5,0.9",
                "--param", "theta_grid=0.1,0.5,1,2,4"]
        assert main(argv) == EXIT_OK
        assert len(calls) == 7
        assert len(read_csv(tmp_path / "b" / "best_response.csv")[1]) == 35

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_csv_matches_one_license_per_row(self, data):
        # the oracle builds a license per (ratio, effect) and writes float rows
        cap = data.draw(st.sampled_from([1.0, 3.0, 1e-300, 1e-310, 5e-324, 1e300])
                        | st.floats(1e-3, 1e3))
        ratio = st.sampled_from([0.9999999999999999, 0.6, 0.1, 1e-300, 5e-324]) | st.floats(
            0.0, 1.0, exclude_min=True, exclude_max=True)
        effect = st.sampled_from([5e-324, 1e300, 1.0, 1.645]) | st.floats(
            0.0, 1e300, exclude_min=True)
        grids = []
        for values in (ratio, effect):
            grid = data.draw(st.lists(values, min_size=1, max_size=5))
            grids.append(grid + grid[:data.draw(st.integers(0, len(grid)))])
        ratios, thetas = grids
        assume(all(0.0 < r * cap < cap for r in ratios))
        header = ["cost_ratio", "theta1", "threshold", "power", "expected_profit"]
        columns = [[], [], [], [], []]
        for r in ratios:
            for theta1 in thetas:
                threshold = np_best_response(r * cap, cap).approval_threshold()
                power = upper_tail(threshold - theta1)
                for column, cell in zip(columns, (r, theta1, threshold, power,
                                                  cap * power - r * cap)):
                    column.append(cell)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            config = resolve_config("best_response", out, overrides={
                "cap": repr(cap),
                "cost_ratios": ",".join(map(repr, ratios)),
                "theta_grid": ",".join(map(repr, thetas)),
            })
            experiments.run_best_response(config)
            write_csv(Path(tmp) / "oracle.csv", header, columns)
            assert (out / "best_response.csv").read_bytes() == (
                Path(tmp) / "oracle.csv").read_bytes()

    def test_ratio_validation(self, tmp_path):
        code = main(
            ["best-response", "--out", str(tmp_path), "--param", "cost_ratios=1.5"]
        )
        assert code == EXIT_CONFIG
