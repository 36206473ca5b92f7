import hashlib

import pytest

from evcontracts.cli import EXIT_CONFIG, EXIT_DEVIATION, EXIT_OK, main
from evcontracts.experiments import (
    SCHEMAS,
    ConfigError,
    parse_config_file,
    resolve_config,
    run_evalue_growth,
    run_multiround,
)


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

    def test_config_file_roundtrip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid_points = 5\ntheta1 = 0.8\n")
        out = tmp_path / "w"
        assert main(["welfare", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = (out / "manifest.txt").read_text()
        assert "theta1 = 0.8" in manifest

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
        assert "trial cost 400" in capsys.readouterr().err

    def test_reference_deviation_exit_code(self, tmp_path, monkeypatch):
        # tampering with the committed verdicts must be caught on a default run
        import evcontracts.fda as fda

        broken = dict(fda.REFERENCE_VERDICTS)
        broken[("standard", 1_000_000_000)] = fda.Verdict.NOT_ALIGNED
        monkeypatch.setattr(fda, "REFERENCE_VERDICTS", broken)
        code = main(["fda-audit", "--out", str(tmp_path / "fda")])
        assert code == EXIT_DEVIATION


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

    @pytest.mark.parametrize("key, value", (("caps", "1,5,1"), ("theta_grid", "1.645,1.645")))
    def test_repeated_grid_value_rejected(self, tmp_path, capsys, key, value):
        # a repeat would solve and write the same cell twice
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
        # Guards refactors of the DP and the policy simulator: the policy
        # table and the per-episode ledger must keep their exact bytes. The
        # digests were recorded with numpy 2.4.6 and scipy 1.17.1; another
        # numpy or scipy may move the last printed digit and need new ones.
        out = tmp_path / "m"
        code = main(
            ["multiround", "--out", str(out), "--reps", "200",
             "--param", "levels=20", "--param", "caps=1,5",
             "--param", "theta_grid=1.645,-0.5"]
        )
        assert code == EXIT_OK
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("multiround_policy.txt", "multiround_episodes.csv")
        }
        assert digests == {
            "multiround_policy.txt":
                "3eb4063bc8524c640c6a5a785a004b255ac559f3746258f402f39e80d3944b99",
            "multiround_episodes.csv":
                "9212f88fe15d15b8fc61057768fce752679dd7e469d5e9a8de4d90567a292a5c",
        }


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

    def test_ratio_validation(self, tmp_path):
        code = main(
            ["best-response", "--out", str(tmp_path), "--param", "cost_ratios=1.5"]
        )
        assert code == EXIT_CONFIG
