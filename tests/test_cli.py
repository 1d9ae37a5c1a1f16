"""Command-line interface: outputs, reruns, exit codes."""

import filecmp
import json
import os

import numpy as np
import pytest

from codaboot import cli, gini_coefficient, make_synthetic_grid
from codaboot.cli import main


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as handle:
        rows = [line.rstrip("\n").split(",") for line in handle]
    return rows[0], rows[1:]


def _same_files(dir_a, dir_b, names):
    for name in names:
        assert filecmp.cmp(
            os.path.join(dir_a, name), os.path.join(dir_b, name), shallow=False
        ), f"{name} differs"


def test_ingest_writes_the_grid(tmp_path):
    out = tmp_path / "out"
    assert main(["ingest", "--synthetic", "12", "--out", str(out)]) == 0
    header, rows = _read_csv(out / "grid.csv")
    assert header[0] == "year"
    assert len(header) == 112
    assert len(rows) == 12
    grid = make_synthetic_grid(12, seed=0)
    assert [int(r[0]) for r in rows] == grid.years.tolist()
    np.testing.assert_allclose(
        [float(v) for v in rows[0][1:]], grid.deaths[0], rtol=0, atol=5e-7
    )


def test_ingest_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(["ingest", "--synthetic", "8", "--out", str(a)])
    main(["ingest", "--synthetic", "8", "--out", str(b)])
    _same_files(a, b, ["grid.csv"])


def test_ingest_parses_a_real_file(tmp_path):
    table = tmp_path / "lt.txt"
    lines = ["Year Age qx"]
    for age in range(110):
        lines.append(f"2000 {age} 0.03")
    lines.append("2000 110+ 1.0")
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(table), "--out", str(out)]) == 0
    header, rows = _read_csv(out / "grid.csv")
    assert len(rows) == 1
    total = sum(float(v) for v in rows[0][1:])
    assert total == pytest.approx(100000.0, abs=1e-3)


def test_gini_matches_library(tmp_path):
    out = tmp_path / "out"
    assert main(["gini", "--synthetic", "10", "--out", str(out)]) == 0
    header, rows = _read_csv(out / "gini.csv")
    assert header == ["year", "gini"]
    grid = make_synthetic_grid(10, seed=0)
    for row, deaths in zip(rows, grid.deaths):
        assert float(row[1]) == pytest.approx(gini_coefficient(deaths), abs=1e-9)


def test_diagnose_reports_three_checks(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "diagnose",
            "--synthetic",
            "25",
            "--kpss-permutations",
            "29",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, rows = _read_csv(out / "diagnostics.csv")
    assert header == ["name", "statistic", "p_value", "decision"]
    names = [r[0] for r in rows]
    assert names == [
        "stationarity_raw",
        "stationarity_differenced",
        "residual_independence",
    ]
    for row in rows:
        assert 0.0 <= float(row[2]) <= 1.0
    assert rows[0][3] in ("trend-stationary", "trend-nonstationary")
    assert rows[2][3] in ("independent", "dependent", "degenerate")


def test_fit_exports_the_decomposition(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["fit", "--synthetic", "30", "--components", "2", "--out", str(out)]
    )
    assert code == 0
    for name in (
        "mean_curve.csv",
        "primary_basis.csv",
        "primary_scores.csv",
        "residual_basis.csv",
        "residual_scores.csv",
        "final_residuals.csv",
        "fit_summary.csv",
        "config.json",
    ):
        assert (out / name).exists(), name
    header, rows = _read_csv(out / "primary_basis.csv")
    assert header == ["age", "component_1", "component_2"]
    assert len(rows) == 111
    _, scores = _read_csv(out / "primary_scores.csv")
    assert len(scores) == 30


def test_forecast_writes_per_horizon_files(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "forecast",
            "--synthetic",
            "30",
            "--components",
            "one",
            "--horizon-max",
            "3",
            "--replications",
            "60",
            "--levels",
            "80,95",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    for h in (1, 2, 3):
        header, rows = _read_csv(out / f"forecast_h{h:02d}.csv")
        assert header == ["age", "point", "lower_80", "upper_80", "lower_95", "upper_95"]
        assert len(rows) == 111
        for row in rows:
            point = float(row[1])
            lo80, up80, lo95, up95 = map(float, row[2:])
            assert lo95 <= lo80 <= up80 <= up95
            assert point > 0.0
    assert not (out / "samples_h01.csv").exists()


def test_forecast_dump_samples(tmp_path):
    out = tmp_path / "out"
    main(
        [
            "forecast",
            "--synthetic",
            "25",
            "--components",
            "one",
            "--horizon-max",
            "1",
            "--replications",
            "7",
            "--dump-samples",
            "--out",
            str(out),
        ]
    )
    header, rows = _read_csv(out / "samples_h01.csv")
    assert header == ["age"] + [f"sample_{i}" for i in range(1, 8)]
    assert len(rows) == 111


def test_forecast_rerun_from_config_is_byte_identical(tmp_path):
    first = tmp_path / "first"
    main(
        [
            "forecast",
            "--synthetic",
            "25",
            "--components",
            "one",
            "--horizon-max",
            "2",
            "--replications",
            "40",
            "--seed",
            "9",
            "--out",
            str(first),
        ]
    )
    second = tmp_path / "second"
    code = main(
        ["forecast", "--config", str(first / "config.json"), "--out", str(second)]
    )
    assert code == 0
    _same_files(first, second, ["forecast_h01.csv", "forecast_h02.csv"])


def test_backtest_outputs_and_jobs_invariance(tmp_path):
    args = [
        "backtest",
        "--synthetic",
        "26",
        "--components",
        "one",
        "--initial-window",
        "20",
        "--max-horizon",
        "2",
        "--replications",
        "40",
        "--levels",
        "80",
        "--seed",
        "3",
    ]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--jobs", "2", "--out", str(b)]) == 0
    _same_files(a, b, ["summary.csv", "horizons_dfm-one_80.csv", "config.json"])
    header, rows = _read_csv(a / "summary.csv")
    assert header == ["label", "model", "components", "level", "ecp_bar", "cpd_bar"]
    assert rows[0][0] == "dfm-one"
    header, rows = _read_csv(a / "horizons_dfm-one_80.csv")
    assert header == ["horizon", "windows", "ecp", "cpd"]
    assert [r[0] for r in rows] == ["1", "2"]
    assert [r[1] for r in rows] == ["6", "5"]


_SMALL_BACKTEST = [
    "backtest",
    "--synthetic",
    "26",
    "--components",
    "one",
    "--initial-window",
    "20",
    "--max-horizon",
    "1",
    "--replications",
    "10",
]


def test_backtest_method_carries_the_independence_settings(tmp_path, monkeypatch):
    plans = []
    run_backtest = cli.run_backtest

    def spy(grid, plan, **kwargs):
        plans.append(plan)
        return run_backtest(grid, plan, **kwargs)

    monkeypatch.setattr(cli, "run_backtest", spy)
    args = _SMALL_BACKTEST + ["--lags", "2", "--dim", "1", "--out", str(tmp_path)]
    assert main(args) == 0
    (method,) = plans[0].configs
    assert (method.independence_lags, method.independence_dim) == (2, 1)


def test_backtest_rejects_zero_jobs(tmp_path, capsys):
    assert main(_SMALL_BACKTEST + ["--jobs", "0", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error kind=ConfigurationError:")


def test_config_json_is_stable_and_jobs_free(tmp_path):
    out = tmp_path / "out"
    main(
        [
            "backtest",
            "--synthetic",
            "26",
            "--components",
            "one",
            "--initial-window",
            "20",
            "--max-horizon",
            "1",
            "--replications",
            "10",
            "--jobs",
            "4",
            "--out",
            str(out),
        ]
    )
    with open(out / "config.json", "r", encoding="utf-8") as handle:
        data = json.load(handle)
    assert "jobs" not in data
    assert "out" not in data
    assert data["subcommand"] == "backtest"
    assert data["synthetic"] == 26
    assert data["levels"] == [0.8, 0.95]


def test_config_subcommand_mismatch_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "out"
    main(["ingest", "--synthetic", "8", "--out", str(out)])
    code = main(["forecast", "--config", str(out / "config.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error kind=ConfigurationError:")


def test_data_errors_exit_one_with_parseable_stderr(tmp_path, capsys):
    missing = tmp_path / "nope.txt"
    assert main(["ingest", "--input", str(missing), "--out", str(tmp_path)]) == 1
    assert "error kind=FileNotFoundError:" in capsys.readouterr().err

    bad = tmp_path / "bad.txt"
    bad.write_text("Year Age qx\n2000 0 .\n", encoding="utf-8")
    assert main(["ingest", "--input", str(bad), "--out", str(tmp_path)]) == 1
    assert "error kind=ParseError:" in capsys.readouterr().err

    assert main(["forecast", "--synthetic", "30", "--levels", "150"]) == 1
    assert "error kind=ConfigurationError:" in capsys.readouterr().err


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["ingest"])  # neither --input nor --synthetic
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["ingest", "--input", "a.txt", "--synthetic", "5"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["explode"])
    assert info.value.code == 2


def test_levels_accept_fractions_and_percentages(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    base = [
        "forecast",
        "--synthetic",
        "25",
        "--components",
        "one",
        "--horizon-max",
        "1",
        "--replications",
        "20",
    ]
    main(base + ["--levels", "80", "--out", str(a)])
    main(base + ["--levels", "0.8", "--out", str(b)])
    _same_files(a, b, ["forecast_h01.csv"])


def test_levels_reject_duplicates_and_non_numbers(tmp_path, capsys):
    # 80 percent and 0.8 are the same level once converted.
    args = ["forecast", "--synthetic", "25", "--out", str(tmp_path)]
    assert main(args + ["--levels", "80,0.8"]) == 1
    assert "error kind=ConfigurationError:" in capsys.readouterr().err
    assert main(args + ["--levels", "80,abc"]) == 1
    assert "error kind=ConfigurationError:" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_factor_model_subcommands_reject_the_lee_carter_model(tmp_path, capsys):
    # fit and diagnose run only the factor model; asking them for
    # Lee-Carter fails instead of silently writing factor-model outputs.
    for args in (
        ["fit", "--synthetic", "20", "--model", "lc", "--method", "ets_like"],
        ["diagnose", "--synthetic", "20", "--model", "lc", "--kpss-permutations", "9"],
    ):
        out = tmp_path / args[0]
        assert main(args + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error kind=ConfigurationError:")
        assert not out.exists()

    saved = tmp_path / "saved"
    assert main(["fit", "--synthetic", "20", "--out", str(saved)]) == 0
    data = json.loads((saved / "config.json").read_text(encoding="utf-8"))
    data["model"] = "lc"
    edited = tmp_path / "lc.json"
    edited.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    rerun = tmp_path / "rerun"
    assert main(["fit", "--config", str(edited), "--out", str(rerun)]) == 1
    assert capsys.readouterr().err.startswith("error kind=ConfigurationError:")
    assert not rerun.exists()


def test_model_options_the_run_ignores_fail_loudly(tmp_path, capsys):
    # Each option here would leave every output but config.json unchanged.
    for i, args in enumerate(
        (
            ["forecast", "--model", "lc", "--method", "ar_aic"],
            ["forecast", "--model", "lc", "--bandwidth", "3"],
            ["forecast", "--model", "lc", "--no-force-residual-stage"],
            ["backtest", "--model", "lc", "--lags", "2"],
            ["backtest", "--model", "lc", "--dim", "2"],
            ["forecast", "--lc-resample", "rows"],
            ["backtest", "--model", "dfm", "--lc-resample", "rows"],
            ["fit", "--lc-resample", "rows"],
            ["diagnose", "--kpss-permutations", "9", "--lc-resample", "rows"],
            ["fit", "--method", "ets_like"],
        )
    ):
        out = tmp_path / str(i)
        assert main(args + ["--synthetic", "20", "--out", str(out)]) == 1, args
        err = capsys.readouterr().err
        assert err.startswith("error kind=ConfigurationError:"), args
        # Each case ends with the ignored option, or with it and its value.
        assert args[-1] in err or args[-2] in err, err
        assert not out.exists()

    # The same check applies to a config file.
    saved = tmp_path / "saved"
    lc = ["forecast", "--synthetic", "20", "--model", "lc", "--components", "one"]
    lc += ["--horizon-max", "1", "--replications", "10", "--lc-resample", "rows"]
    assert main(lc + ["--out", str(saved)]) == 0
    data = json.loads((saved / "config.json").read_text(encoding="utf-8"))
    data["method"] = "ar_aic"
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(data), encoding="utf-8")
    rerun = tmp_path / "rerun"
    capsys.readouterr()
    assert main(["forecast", "--config", str(edited), "--out", str(rerun)]) == 1
    assert "--method" in capsys.readouterr().err
    assert not rerun.exists()


def test_configs_of_runs_that_read_their_model_options_still_load(tmp_path):
    small_forecast = ["--synthetic", "20", "--components", "one", "--horizon-max", "1"]
    small_forecast += ["--replications", "10"]
    for i, args in enumerate(
        (
            ["forecast", "--model", "lc", "--lc-resample", "rows"] + small_forecast,
            ["forecast", "--method", "ar_aic", "--bandwidth", "3", "--lags", "2",
             "--dim", "1", "--no-force-residual-stage"] + small_forecast,
            _SMALL_BACKTEST + ["--method", "ets_like", "--lags", "2"],
            ["fit", "--synthetic", "20", "--bandwidth", "3", "--no-force-residual-stage"],
            ["diagnose", "--synthetic", "20", "--kpss-permutations", "9", "--dim", "1"],
        )
    ):
        first = tmp_path / f"{i}a"
        second = tmp_path / f"{i}b"
        assert main(args + ["--out", str(first)]) == 0, args
        config = str(first / "config.json")
        assert main([args[0], "--config", config, "--out", str(second)]) == 0, args
        names = sorted(os.listdir(first))
        assert names == sorted(os.listdir(second))
        _same_files(first, second, names)


def test_forecast_runs_on_a_table_that_closes_at_100(tmp_path):
    rng = np.random.default_rng(8)
    ages = np.arange(101)
    lines = ["Year,Age,qx"]
    for t in range(25):
        qx = np.minimum(2e-4 * np.exp(0.09 * ages - 0.015 * t + 0.02 * rng.normal()), 0.9)
        qx[-1] = 1.0
        lines += [
            f"{1990 + t},{age}{'+' if age == 100 else ''},{q:.6f}"
            for age, q in zip(ages, qx)
        ]
    table = tmp_path / "lt100.csv"
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    args = ["forecast", "--input", str(table), "--components", "one"]
    args += ["--horizon-max", "2", "--replications", "30", "--out", str(out)]
    assert main(args) == 0
    header, rows = _read_csv(out / "forecast_h02.csv")
    assert [int(r[0]) for r in rows] == list(range(101))
    for row in rows:
        lo95, lo80, up80, up95 = (float(row[i]) for i in (4, 2, 3, 5))
        assert 0.0 < lo95 <= lo80 <= up80 <= up95
