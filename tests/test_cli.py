"""Command-line interface: outputs, reruns, exit codes."""

import argparse
import dataclasses
import filecmp
import json
import os
import re

import numpy as np
import pytest

from codaboot import cli, dfm, gini_coefficient, make_synthetic_grid
from codaboot.bootstrap import _openblas_threads
from codaboot.cli import main
from codaboot.errors import ConfigurationError, DomainError


def _read_csv(path):
    with open(path, "r", encoding="utf-8") as handle:
        rows = [line.rstrip("\n").split(",") for line in handle]
    return rows[0], rows[1:]


def _same_files(dir_a, dir_b, names):
    for name in names:
        assert filecmp.cmp(
            os.path.join(dir_a, name), os.path.join(dir_b, name), shallow=False
        ), f"{name} differs"


def _one_year_table(tmp_path):
    table = tmp_path / "lt.txt"
    lines = ["Year Age qx"] + [f"2000 {age} 0.03" for age in range(110)]
    table.write_text("\n".join(lines + ["2000 110+ 1.0"]) + "\n", encoding="utf-8")
    return str(table)


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
    out = tmp_path / "out"
    assert main(["ingest", "--input", _one_year_table(tmp_path), "--out", str(out)]) == 0
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


def test_diagnose_stationarity_rows_are_pinned(tmp_path):
    # Values written by the direct detrend-and-sum form of the statistic,
    # one row trend-nonstationary and one trend-stationary.
    out = tmp_path / "out"
    assert main(
        ["diagnose", "--synthetic", "40", "--synthetic-seed", "2",
         "--kpss-permutations", "99", "--seed", "5", "--out", str(out)]
    ) == 0
    _, rows = _read_csv(out / "diagnostics.csv")
    expected = [
        ("stationarity_raw", 0.31938702828001975, "0.01", "trend-nonstationary"),
        ("stationarity_differenced", 0.08115278133313603, "0.4", "trend-stationary"),
    ]
    for row, (name, statistic, p_value, decision) in zip(rows, expected):
        assert row[0] == name
        assert float(row[1]) == pytest.approx(statistic, rel=1e-9, abs=0.0)
        assert row[2:] == [p_value, decision]
    # Written when diagnose still ran the residual stage of this dependent
    # case. The chi-square tail scales the statistic's relative rounding by
    # about half the statistic, so the p-value is held to 1e-6.
    name, statistic, p_value, decision = rows[2]
    assert (name, decision) == ("residual_independence", "dependent")
    assert float(statistic) == pytest.approx(222.397894, rel=1e-9, abs=0.0)
    assert float(p_value) == pytest.approx(2.58924119e-25, rel=1e-6, abs=0.0)


def test_diagnose_fits_only_the_first_stage(tmp_path, monkeypatch):
    # The independence row is the first stage's test, so the one long-run
    # covariance is the first stage's; the KPSS permutations need none.
    calls = []
    original = dfm.long_run_covariance

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dfm, "long_run_covariance", counted)
    assert main(
        ["diagnose", "--synthetic", "40", "--synthetic-seed", "2",
         "--kpss-permutations", "9", "--out", str(tmp_path / "out")]
    ) == 0
    _, rows = _read_csv(tmp_path / "out" / "diagnostics.csv")
    assert rows[2][3] == "dependent"
    assert len(calls) == 1


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


_SMALL_RUNS = {
    "ingest": ["ingest", "--synthetic", "8"],
    "gini": ["gini", "--synthetic", "10"],
    "diagnose": ["diagnose", "--synthetic", "20", "--kpss-permutations", "9"],
    "fit": ["fit", "--synthetic", "20", "--components", "2"],
    "forecast": ["forecast", "--synthetic", "25", "--components", "one",
                 "--horizon-max", "2", "--replications", "40", "--seed", "9",
                 "--dump-samples"],
    "backtest": ["backtest", "--synthetic", "26", "--components", "one",
                 "--initial-window", "20", "--max-horizon", "2",
                 "--replications", "20", "--seed", "3"],
}


@pytest.mark.parametrize("subcommand", sorted(_SMALL_RUNS))
def test_rerun_from_config_is_byte_identical(tmp_path, subcommand):
    first = tmp_path / "first"
    assert main(_SMALL_RUNS[subcommand] + ["--out", str(first)]) == 0
    second = tmp_path / "second"
    code = main(
        [subcommand, "--config", str(first / "config.json"), "--out", str(second)]
    )
    assert code == 0
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    assert len(names) > 1
    _same_files(first, second, names)


@pytest.mark.skipif(
    _openblas_threads() is None,
    reason="numpy's bundled OpenBLAS exports no known thread-count symbol",
)
@pytest.mark.parametrize("subcommand", sorted(_SMALL_RUNS))
def test_every_subcommand_runs_on_one_blas_thread(tmp_path, capsys, monkeypatch,
                                                  subcommand):
    set_threads, get_threads = _openblas_threads()
    command = cli._COMMANDS[subcommand]
    seen = []

    def counting(config, grid):
        seen.append(get_threads())
        if len(seen) == 2:
            raise DomainError("scripted failure")
        return command(config, grid)

    monkeypatch.setitem(cli._COMMANDS, subcommand, counting)
    original = get_threads()
    try:
        # A count other than the default and other than the pin, so that a
        # run which leaves the pin or resets to the default shows.
        set_threads(3)
        assert main(_SMALL_RUNS[subcommand] + ["--out", str(tmp_path / "ok")]) == 0
        assert get_threads() == 3
        assert main(_SMALL_RUNS[subcommand] + ["--out", str(tmp_path / "failed")]) == 1
        assert "error kind=DomainError: scripted failure" in capsys.readouterr().err
        assert get_threads() == 3
    finally:
        set_threads(original)
    assert seen == [1, 1]


def _is_integer(cell):
    return re.fullmatch(r"-?[0-9]+", cell) is not None


def _is_ten_digit_float(cell):
    return cell == f"{float(cell):.10g}"


def test_every_cell_follows_the_one_cell_rule(tmp_path):
    # Counts and labels are plain integers, every other number is written
    # to ten significant digits, and the grid keeps its six decimals.
    for subcommand, args in _SMALL_RUNS.items():
        assert main(args + ["--out", str(tmp_path / subcommand)]) == 0

    header, rows = _read_csv(tmp_path / "ingest" / "grid.csv")
    assert all(_is_integer(r[0]) for r in rows)
    assert all(re.fullmatch(r"[0-9]+\.[0-9]{6}", c) for r in rows for c in r[1:])
    assert header[1:3] == ["age_0", "age_1"]

    integer_columns = {
        "gini/gini.csv": 1,
        "fit/mean_curve.csv": 1,
        "fit/primary_basis.csv": 1,
        "fit/primary_scores.csv": 1,
        "fit/final_residuals.csv": 1,
        "forecast/forecast_h02.csv": 1,
        "forecast/samples_h01.csv": 1,
        "backtest/horizons_dfm-one_80.csv": 2,
    }
    for name, leading in integer_columns.items():
        _, rows = _read_csv(tmp_path / name)
        assert rows, name
        for row in rows:
            assert all(_is_integer(c) for c in row[:leading]), (name, row)
            assert all(_is_ten_digit_float(c) for c in row[leading:]), (name, row)

    _, summary = _read_csv(tmp_path / "fit" / "fit_summary.csv")
    for name, index, value in summary:
        if name in ("primary", "residual"):
            assert _is_integer(index) and _is_ten_digit_float(value)
    assert summary[-2][0] == "independence_p_value"
    assert _is_ten_digit_float(summary[-2][2])
    assert summary[-1][0] == "residual_stage_ran"
    assert summary[-1][2] in ("true", "false")

    _, summary = _read_csv(tmp_path / "backtest" / "summary.csv")
    for label, model, components, *numbers in summary:
        assert (label, model, components) == ("dfm-one", "dfm", "one")
        assert all(_is_ten_digit_float(c) for c in numbers)

    _, rows = _read_csv(tmp_path / "diagnose" / "diagnostics.csv")
    assert all(_is_ten_digit_float(c) for r in rows for c in r[1:3])
    assert cli._cell(12345678901) == "12345678901"
    assert cli._cell(1 / 3) == "0.3333333333"


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
    args = _SMALL_BACKTEST + ["--no-force-residual-stage", "--lags", "2", "--dim", "1",
                              "--out", str(tmp_path)]
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


_GINI_CONFIG = {"subcommand": "gini", "synthetic": 10}


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        '["gini"]',
        json.dumps({**_GINI_CONFIG, "levels": "ab"}),
        json.dumps({**_GINI_CONFIG, "levels": 5}),
        json.dumps({**_GINI_CONFIG, "levels": ["ab"]}),
        json.dumps({**_GINI_CONFIG, "levels": [0.8, 0.8]}),
        json.dumps({**_GINI_CONFIG, "sex": 5}),
        json.dumps({**_GINI_CONFIG, "input": 5}),
        json.dumps({**_GINI_CONFIG, "seed": None}),
        json.dumps({**_GINI_CONFIG, "seed": True}),
        json.dumps({**_GINI_CONFIG, "force_residual_stage": 1}),
        json.dumps({**_GINI_CONFIG, "out": "placed"}),
        json.dumps({**_GINI_CONFIG, "jobs": 4}),
    ],
    ids=[
        "not-json", "list", "levels-text", "levels-number", "levels-text-item",
        "levels-repeated", "sex-number", "input-number", "seed-null", "seed-bool",
        "flag-number", "out-field", "jobs-field",
    ],
)
def test_malformed_config_fails_with_one_error_line(tmp_path, capsys, monkeypatch, text):
    # Only the command line places a run: a file naming out or jobs fails,
    # and its relative out would show up here if it were honoured.
    monkeypatch.chdir(tmp_path)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({**_GINI_CONFIG, "synthetic_seed": 3}), encoding="utf-8")
    assert main(["gini", "--config", str(good), "--out", str(tmp_path / "good")]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["gini", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error kind=ConfigurationError:"), err
    assert err.count("\n") == 1
    assert not out.exists()
    assert not (tmp_path / "placed").exists()


def test_config_subcommand_mismatch_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "out"
    main(["ingest", "--synthetic", "8", "--out", str(out)])
    code = main(["forecast", "--config", str(out / "config.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error kind=ConfigurationError:")


@pytest.mark.parametrize(
    "subcommand, options, named",
    [
        ("gini", ["--synthetic-seed", "5"], "--synthetic-seed"),
        ("gini", ["--synthetic-seed", "5", "--synthetic", "40"],
         "--synthetic, --synthetic-seed"),
        ("forecast", ["--horizon-max", "3"], "--horizon-max"),
        ("backtest", ["--max-horizon", "1", "--jobs", "2"], "--max-horizon"),
        ("fit", ["--no-force-residual-stage"], "--no-force-residual-stage"),
    ],
)
def test_config_takes_no_options_but_out_and_jobs(tmp_path, capsys, subcommand,
                                                  options, named):
    # A rerun takes every setting but its placement from the config, so
    # any other option given with it fails, named in the error.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"subcommand": subcommand, "synthetic": 20}),
                      encoding="utf-8")
    out = tmp_path / "out"
    args = [subcommand, "--config", str(config), *options, "--out", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error kind=ConfigurationError:"), err
    assert err.count("\n") == 1
    assert err.rstrip("\n").endswith(f"got {named}"), err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, error",
    [
        (["gini", "--synthetic", "10", "--sex", "female"], "does not read --sex"),
        (["ingest", "--input", "TABLE", "--synthetic-seed", "4"],
         "does not read --synthetic-seed"),
        ({"subcommand": "gini", "synthetic": 10, "sex": "male"}, "does not read --sex"),
        ({"subcommand": "ingest", "input": "TABLE", "synthetic_seed": 4},
         "does not read --synthetic-seed"),
        ({"subcommand": "gini", "synthetic": 10, "input": "TABLE"},
         "got --input and --synthetic"),
        ({"subcommand": "gini"}, "got neither"),
        (["ingest", "--input", "TABLE", "--synthetic-seed", "0"], None),
        (["gini", "--synthetic", "10", "--synthetic-seed", "3"], None),
        (["ingest", "--input", "TABLE", "--sex", "female"], None),
        ({"subcommand": "ingest", "input": "TABLE", "synthetic_seed": 0}, None),
    ],
    ids=[
        "sex-synthetic", "seed-input", "sex-synthetic-config", "seed-input-config",
        "both-sources-config", "no-source-config",
        "default-seed-input", "seed-synthetic", "sex-input", "default-seed-config",
    ],
)
def test_data_source_options_the_source_ignores_fail_loudly(tmp_path, capsys, args,
                                                            error):
    # A run reads exactly one source: the generator reads no sex filter and
    # a life table no seed, and a value left at its default never trips the
    # check.
    table = _one_year_table(tmp_path)
    out = tmp_path / "out"
    if isinstance(args, dict):
        data = {k: table if v == "TABLE" else v for k, v in args.items()}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        args = [data["subcommand"], "--config", str(config)]
    args = [table if a == "TABLE" else a for a in args]
    code = main(args + ["--out", str(out)])
    err = capsys.readouterr().err
    if error is None:
        assert code == 0, err
        return
    assert code == 1
    assert err.startswith("error kind=ConfigurationError:"), err
    assert err.count("\n") == 1
    assert err.rstrip("\n").endswith(error), err
    assert not out.exists()


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


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["ingest"])  # neither --input nor --synthetic
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("usage: codaboot ingest ")
    with pytest.raises(SystemExit) as info:
        main(["ingest", "--input", "a.txt", "--synthetic", "5"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["explode"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "args, unoffered",
    [
        (["ingest", "--synthetic", "20", "--seed", "4"], "--seed 4"),
        (["gini", "--synthetic", "20", "--seed", "4"], "--seed 4"),
        (["fit", "--synthetic", "20", "--seed", "4"], "--seed 4"),
        (["fit", "--synthetic", "20", "--lc-resample", "rows"], "--lc-resample rows"),
        (["fit", "--synthetic", "20", "--method", "ets_like"], "--method ets_like"),
        (["diagnose", "--synthetic", "20", "--kpss-permutations", "9",
          "--lc-resample", "rows"], "--lc-resample rows"),
        (["diagnose", "--synthetic", "20", "--kpss-permutations", "9",
          "--no-force-residual-stage"], "--no-force-residual-stage"),
        (["gini", "--config", "CONFIG", "--seed", "5"], "--seed 5"),
        (["gini", "--config", "CONFIG", "--seed", "5", "--synthetic", "40"], "--seed 5"),
    ],
    ids=[
        "ingest-seed", "gini-seed", "fit-seed", "fit-lc-resample", "fit-method",
        "diagnose-lc-resample", "diagnose-no-force-residual-stage",
        "gini-config-seed", "gini-config-seed-synthetic",
    ],
)
def test_options_the_subcommand_does_not_offer_are_usage_errors(tmp_path, capsys,
                                                                  args, unoffered):
    # No valid run of the subcommand reads these settings, so its parser
    # does not offer them; the same settings in a config file exit 1.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"subcommand": "gini", "synthetic": 20}),
                      encoding="utf-8")
    out = tmp_path / "out"
    args = [str(config) if a == "CONFIG" else a for a in args]
    with pytest.raises(SystemExit) as info:
        main(args + ["--out", str(out)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # The subcommand's own usage line, which lists the options it offers.
    assert captured.err.startswith(f"usage: codaboot {args[0]} ")
    assert captured.err.rstrip("\n").endswith(
        f"codaboot {args[0]}: error: unrecognized arguments: {unoffered}"
    )
    assert not out.exists()


def _subparsers():
    (action,) = (
        a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return action.choices


# A value away from its default for every field a parser may offer.
_NON_DEFAULT = {
    "input": "TABLE", "synthetic": 20, "out": "elsewhere", "synthetic_seed": 1,
    "sex": "female", "seed": 1, "model": "lc", "components": "one",
    "initial_window": 15, "max_horizon": 2, "replications": 10, "levels": (0.5,),
    "method": "ets_like", "bandwidth": 2.0,
    "force_residual_stage": False, "lags": 2, "dim": 1, "kpss_permutations": 9,
    "dump_samples": True, "jobs": 2,
}


# The settings under which a run reads a field that it does not always read.
_READ_UNDER = {"lags": {"force_residual_stage": False}, "dim": {"force_residual_stage": False}}


def _passes_the_run_rule(config):
    try:
        cli._check_options(config)
    except ConfigurationError:
        return False
    return True


def test_each_parser_offers_exactly_what_its_run_reads():
    # One table decides what each run reads, and each parser offers exactly
    # that: no option it offers is rejected by every valid run.
    parsers = _subparsers()
    assert sorted(parsers) == sorted(cli._READS)
    total = 0
    for subcommand, parser in parsers.items():
        offered = {a.dest for a in parser._actions} - {"help"}
        total += len(offered)
        expected = {"config", "input", "synthetic", "synthetic_seed", "sex", "out"}
        expected.update(cli._READS[subcommand])
        if "model" in expected:
            expected.update(f for reads in cli._MODEL_READS.values() for f in reads)
        assert offered == expected, subcommand

        defaults = cli.RunConfig(subcommand=subcommand)
        models = cli._MODEL_READS if "model" in offered else ("dfm",)
        for field in offered - {"config"}:
            assert _NON_DEFAULT[field] != getattr(defaults, field), field
            source = "input" if field in ("input", "sex") else "synthetic"
            settings = {source: _NON_DEFAULT[source], field: _NON_DEFAULT[field]}
            configs = (
                dataclasses.replace(defaults, **{"model": model, **under, **settings})
                for model in models
                for under in ({}, _READ_UNDER.get(field, {}))
            )
            assert any(map(_passes_the_run_rule, configs)), (subcommand, field)
    assert total == 72


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


_QUICK_FORECAST = ["forecast", "--synthetic", "25", "--components", "one",
                   "--horizon-max", "1", "--replications", "20"]
_QUICK_BACKTEST = ["backtest", "--synthetic", "40", "--initial-window", "30",
                   "--max-horizon", "3", "--replications", "20", "--components", "one"]


@pytest.mark.parametrize(
    "args, error",
    [
        (_QUICK_FORECAST + ["--levels", "80,80.00001"], "share a column tag"),
        (_QUICK_BACKTEST + ["--levels", "80,80.00001"], "share a column tag"),
        ({"subcommand": "forecast", "synthetic": 25, "components": "one", "max_horizon": 1,
          "replications": 20, "levels": [0.95, 0.9500001]}, "share a column tag"),
        (_QUICK_FORECAST + ["--seed", "-1"], "--seed must be non-negative"),
        (_QUICK_BACKTEST + ["--seed", "-1"], "--seed must be non-negative"),
        (["diagnose", "--synthetic", "25", "--kpss-permutations", "9", "--seed", "-1"],
         "--seed must be non-negative"),
        (["ingest", "--synthetic", "12", "--synthetic-seed", "-1"],
         "--synthetic-seed must be non-negative"),
        ({"subcommand": "diagnose", "synthetic": 25, "kpss_permutations": 9, "seed": -1},
         "--seed must be non-negative"),
        ({"subcommand": "gini", "synthetic": 10, "synthetic_seed": -2},
         "--synthetic-seed must be non-negative"),
        (_QUICK_FORECAST + ["--levels", "80,80.5"], None),
        (_QUICK_FORECAST + ["--replications", "0"], "--replications must be at least 1, got 0"),
        (_QUICK_FORECAST + ["--horizon-max", "0"], "--horizon-max must be at least 1, got 0"),
        (_QUICK_BACKTEST + ["--max-horizon", "0"], "--max-horizon must be at least 1, got 0"),
        (_QUICK_BACKTEST + ["--jobs", "0"], "--jobs must be at least 1, got 0"),
        (_QUICK_FORECAST + ["--no-force-residual-stage", "--lags", "0"],
         "--lags must be at least 1, got 0"),
        (["diagnose", "--synthetic", "25", "--kpss-permutations", "0"],
         "--kpss-permutations must be at least 1, got 0"),
        (["diagnose", "--synthetic", "25", "--dim", "0"], "--dim must be at least 1, got 0"),
        (["fit", "--synthetic", "25", "--lags", "-1"], "--lags must be at least 1, got -1"),
        ({"subcommand": "forecast", "synthetic": 25, "replications": 0},
         "--replications must be at least 1, got 0"),
        ({"subcommand": "backtest", "synthetic": 40, "max_horizon": 0},
         "--max-horizon must be at least 1, got 0"),
        ({"subcommand": "diagnose", "synthetic": 25, "kpss_permutations": 0},
         "--kpss-permutations must be at least 1, got 0"),
    ],
    ids=[
        "tags-forecast", "tags-backtest", "tags-config", "seed-forecast", "seed-backtest",
        "seed-diagnose", "seed-ingest", "seed-config", "synthetic-seed-config",
        "distinct-tags", "replications-forecast", "horizon-max-forecast",
        "max-horizon-backtest", "jobs-backtest", "lags-forecast", "permutations-diagnose",
        "dim-diagnose", "lags-fit", "replications-config", "max-horizon-config",
        "permutations-config",
    ],
)
def test_colliding_level_tags_and_negative_seeds_fail_loudly(tmp_path, capsys, args,
                                                             error):
    # Two levels with one column tag would overwrite each other's columns
    # and files, numpy takes no negative seed, and a count below 1 asks
    # for no work: each fails before any work, from flags and config files
    # alike, naming the option.
    out = tmp_path / "out"
    if isinstance(args, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(args), encoding="utf-8")
        args = [args["subcommand"], "--config", str(config)]
    code = main(args + ["--out", str(out)])
    err = capsys.readouterr().err
    if error is None:
        assert code == 0, err
        header, _ = _read_csv(out / "forecast_h01.csv")
        assert header[2:] == ["lower_80", "upper_80", "lower_80p5", "upper_80p5"]
        return
    assert code == 1
    assert err.startswith("error kind=ConfigurationError:"), err
    assert err.count("\n") == 1
    assert err.rstrip("\n").endswith(error), err
    assert not out.exists()


def test_factor_model_subcommands_reject_the_lee_carter_model(tmp_path, capsys):
    # fit and diagnose run only the factor model; asking them for
    # Lee-Carter fails instead of silently writing factor-model outputs.
    # Their parsers do not offer --model, so the flag is a usage error.
    for args in (
        ["fit", "--synthetic", "20", "--model", "lc", "--method", "ets_like"],
        ["diagnose", "--synthetic", "20", "--model", "lc", "--kpss-permutations", "9"],
    ):
        out = tmp_path / args[0]
        with pytest.raises(SystemExit) as info:
            main(args + ["--out", str(out)])
        assert info.value.code == 2
        assert "unrecognized arguments: --model lc" in capsys.readouterr().err
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
    err = capsys.readouterr().err
    assert err.startswith("error kind=ConfigurationError:")
    assert err.rstrip("\n").endswith("does not read --model")
    assert not rerun.exists()


def test_diagnose_rejects_the_lee_carter_model_before_any_work(
    tmp_path, capsys, monkeypatch
):
    saved = tmp_path / "saved"
    assert main(["diagnose", "--synthetic", "20", "--kpss-permutations", "9",
                 "--out", str(saved)]) == 0
    data = json.loads((saved / "config.json").read_text(encoding="utf-8"))
    data["model"] = "lc"
    edited = tmp_path / "lc.json"
    edited.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()

    def no_kpss(*args, **kwargs):
        raise AssertionError("the KPSS permutations ran before the model check")

    monkeypatch.setattr(cli, "functional_kpss_pvalue", no_kpss)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["diagnose", "--synthetic", "20", "--model", "lc", "--out", str(out)])
    assert info.value.code == 2
    assert "unrecognized arguments: --model lc" in capsys.readouterr().err
    assert not out.exists()

    assert main(["diagnose", "--config", str(edited), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error kind=ConfigurationError:")
    assert err.rstrip("\n").endswith("does not read --model")
    assert not out.exists()


def test_model_options_the_run_ignores_fail_loudly(tmp_path, capsys):
    # Each option here would leave every output but config.json unchanged.
    for i, args in enumerate(
        (
            ["forecast", "--model", "lc", "--method", "ar_aic"],
            ["forecast", "--model", "lc", "--bandwidth", "3"],
            ["forecast", "--model", "lc", "--no-force-residual-stage"],
            ["backtest", "--model", "lc", "--lags", "2"],
            ["backtest", "--model", "lc", "--dim", "2"],
            # A forced residual stage, the default, runs whatever the
            # independence test decides.
            ["forecast", "--lags", "2"],
            ["forecast", "--dim", "1"],
            ["backtest", "--lags", "2"],
            ["backtest", "--dim", "1"],
        )
    ):
        out = tmp_path / str(i)
        assert main(args + ["--synthetic", "20", "--out", str(out)]) == 1, args
        err = capsys.readouterr().err
        assert err.startswith("error kind=ConfigurationError:"), args
        # The error ends with the ignored option, the last flag of each case.
        named = args[-1] if args[-1].startswith("--") else args[-2]
        assert err.rstrip("\n").endswith(f"does not read {named}"), err
        assert not out.exists()

    # The same check applies to a config file.
    saved = tmp_path / "saved"
    lc = ["forecast", "--synthetic", "20", "--model", "lc", "--components", "one"]
    lc += ["--horizon-max", "1", "--replications", "10"]
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

    # Fields that a subcommand never reads, whatever its model; its parser
    # does not offer them, so only a config file can name them.
    for data, named in (
        ({"subcommand": "fit", "method": "ets_like"}, "--method"),
        ({"subcommand": "ingest", "seed": 4}, "--seed"),
        ({"subcommand": "gini", "seed": 4}, "--seed"),
        ({"subcommand": "fit", "seed": 4}, "--seed"),
        ({"subcommand": "diagnose", "force_residual_stage": False},
         "--no-force-residual-stage"),
        ({"subcommand": "gini", "replications": 10}, "--replications"),
        ({"subcommand": "gini", "replications": 10, "kpss_permutations": 9, "model": "lc"},
         "--model, --replications, --kpss-permutations"),
        ({"subcommand": "forecast", "initial_window": 15}, "--initial-window"),
        ({"subcommand": "backtest", "dump_samples": True}, "--dump-samples"),
        ({"subcommand": "forecast", "lags": 2}, "--lags"),
        ({"subcommand": "backtest", "lags": 2, "dim": 1}, "--lags, --dim"),
    ):
        edited.write_text(json.dumps({**data, "synthetic": 20}), encoding="utf-8")
        assert main([data["subcommand"], "--config", str(edited), "--out", str(rerun)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error kind=ConfigurationError:"), err
        assert err.rstrip("\n").endswith(f"does not read {named}"), err
        assert not rerun.exists()


def test_configs_of_runs_that_read_their_model_options_still_load(tmp_path):
    small_forecast = ["--synthetic", "20", "--components", "one", "--horizon-max", "1"]
    small_forecast += ["--replications", "10"]
    for i, args in enumerate(
        (
            ["forecast", "--model", "lc"] + small_forecast,
            ["forecast", "--method", "ar_aic", "--bandwidth", "3", "--lags", "2",
             "--dim", "1", "--no-force-residual-stage"] + small_forecast,
            _SMALL_BACKTEST + ["--method", "ets_like", "--no-force-residual-stage",
                               "--lags", "2"],
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


# config.json as the version with the --lc-resample option wrote it, for
# forecast --synthetic 25 --components one --horizon-max 2 --replications 20
# --method ets_like.
_CONFIG_WITH_LC_RESAMPLE = """{
  "bandwidth": null,
  "components": "one",
  "dim": 3,
  "dump_samples": false,
  "force_residual_stage": true,
  "initial_window": null,
  "input": null,
  "kpss_permutations": 199,
  "lags": 5,
  "lc_resample": "entries",
  "levels": [
    0.8,
    0.95
  ],
  "max_horizon": 2,
  "method": "ets_like",
  "model": "dfm",
  "replications": 20,
  "seed": 0,
  "sex": null,
  "subcommand": "forecast",
  "synthetic": 25,
  "synthetic_seed": 0
}
"""


def test_configs_that_record_the_default_lc_resample_still_rerun(tmp_path):
    # The removed field is dropped at its only default, "entries": the
    # factor-model run reruns byte for byte, and the config it writes
    # loses exactly that line.
    saved = tmp_path / "saved.json"
    saved.write_text(_CONFIG_WITH_LC_RESAMPLE, encoding="utf-8")
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    assert main(["forecast", "--config", str(saved), "--out", str(rerun)]) == 0
    args = ["forecast", "--synthetic", "25", "--components", "one", "--horizon-max", "2",
            "--replications", "20", "--method", "ets_like", "--out", str(fresh)]
    assert main(args) == 0
    assert sorted(os.listdir(rerun)) == sorted(os.listdir(fresh))
    _same_files(rerun, fresh, sorted(os.listdir(fresh)))
    written = (rerun / "config.json").read_text(encoding="utf-8")
    assert written == _CONFIG_WITH_LC_RESAMPLE.replace('  "lc_resample": "entries",\n', "")


@pytest.mark.parametrize("value", ["rows", "columns", 3, None])
def test_configs_that_chose_another_lc_resample_fail_loudly(tmp_path, capsys, value):
    data = json.loads(_CONFIG_WITH_LC_RESAMPLE)
    data.update(model="lc", method="random_walk_drift", lc_resample=value)
    saved = tmp_path / "saved.json"
    saved.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["forecast", "--config", str(saved), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error kind=ConfigurationError: config field 'lc_resample'"
                          " was removed"), err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "args, tag",
    [
        (_QUICK_FORECAST + ["--levels", "99.99999"], "100"),
        (_QUICK_BACKTEST + ["--levels", "80,95.000001"], "95"),
        ({"subcommand": "forecast", "synthetic": 25, "components": "one", "max_horizon": 1,
          "replications": 20, "levels": [0.999999999]}, "100"),
        ({"subcommand": "backtest", "synthetic": 40, "initial_window": 30, "max_horizon": 3,
          "replications": 20, "components": "one", "levels": [0.1234567]}, "12p3457"),
    ],
    ids=["forecast-flag", "backtest-flag", "forecast-config", "backtest-config"],
)
def test_a_level_its_column_tag_does_not_name_fails_loudly(tmp_path, capsys, args, tag):
    # The tag keeps six significant digits of the percentage, so it would
    # name another level in every column and file it labels.
    out = tmp_path / "out"
    if isinstance(args, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(args), encoding="utf-8")
        args = [args["subcommand"], "--config", str(config)]
    assert main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error kind=ConfigurationError: level "), err
    assert f"would be tagged {tag};" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_levels_tagged_by_their_float_rounding_alone_still_run(tmp_path):
    # A percentage times 100 may carry a rounding digit (0.07 * 100 is
    # 7.000000000000001); its tag names it all the same.
    out = tmp_path / "out"
    assert main(_QUICK_FORECAST + ["--levels", "0.07,0.29,0.975", "--out", str(out)]) == 0
    header, _ = _read_csv(out / "forecast_h01.csv")
    assert header[2:] == ["lower_7", "upper_7", "lower_29", "upper_29",
                          "lower_97p5", "upper_97p5"]
