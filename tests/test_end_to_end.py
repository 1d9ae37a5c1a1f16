"""Whole CLI runs on life tables in the layout of the mortality databases.

The tables come from the benchmark's seeded writer, ``bench/lifegen.py``,
which depends on numpy alone.  Most checks compare the files of two runs
byte for byte.  Runs whose environment matters start their own
interpreter, so that OpenBLAS reads the thread count given to it.
"""

import csv
import filecmp
import importlib.util
import os
import subprocess
import sys

import pytest

import codaboot
from codaboot import cli
from codaboot.cli import main

_LIFEGEN = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "lifegen.py")


@pytest.fixture(scope="module")
def lifegen():
    spec = importlib.util.spec_from_file_location("lifegen", _LIFEGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _same_files(first, second, names):
    _, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    assert not mismatch and not errors, (mismatch, errors)


def _backtests_agree_across_worker_counts(tmp_path, lifegen, model):
    # Every output, config.json included, at one and at two worker threads.
    table = str(tmp_path / "table.txt")
    lifegen.write_life_table(table, 40, 3)
    args = ["backtest", "--model", model, "--input", table, "--initial-window", "30",
            "--max-horizon", "5", "--replications", "50"]
    for jobs in (1, 2):
        assert main(args + ["--jobs", str(jobs), "--out", str(tmp_path / f"jobs{jobs}")]) == 0
    assert os.path.getsize(tmp_path / "jobs1" / "summary.csv") > 0
    names = sorted(os.listdir(tmp_path / "jobs1"))
    assert names == sorted(os.listdir(tmp_path / "jobs2"))
    _same_files(tmp_path / "jobs1", tmp_path / "jobs2", names)


def _bands_only_forecasts_equal_the_kept_sample_ones(tmp_path, lifegen, model):
    # Without --dump-samples each horizon is banded in one reused workspace
    # and no replicate is kept; the forecast files are the same bytes.
    table = str(tmp_path / "long.txt")
    lifegen.write_life_table(table, 100, 3)
    args = ["forecast", "--model", model, "--input", table, "--horizon-max", "5",
            "--replications", "200"]
    kept, bands = tmp_path / "kept", tmp_path / "bands"
    assert main(args + ["--dump-samples", "--out", str(kept)]) == 0
    assert main(args + ["--out", str(bands)]) == 0
    names = [f"forecast_h{h:02d}.csv" for h in range(1, 6)]
    assert sorted(os.listdir(bands)) == ["config.json"] + names
    _same_files(kept, bands, names)


def test_lee_carter_backtest_does_not_depend_on_the_worker_count(tmp_path, lifegen):
    _backtests_agree_across_worker_counts(tmp_path, lifegen, "lc")


def test_factor_model_backtest_does_not_depend_on_the_worker_count(tmp_path, lifegen):
    _backtests_agree_across_worker_counts(tmp_path, lifegen, "dfm")


def test_lee_carter_bands_only_forecasts_equal_the_kept_sample_ones(tmp_path, lifegen):
    _bands_only_forecasts_equal_the_kept_sample_ones(tmp_path, lifegen, "lc")


def test_factor_model_bands_only_forecasts_equal_the_kept_sample_ones(tmp_path, lifegen):
    _bands_only_forecasts_equal_the_kept_sample_ones(tmp_path, lifegen, "dfm")


def test_diagnose_of_a_table_reruns_from_its_config(tmp_path, lifegen):
    table = str(tmp_path / "table.txt")
    lifegen.write_life_table(table, 40, 3)
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    assert main(["diagnose", "--input", table, "--kpss-permutations", "19",
                 "--out", str(first)]) == 0
    with open(first / "diagnostics.csv", encoding="utf-8") as handle:
        assert [line.split(",")[0] for line in handle] == [
            "name", "stationarity_raw", "stationarity_differenced", "residual_independence",
        ]
    assert main(["diagnose", "--config", str(first / "config.json"),
                 "--out", str(rerun)]) == 0
    assert sorted(os.listdir(rerun)) == ["config.json", "diagnostics.csv"]
    _same_files(first, rerun, ["config.json", "diagnostics.csv"])


def test_ingest_of_a_table_writes_one_row_per_year(tmp_path, lifegen):
    table = str(tmp_path / "table.txt")
    lifegen.write_life_table(table, 40, 3)
    assert main(["ingest", "--input", table, "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "grid.csv", encoding="utf-8") as handle:
        assert len(handle.readlines()) == 41


def test_the_age_zero_band_of_a_table_stays_below_the_radix(tmp_path, lifegen):
    # The default forecast draws its residual-stage errors from AR-AICc
    # pools; an exact-fit order would push the age-0 band past the radix.
    table = str(tmp_path / "table.txt")
    lifegen.write_life_table(table, 40, 3)
    out = tmp_path / "out"
    assert main(["forecast", "--input", table, "--horizon-max", "20", "--out", str(out)]) == 0
    names = [f"forecast_h{h:02d}.csv" for h in range(1, 21)]
    assert sorted(os.listdir(out)) == ["config.json"] + names
    tops = []
    for name in names:
        with open(out / name, encoding="utf-8") as handle:
            tops.append(float(next(csv.DictReader(handle))["upper_95"]))
    assert max(tops) < 100000, tops


@pytest.mark.parametrize("subcommand", sorted(cli._COMMANDS))
def test_each_subcommand_prints_its_help(capsys, subcommand):
    with pytest.raises(SystemExit) as info:
        main([subcommand, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: codaboot {subcommand} ")


_SAMPLED = ["--horizon-max", "5", "--replications", "200", "--dump-samples"]
_TWO_COUNTS = [(2, []), (1, [])]


@pytest.mark.parametrize(
    "years, args, runs",
    [
        # On 40 years the bytes of these runs agree under either threading
        # even without the pin, so they run on 100 years, and the samples
        # are dumped so that a change in the last digit shows.
        (100, ["fit"], _TWO_COUNTS),
        (100, ["forecast", "--model", "dfm", *_SAMPLED], _TWO_COUNTS),
        (100, ["forecast", "--model", "lc", *_SAMPLED], _TWO_COUNTS),
        # The thread counts and the worker counts change together.
        (40, ["backtest", "--initial-window", "30", "--max-horizon", "5",
              "--replications", "50"], [(2, ["--jobs", "1"]), (1, ["--jobs", "2"])]),
    ],
    ids=["fit", "forecast-dfm", "forecast-lc", "backtest"],
)
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, lifegen, years, args,
                                                         runs):
    # Each run sets OPENBLAS_NUM_THREADS itself, so that an environment
    # which already sets it still compares two thread counts.
    table = str(tmp_path / "table.txt")
    lifegen.write_life_table(table, years, 3)
    outs = []
    for threads, extra in runs:
        out = tmp_path / f"blas{threads}"
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": str(threads),
            "PYTHONPATH": os.path.dirname(os.path.dirname(codaboot.__file__)),
        }
        result = subprocess.run(
            [sys.executable, "-m", "codaboot.cli", *args, *extra, "--input", table,
             "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    _same_files(*outs, names)
