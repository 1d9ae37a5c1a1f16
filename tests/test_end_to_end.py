"""Whole CLI runs on life tables in the layout of the mortality databases.

The tables come from the benchmark's seeded writer, ``bench/lifegen.py``,
which depends on numpy alone.  Each check compares the files of two runs
byte for byte.
"""

import filecmp
import importlib.util
import os

import pytest

from codaboot.cli import main

_LIFEGEN = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "lifegen.py")


@pytest.fixture(scope="module")
def lifegen():
    spec = importlib.util.spec_from_file_location("lifegen", _LIFEGEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lee_carter_backtest_does_not_depend_on_the_worker_count(tmp_path, lifegen):
    # Every output, config.json included, at one and at two worker threads.
    table = str(tmp_path / "table.txt")
    lifegen.write_life_table(table, 40, 3)
    args = ["backtest", "--model", "lc", "--input", table, "--initial-window", "30",
            "--max-horizon", "5", "--replications", "50"]
    for jobs in (1, 2):
        assert main(args + ["--jobs", str(jobs), "--out", str(tmp_path / f"jobs{jobs}")]) == 0
    assert os.path.getsize(tmp_path / "jobs1" / "summary.csv") > 0
    names = sorted(os.listdir(tmp_path / "jobs1"))
    assert names == sorted(os.listdir(tmp_path / "jobs2"))
    _, mismatch, errors = filecmp.cmpfiles(tmp_path / "jobs1", tmp_path / "jobs2", names,
                                           shallow=False)
    assert not mismatch and not errors, (mismatch, errors)


def test_lee_carter_bands_only_forecasts_equal_the_kept_sample_ones(tmp_path, lifegen):
    # Without --dump-samples each horizon is banded in one reused workspace
    # and no replicate is kept; the forecast files are the same bytes.
    table = str(tmp_path / "long.txt")
    lifegen.write_life_table(table, 100, 3)
    args = ["forecast", "--model", "lc", "--input", table, "--horizon-max", "5",
            "--replications", "200"]
    kept, bands = tmp_path / "kept", tmp_path / "bands"
    assert main(args + ["--dump-samples", "--out", str(kept)]) == 0
    assert main(args + ["--out", str(bands)]) == 0
    names = [f"forecast_h{h:02d}.csv" for h in range(1, 6)]
    assert sorted(os.listdir(bands)) == ["config.json"] + names
    _, mismatch, errors = filecmp.cmpfiles(kept, bands, names, shallow=False)
    assert not mismatch and not errors, (mismatch, errors)
