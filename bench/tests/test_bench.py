"""Self-test of the benchmark harness.

Run from the repository root with ``python3 -m pytest bench/tests``.  The
smoke runs shrink every workload, so the whole file takes about a minute.
"""

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import lifegen  # noqa: E402
import run  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = run.declared_metrics()[trace]
    assert set(result["metrics"]) == set(declared)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == declared[name]
    printed = {line.split()[0] for line in proc.stdout.splitlines()[:-1] if "(n=" in line}
    assert set(declared) <= printed
    assert "fail_ratio" in printed
    if workload == "backtest-dfm":
        assert "cpd_mean" in printed

    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    if trace:
        # Main-thread self times partition the traced call.
        assert abs(metrics["trace.unaccounted_s"]) < 1e-3
        assert metrics["cli.bytes_written"] > 0
    if trace and workload == "backtest-dfm":
        # Smoke plan: windows 30..39 of a 40-year table, horizons up to 5.
        assert metrics["evaluation.windows"] == 10
        assert metrics["dfm.fit_dfm_calls"] == 10
        assert metrics["bootstrap.assemble_calls"] == sum(min(5, 40 - w) for w in range(30, 40))
        assert metrics["evaluation.parallel_speedup"] > 0
    if trace and workload == "diagnose":
        assert metrics["fts.kpss_permutations"] == 2 * 19
    if trace and workload == "forecast-lc":
        assert metrics["leecarter.replicates_per_s"] > 0
        assert metrics["bootstrap.error_pools_calls"] == 0


@pytest.fixture(scope="module")
def forecast_dir(tmp_path_factory):
    import codaboot.cli

    base = tmp_path_factory.mktemp("forecast")
    table = str(base / "lifetable.txt")
    lifegen.write_life_table(table, 40, seed=5)
    _, cli_args, _, smoke_args = run.WORKLOADS["forecast-dfm-long"]
    out = str(base / "out")
    assert codaboot.cli.main(smoke_args + ["--input", table, "--out", out]) == 0
    return out, smoke_args


def _corrupt(src, dst, edit):
    shutil.copytree(src, dst)
    path = os.path.join(dst, "forecast_h01.csv")
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    edit(rows)
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    return dst


def _swap_columns(first, second):
    def edit(rows):
        i, j = rows[0].index(first), rows[0].index(second)
        for row in rows[1:]:
            row[i], row[j] = row[j], row[i]
    return edit


def test_output_check_accepts_real_output(forecast_dir):
    out, cli_args = forecast_dir
    assert checks.check_outputs(out, cli_args) == []


@pytest.mark.parametrize(
    "edit, expected",
    [
        (_swap_columns("lower_80", "upper_80"), "lower_80 > upper_80"),
        (_swap_columns("lower_80", "lower_95"), "band does not contain"),
        (lambda rows: rows[3].__setitem__(1, "nan"), "non-finite"),
    ],
)
def test_output_check_rejects_corrupted_output(forecast_dir, tmp_path, edit, expected):
    out, cli_args = forecast_dir
    bad = _corrupt(out, str(tmp_path / "bad"), edit)
    problems = checks.check_outputs(bad, cli_args)
    assert any(expected in p for p in problems), problems
    assert checks.output_digest(bad)[0] != checks.output_digest(out)[0]


def test_output_check_rejects_missing_file(forecast_dir, tmp_path):
    out, cli_args = forecast_dir
    bad = str(tmp_path / "bad")
    shutil.copytree(out, bad)
    os.remove(os.path.join(bad, "forecast_h05.csv"))
    assert checks.check_outputs(bad, cli_args) == ["missing forecast_h05.csv"]


def test_coverage_outside_unit_interval_is_rejected(tmp_path):
    (tmp_path / "config.json").write_text("{}\n")
    (tmp_path / "summary.csv").write_text(
        "label,model,components,level,ecp_bar,cpd_bar\ndfm-six,dfm,six,0.8,1.2,0.4\n"
    )
    problems = checks.check_outputs(str(tmp_path), ["backtest"])
    assert problems == ["summary.csv: ecp_bar outside [0, 1]"]


def test_generator_is_seeded():
    first = lifegen.format_life_table(lifegen.life_table_qx(30, seed=1))
    assert first == lifegen.format_life_table(lifegen.life_table_qx(30, seed=1))
    assert first != lifegen.format_life_table(lifegen.life_table_qx(30, seed=2))
    assert first.splitlines()[3 + 110].split()[1] == "110+"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "diagnose", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
