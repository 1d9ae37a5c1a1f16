"""Package surface: import cost, the demos and the names they rely on."""

import ast
import collections
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import codaboot
from codaboot import cli, evaluation

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# Runs the CLI in an interpreter where every scipy import fails, as it
# would where scipy is not installed.
SCIPY_BLOCKED_RUN = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("scipy"):
            raise ModuleNotFoundError(f"{name} is blocked", name=name)
        return None

sys.meta_path.insert(0, BlockScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("the scipy block did not hold")

from codaboot.cli import main

out = sys.argv[1]
common = ["--synthetic", "30", "--components", "2"]
codes = [
    main(["diagnose", *common, "--kpss-permutations", "9", "--out", out + "/diagnose"]),
    main(["fit", *common, "--out", out + "/fit"]),
]
sys.exit(max(codes))
"""


def _run_python(*args, cwd=None):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(codaboot.__file__).parents[1])},
    )


def test_cli_import_loads_no_scipy():
    # The runtime needs numpy and the standard library only; importing
    # scipy would cost every CLI call about 0.3 s and 20 MB.
    probe = (
        "import sys, codaboot.cli;"
        " print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    result = _run_python("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_runs_with_scipy_blocked(tmp_path):
    result = _run_python("-c", SCIPY_BLOCKED_RUN, str(tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr
    assert (tmp_path / "diagnose" / "diagnostics.csv").is_file()
    assert (tmp_path / "fit" / "config.json").is_file()


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs_from_an_empty_directory(tmp_path, demo):
    # The demos exercise the public API end to end, run as a user's script
    # would be, from a directory of its own.
    result = _run_python(str(demo), cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr


def test_demo_imports_resolve():
    # Parsed rather than run, so that a name the package no longer exports
    # is named in the failure.
    assert DEMOS
    for demo in DEMOS:
        tree = ast.parse(demo.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "codaboot":
                for alias in node.names:
                    assert hasattr(codaboot, alias.name), f"{demo.name}: {alias.name}"


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # bench/spans.py wraps codaboot's functions by name, from outside the
    # package, so renaming or deleting a traced function breaks every
    # traced benchmark run without failing any test of the package.  The
    # tracer is loaded from its file and only read.  Once the stage timers
    # live in src/ and TRACED is retired, this test goes with it.
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, func_name, _, _ in spans.TRACED:
        module = importlib.import_module(f"codaboot.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
    assert {"dfm", "lc"} <= set(codaboot.evaluation.MODEL_FORECASTERS)


def test_cli_forecasts_bypass_the_registry_and_read_their_functions_at_call_time(
    tmp_path, monkeypatch
):
    # The tracer of bench/spans.py rebinds the fit and path functions in
    # every codaboot module namespace and wraps the MODEL_FORECASTERS
    # entries as backtest windows.  A CLI forecast therefore must not go
    # through the registry, and evaluation.forecast must look up the
    # functions it calls when it runs, not hold them from import time.
    assert set(cli._MODEL_READS) == set(evaluation.MODEL_FORECASTERS)

    def refuse(*args, **kwargs):
        raise AssertionError("a CLI forecast went through MODEL_FORECASTERS")

    for model in evaluation.MODEL_FORECASTERS:
        monkeypatch.setitem(evaluation.MODEL_FORECASTERS, model, refuse)
    calls = collections.Counter()

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    for name in ("fit_lc", "lc_bootstrap_path", "fit_dfm", "bootstrap_forecast_path"):
        monkeypatch.setattr(evaluation, name, counting(name, getattr(evaluation, name)))
    expected = {
        "lc": {"fit_lc": 1, "lc_bootstrap_path": 1},
        "dfm": {"fit_dfm": 1, "bootstrap_forecast_path": 1},
    }
    for model, counts in expected.items():
        calls.clear()
        args = ["forecast", "--synthetic", "30", "--model", model, "--horizon-max", "2",
                "--replications", "20", "--out", str(tmp_path / model)]
        assert cli.main(args) == 0
        assert calls == counts, model
