"""Package surface: import cost, the demos and the names they rely on."""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import codaboot

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
