"""Package surface: import cost and the names the demos rely on."""

import ast
import os
import pathlib
import subprocess
import sys

import codaboot

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_import_does_not_load_scipy_stats():
    # scipy.stats takes about a second to import, which every CLI call
    # would pay; the package needs only scipy.special.
    probe = "import sys, codaboot; print('scipy.stats' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(codaboot.__file__).parents[1])},
    )
    assert result.stdout.strip() == "False"


def test_demo_imports_resolve():
    # Parsed rather than run: the backtest demo alone takes half a minute.
    assert DEMOS
    for demo in DEMOS:
        tree = ast.parse(demo.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "codaboot":
                for alias in node.names:
                    assert hasattr(codaboot, alias.name), f"{demo.name}: {alias.name}"
