"""Correctness checks and digests of one CLI run's output directory."""

from __future__ import annotations

import csv
import hashlib
import math
import os


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def expected_files(cli_args):
    """Output files the subcommand in ``cli_args`` must write."""
    names = ["config.json"]
    if cli_args[0] == "forecast":
        horizons = int(cli_args[cli_args.index("--horizon-max") + 1])
        names += [f"forecast_h{h:02d}.csv" for h in range(1, horizons + 1)]
    elif cli_args[0] == "backtest":
        names += ["summary.csv"]
    elif cli_args[0] == "diagnose":
        names += ["diagnostics.csv"]
    return names


def check_outputs(out_dir, cli_args):
    """Problems found in ``out_dir``; an empty list means the run is correct.

    Every numeric cell must be finite.  Forecast files must have
    ``lower <= upper`` at every age and each wider band must contain every
    narrower one; coverage and p-values must lie in ``[0, 1]``.
    """
    problems = []
    for name in expected_files(cli_args):
        if not os.path.isfile(os.path.join(out_dir, name)):
            problems.append(f"missing {name}")
    if problems:
        return problems

    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".csv"):
            continue
        header, rows = _read_csv(os.path.join(out_dir, name))
        table = {column: [_number(row[i]) for row in rows] for i, column in enumerate(header)}
        for column, values in table.items():
            if any(v is not None and not math.isfinite(v) for v in values):
                problems.append(f"{name}: non-finite value in {column}")
        if name.startswith("forecast_h"):
            problems += _check_bands(name, table)
        for column in ("ecp", "ecp_bar", "cpd", "cpd_bar", "p_value"):
            if column in table and any(
                v is None or not 0.0 <= v <= 1.0 for v in table[column]
            ):
                problems.append(f"{name}: {column} outside [0, 1]")
    return problems


def _check_bands(name, table):
    levels = sorted(
        (float(column[len("lower_"):].replace("p", ".")), column[len("lower_"):])
        for column in table
        if column.startswith("lower_")
    )
    bounds = [f"{side}_{tag}" for _, tag in levels for side in ("lower", "upper")]
    if not levels or any(v is None for b in bounds for v in table.get(b, [None])):
        return [f"{name}: missing or non-numeric band columns"]
    problems = []
    for _, tag in levels:
        lower, upper = table[f"lower_{tag}"], table[f"upper_{tag}"]
        if any(lo > up for lo, up in zip(lower, upper)):
            problems.append(f"{name}: lower_{tag} > upper_{tag}")
    for (_, narrow), (_, wide) in zip(levels, levels[1:]):
        if any(
            w > n
            for w, n in zip(table[f"lower_{wide}"], table[f"lower_{narrow}"])
        ) or any(
            w < n
            for w, n in zip(table[f"upper_{wide}"], table[f"upper_{narrow}"])
        ):
            problems.append(f"{name}: {wide}% band does not contain the {narrow}% band")
    return problems


def output_digest(out_dir):
    """sha256 over the names and bytes of every file in ``out_dir``."""
    digest = hashlib.sha256()
    total = 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            data = handle.read()
        digest.update(name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        total += len(data)
    return digest.hexdigest(), total


def cpd_mean(out_dir):
    """Mean ``cpd_bar`` over the rows of a backtest's ``summary.csv``."""
    header, rows = _read_csv(os.path.join(out_dir, "summary.csv"))
    column = header.index("cpd_bar")
    return sum(float(row[column]) for row in rows) / len(rows)
