"""Seeded writer of synthetic period life tables for the benchmark.

The tables follow the whitespace-columnar layout of the major mortality
databases: a two-line preamble, a header naming ``Year Age mx qx ax lx dx
Lx Tx ex`` and one row per year and single age ``0 .. 109`` plus the open
group ``110+``.  Adult mortality is Gompertz-Makeham,
``mu(x) = a + b exp(c x)``, with a senescent level ``log b`` that drifts
down as a random walk, an infant rate that declines with its own noise,
and small independent age-year perturbations, so that the curves change
shape and level from year to year the way observed tables do.

The writer depends on numpy only, never on ``codaboot``: the inputs stay
the same whatever the code under test does.
"""

from __future__ import annotations

import hashlib

import numpy as np

TERMINAL_AGE = 110
FIRST_YEAR = 1800


def life_table_qx(n_years, seed):
    """Death probabilities of shape ``(n_years, 111)``; ``qx[:, 110] == 1``."""
    rng = np.random.default_rng(seed)
    ages = np.arange(TERMINAL_AGE + 1, dtype=float)
    t = np.arange(n_years, dtype=float)
    log_b = np.log(3e-5) + np.cumsum(rng.normal(-0.008, 0.03, n_years))
    slope = 0.095 + 0.0002 * t + rng.normal(0.0, 0.002, n_years)
    makeham = 2e-3 * np.exp(-0.012 * t) * np.exp(rng.normal(0.0, 0.05, n_years))
    infant = 0.18 * np.exp(-0.015 * t + np.cumsum(rng.normal(0.0, 0.03, n_years)))
    childhood = 0.01 * np.exp(-0.01 * t)
    mu = (
        makeham[:, None]
        + np.exp(log_b[:, None] + slope[:, None] * ages)
        + childhood[:, None] * np.exp(-0.6 * ages)
    )
    mu *= np.exp(rng.normal(0.0, 0.04, mu.shape))
    qx = np.minimum(1.0 - np.exp(-mu), 0.9)
    qx[:, 0] = np.clip(infant, 0.002, 0.4)
    qx[:, TERMINAL_AGE] = 1.0
    return qx


def format_life_table(qx, label="Synthetic"):
    """Render death probabilities as a columnar period life table."""
    n_years, n_ages = qx.shape
    radix = 100000.0
    lines = [
        f"{label}, Total\tLife tables (period 1x1)\tSeeded Gompertz-Makeham cohort",
        "",
        "  Year          Age         mx       qx    ax      lx      dx      Lx       Tx     ex",
    ]
    for i in range(n_years):
        q = np.round(qx[i], 5)
        lx = radix * np.concatenate([[1.0], np.cumprod(1.0 - q[:-1])])
        dx = lx * q
        ax = np.full(n_ages, 0.5)
        ax[0] = 0.1
        big_l = lx - (1.0 - ax) * dx
        mx = np.divide(dx, big_l, out=np.zeros(n_ages), where=big_l > 0)
        tx = np.cumsum(big_l[::-1])[::-1]
        ex = np.divide(tx, lx, out=np.zeros(n_ages), where=lx > 0)
        year = FIRST_YEAR + i
        for age in range(n_ages):
            age_label = f"{age}+" if age == TERMINAL_AGE else str(age)
            lines.append(
                f"  {year:4d}  {age_label:>11s}  {mx[age]:9.6f}  {q[age]:7.5f}"
                f"  {ax[age]:4.2f}  {lx[age]:6.0f}  {dx[age]:6.0f}"
                f"  {big_l[age]:6.0f}  {tx[age]:7.0f}  {ex[age]:5.2f}"
            )
    return "\n".join(lines) + "\n"


def write_life_table(path, n_years, seed):
    """Write a table of ``n_years`` years and return the sha256 of its bytes."""
    data = format_life_table(life_table_qx(n_years, seed)).encode("ascii")
    with open(path, "wb") as handle:
        handle.write(data)
    return hashlib.sha256(data).hexdigest()
