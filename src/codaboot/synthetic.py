"""Seeded synthetic data for demos, smoke tests and calibration studies.

:func:`make_synthetic_grid` produces a life table the long way round: it
draws Gompertz-style death probabilities with a slow mortality
improvement and pushes them through the same survivorship rebuild that
real data takes, so everything downstream sees a fully valid grid whose
modal age of death drifts upward over the years.

:func:`make_factor_grid` generates data that match the forecasting model
by construction - one integrated factor, one autoregressive residual
factor and white curve noise in clr space - which is the right testbed
for checking interval calibration.
"""

from __future__ import annotations

import numpy as np

from .coda import inverse_clr, trapezoid_weights
from .errors import DomainError, check_integer
from .lifetable import (
    DEFAULT_RADIX,
    LifeTableColumns,
    LifeTableGrid,
    rebuild_deaths,
)

# The synthetic tables close with an open age group at this age.
TERMINAL_AGE = 110


def make_synthetic_grid(n_years=50, seed=0, start_year=1950, radix=DEFAULT_RADIX):
    """Life-table grid from drifting Gompertz-style death probabilities.

    The hazard at age ``x`` in year ``t`` is
    ``A_t * exp(B x) + C_t * exp(-x / 2)``: a senescent term whose level
    ``A_t`` falls geometrically with small lognormal noise (so the modal
    age of death rises over the years) plus a fading infant term.  Death
    probabilities are ``1 - exp(-hazard)``, with the terminal age group
    closed at 1 as a life table requires.

    Parameters
    ----------
    n_years : int
        At least 2.
    seed : int
        Generator seed; equal seeds give identical grids.
    start_year : int
        Label of the first year.
    radix : float

    Returns
    -------
    LifeTableGrid
    """
    n = check_integer(n_years, "n_years")
    if n < 2:
        raise DomainError(f"need at least 2 years, got {n_years}")
    rng = np.random.default_rng(seed)
    ages = np.arange(TERMINAL_AGE + 1)

    slope = 0.095
    base_level = slope * np.exp(-slope * 72.0)
    improvement = 0.014
    infant_level = 0.012
    infant_improvement = 0.02

    qx = np.empty((n, ages.size))
    for t in range(n):
        level = base_level * np.exp(-improvement * t + 0.01 * rng.standard_normal())
        infant = infant_level * np.exp(-infant_improvement * t)
        hazard = level * np.exp(slope * ages) + infant * np.exp(-ages / 2.0)
        qx[t] = 1.0 - np.exp(-hazard)
    qx[:, -1] = 1.0
    years = np.repeat(np.arange(start_year, start_year + n), ages.size)
    table = LifeTableColumns(years, np.tile(ages, n), qx.ravel())
    return rebuild_deaths(table, radix=radix)


_WALK_SCALE, _AR_COEFFICIENT, _AR_SCALE, _NOISE_SCALE = 0.05, 0.5, 0.04, 0.02


def make_factor_grid(n_years=80, n_ages=31, seed=0, start_year=1900, radix=DEFAULT_RADIX):
    """Grid whose clr curves follow an exact two-factor dynamic model.

    In clr space the curves are
    ``X_t = mean + walk_t * f1 + ar_t * f2 + noise_t`` with ``walk`` a
    random walk, ``ar`` a stationary AR(1) and ``noise`` white across
    time; every piece is centred under the grid quadrature so the curves
    are valid clr images.  The curves are mapped to death counts and each
    year is renormalised to the radix.

    Returns
    -------
    LifeTableGrid
    """
    n = check_integer(n_years, "n_years")
    d = check_integer(n_ages, "n_ages")
    if n < 10:
        raise DomainError(f"need at least 10 years, got {n_years}")
    if d < 3:
        raise DomainError(f"need at least 3 ages, got {n_ages}")
    rng = np.random.default_rng(seed)
    grid = np.arange(float(d))
    weights = trapezoid_weights(grid)
    eta = grid[-1] - grid[0]

    def centre(curves):
        curves = np.atleast_2d(curves)
        return np.squeeze(curves - np.outer(curves @ weights / eta, np.ones(d)))

    # The mass at both grid edges is negligible, so a row's plain sum
    # (the grid convention) and its trapezoid integral (the forecasts'
    # convention, in which backtests score holdouts) nearly agree; they
    # differ by half the edge masses.
    position = grid / (d - 1)
    mean = centre(-((position - 0.5) ** 2) * 18.0)
    factor_one = centre(np.sin(np.pi * position))
    factor_one /= np.sqrt(factor_one @ (weights * factor_one))
    factor_two = centre(np.cos(2.0 * np.pi * position))
    factor_two /= np.sqrt(factor_two @ (weights * factor_two))

    walk = np.cumsum(rng.normal(0.0, _WALK_SCALE, n))
    ar = np.empty(n)
    ar[0] = rng.normal(0.0, _AR_SCALE)
    shocks = rng.normal(0.0, _AR_SCALE, n)
    for t in range(1, n):
        ar[t] = _AR_COEFFICIENT * ar[t - 1] + shocks[t]
    noise = centre(rng.normal(0.0, _NOISE_SCALE, (n, d)))

    curves = mean + np.outer(walk, factor_one) + np.outer(ar, factor_two) + noise
    deaths = inverse_clr(curves, grid, radix)
    deaths *= radix / deaths.sum(axis=1, keepdims=True)
    years = np.arange(start_year, start_year + n)
    return LifeTableGrid(years=years, ages=grid.astype(int), deaths=deaths, radix=radix)
