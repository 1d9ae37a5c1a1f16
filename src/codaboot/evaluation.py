"""Expanding-window evaluation of interval forecasts.

The harness walks an expanding training window over a death-count grid:
with ``n`` years, an initial window of ``w`` and a maximum horizon of
``H`` it fits on the first ``w, w+1, .., n-1`` years and forecasts up to
``min(H, years remaining)`` steps from each fit, so horizon ``h``
receives exactly ``n - w - h + 1`` forecasts.  Every forecast is scored
against the held-out curve, rescaled like the forecasts to integrate to
the radix under the trapezoid rule, by the empirical coverage
probability (ECP): one minus the fraction of (window, age) points
falling strictly outside the band.  The coverage probability difference
(CPD) is the absolute gap to the nominal level, and both are averaged
across horizons for the summary.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coda import ClrSeries, clr, trapezoid_weights
from .dfm import component_counts, fit_dfm
from .bootstrap import _check_levels, bootstrap_forecast_path
from .errors import ConfigurationError, DomainError, ShapeError, check_integer
from .leecarter import fit_lc, lc_bootstrap_path
from .lifetable import LifeTableGrid


def ecp(holdouts, lowers, uppers, horizon, max_horizon):
    """Empirical coverage probability of a batch of interval forecasts.

    Parameters
    ----------
    holdouts : array_like
        Observed curves, shape ``(n_windows, D)`` with
        ``n_windows = max_horizon + 1 - horizon``.
    lowers, uppers : array_like
        Matching interval bounds, same shape.
    horizon, max_horizon : int
        Identify where in the expanding-window scheme this batch sits;
        used to validate the expected number of windows.

    Returns
    -------
    float
        ``1 - misses / (n_windows * D)`` where a miss is an observation
        strictly below its lower bound or strictly above its upper
        bound; values on a bound count as covered.
    """
    h = check_integer(horizon, "horizon")
    h_max = check_integer(max_horizon, "max_horizon")
    if h < 1 or h > h_max:
        raise DomainError(f"horizon must be in [1, {h_max}], got {horizon}")
    d = np.atleast_2d(np.asarray(holdouts, dtype=float))
    lo = np.atleast_2d(np.asarray(lowers, dtype=float))
    up = np.atleast_2d(np.asarray(uppers, dtype=float))
    if d.shape != lo.shape or d.shape != up.shape:
        raise ShapeError("holdouts and bounds must share one shape")
    expected = h_max + 1 - h
    if d.shape[0] != expected:
        raise ShapeError(
            f"horizon {h} of a max-horizon-{h_max} scheme has {expected} windows,"
            f" got {d.shape[0]}"
        )
    misses = int(np.sum(d > up)) + int(np.sum(d < lo))
    return 1.0 - misses / d.size


@dataclass(frozen=True)
class MethodConfig:
    """One forecasting method entry of a backtest plan."""

    model: str = "dfm"
    components: object = "six"
    n_samples: int = 1000
    primary_method: str = "random_walk_drift"
    residual_method: str = "ar_aic"
    bandwidth: float | None = None
    # Fixed-count experiments keep the residual stage on so the component
    # budget never depends on a test decision mid-backtest.
    force_residual_stage: bool = True
    # Serial-independence test on the first-stage residuals, which decides
    # whether the residual stage runs when it is not forced.
    independence_lags: int = 5
    independence_dim: int = 3
    lc_resample: str = "entries"

    @property
    def label(self):
        return f"{self.model}-{self.components}"


@dataclass(frozen=True)
class BacktestPlan:
    """Expanding-window layout plus the methods to run through it."""

    initial_window: int
    max_horizon: int = 20
    levels: tuple = (0.8, 0.95)
    configs: tuple = (MethodConfig(),)

    def __post_init__(self):
        for name in ("initial_window", "max_horizon"):
            value = check_integer(getattr(self, name), name, ConfigurationError)
            object.__setattr__(self, name, value)
        if self.initial_window < 10:
            raise ConfigurationError(
                f"initial_window must be at least 10, got {self.initial_window}"
            )
        if self.max_horizon < 1:
            raise ConfigurationError(
                f"max_horizon must be at least 1, got {self.max_horizon}"
            )
        if not self.configs:
            raise ConfigurationError("plan needs at least one method config")
        object.__setattr__(self, "levels", _check_levels(self.levels))


@dataclass(frozen=True)
class BacktestRow:
    """Per-horizon and summary coverage of one (method, level) pair."""

    label: str
    model: str
    components: str
    level: float
    horizons: np.ndarray
    window_counts: np.ndarray
    ecp_by_horizon: np.ndarray
    cpd_by_horizon: np.ndarray
    ecp_bar: float
    cpd_bar: float


@dataclass(frozen=True)
class BacktestReport:
    """All rows of one backtest run."""

    plan: BacktestPlan
    n_years: int
    rows: tuple


def fit_dfm_for(series, config):
    """Fit the two-stage factor model that a :class:`MethodConfig` describes."""
    if config.model != "dfm":
        raise ConfigurationError(
            f"a factor-model fit needs model 'dfm', got {config.model!r}"
        )
    counts = component_counts(config.components)
    return fit_dfm(
        series,
        counts.r,
        counts.residual,
        bandwidth=config.bandwidth,
        force_residual_stage=config.force_residual_stage,
        independence_lags=config.independence_lags,
        independence_dim=config.independence_dim,
    )


def forecast_dfm(series, config, horizons, levels, rng_seed):
    """Per-horizon bootstrap forecasts of the factor model on one series."""
    return bootstrap_forecast_path(
        fit_dfm_for(series, config),
        max_horizon=horizons,
        n_samples=config.n_samples,
        levels=levels,
        rng_seed=rng_seed,
        primary_method=config.primary_method,
        residual_method=config.residual_method,
    )


def forecast_lc(series, config, horizons, levels, rng_seed):
    """Per-horizon bootstrap forecasts of the Lee-Carter baseline on one series."""
    counts = component_counts(config.components)
    fitted = fit_lc(series, n_components=counts.r)
    return lc_bootstrap_path(
        fitted,
        max_horizon=horizons,
        n_samples=config.n_samples,
        levels=levels,
        rng_seed=rng_seed,
        resample=config.lc_resample,
    )


# Maps a MethodConfig.model name to a callable producing the per-horizon
# forecasts of one window.  Tests may register additional entries to
# drive the harness with scripted bounds.
MODEL_FORECASTERS = {
    "dfm": forecast_dfm,
    "lc": forecast_lc,
}


def run_backtest(grid, plan, rng_seed=0, n_jobs=1):
    """Run every configured method through the expanding-window scheme.

    Randomness is pre-split per (config, window) from ``rng_seed``, so
    the report does not depend on ``n_jobs`` or on the order in which
    windows finish.  Each window keeps only its per-horizon ``lower``
    and ``upper`` bands, which is all that scoring reads; its forecasts
    and their bootstrap samples are released as soon as it finishes, so
    memory does not grow with the number of windows.  Only the CLI's
    ``forecast --dump-samples`` keeps bootstrap curves.

    Parameters
    ----------
    grid : LifeTableGrid
    plan : BacktestPlan
        Requires ``initial_window + max_horizon <= n_years``.
    rng_seed : int
    n_jobs : int
        Worker threads for the window loop, at least 1; 1 runs serially.
        At most ``n_jobs`` windows hold bootstrap samples at once.

    Returns
    -------
    BacktestReport
    """
    if not isinstance(grid, LifeTableGrid):
        raise DomainError("grid must be a LifeTableGrid")
    n_jobs = check_integer(n_jobs, "n_jobs", ConfigurationError)
    if n_jobs < 1:
        raise ConfigurationError(f"n_jobs must be at least 1, got {n_jobs}")
    n = grid.n_years
    w0 = plan.initial_window
    h_max = plan.max_horizon
    if w0 + h_max > n:
        raise ConfigurationError(
            f"initial_window + max_horizon must not exceed {n} years,"
            f" got {w0} + {h_max}"
        )
    for config in plan.configs:
        if config.model not in MODEL_FORECASTERS:
            raise ConfigurationError(
                f"unknown model {config.model!r};"
                f" registered: {sorted(MODEL_FORECASTERS)}"
            )
    smallest_budget = w0 - min(h_max, n - w0)
    if smallest_budget < 3:
        raise ConfigurationError(
            "initial window too small for its horizons: needs"
            f" initial_window - min(max_horizon, n - initial_window) >= 3,"
            f" got {smallest_budget}"
        )

    series = clr(grid)
    # Grid rows sum to the radix, but every forecast integrates to it
    # under the trapezoid rule; holdouts are scored in that convention.
    weights = trapezoid_weights(grid.ages)
    observed = grid.deaths * (grid.radix / (grid.deaths @ weights))[:, None]
    windows = list(range(w0, n))
    root = np.random.SeedSequence(rng_seed)
    config_seqs = root.spawn(len(plan.configs))

    def run_window(config, window, seed):
        sub = series_prefix(series, window)
        horizons = min(h_max, n - window)
        forecaster = MODEL_FORECASTERS[config.model]
        forecasts = forecaster(sub, config, horizons, plan.levels, seed)
        # Scoring reads only the bands; returning them alone frees the
        # window's bootstrap samples as soon as it finishes.
        return [(f.lower, f.upper) for f in forecasts]

    tasks = []
    for ci, config in enumerate(plan.configs):
        window_seqs = config_seqs[ci].spawn(len(windows))
        for wi, window in enumerate(windows):
            tasks.append((ci, wi, plan.configs[ci], window, window_seqs[wi]))

    results = {}
    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            futures = {
                pool.submit(run_window, config, window, seed): (ci, wi)
                for ci, wi, config, window, seed in tasks
            }
            for future, key in futures.items():
                results[key] = future.result()
    else:
        for ci, wi, config, window, seed in tasks:
            results[(ci, wi)] = run_window(config, window, seed)

    rows = []
    for ci, config in enumerate(plan.configs):
        for level in plan.levels:
            ecp_by_h = np.empty(h_max)
            counts = np.empty(h_max, dtype=int)
            for h in range(1, h_max + 1):
                holdouts = []
                lowers = []
                uppers = []
                for wi, window in enumerate(windows):
                    if n - window < h:
                        continue
                    lower, upper = results[(ci, wi)][h - 1]
                    holdouts.append(observed[window + h - 1])
                    lowers.append(lower[level])
                    uppers.append(upper[level])
                counts[h - 1] = len(holdouts)
                # Horizon h collects one forecast per window that still has
                # h holdout years, which is (n - w0) + 1 - h of them.
                ecp_by_h[h - 1] = ecp(
                    np.array(holdouts), np.array(lowers), np.array(uppers), h, n - w0
                )
            cpd_by_h = np.abs(ecp_by_h - level)
            rows.append(
                BacktestRow(
                    label=config.label,
                    model=config.model,
                    components=str(config.components),
                    level=level,
                    horizons=np.arange(1, h_max + 1),
                    window_counts=counts,
                    ecp_by_horizon=ecp_by_h,
                    cpd_by_horizon=cpd_by_h,
                    ecp_bar=float(ecp_by_h.mean()),
                    cpd_bar=float(cpd_by_h.mean()),
                )
            )
    return BacktestReport(plan=plan, n_years=n, rows=tuple(rows))


def series_prefix(series, length):
    """First ``length`` curves of a series as a series of their own."""
    return ClrSeries(
        years=series.years[:length],
        grid=series.grid,
        values=series.values[:length],
        radix=series.radix,
    )
