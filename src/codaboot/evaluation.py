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
from .bootstrap import (
    _check_levels,
    _one_blas_thread,
    bootstrap_forecast_path,
)
from .errors import ConfigurationError, DomainError, ShapeError, check_integer
from .fts import independence_test
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
        Where the batch sits in the expanding-window scheme; they fix the
        expected number of windows.  ``max_horizon`` is the scheme's
        window count, ``n - initial_window``, which is also the furthest
        horizon any window reaches: :func:`run_backtest` passes that
        count, not its plan's ``max_horizon``.

    Returns
    -------
    float
        ``1 - misses / (n_windows * D)`` where a miss is an observation
        strictly below its lower bound or strictly above its upper
        bound; values on a bound count as covered.  Holdouts must be
        finite and bounds not NaN; a bound may be infinite.
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
    # A comparison with NaN is false, so a NaN would score as covered.
    # Infinite bounds stay valid: they cover everything on their side.
    if not np.all(np.isfinite(d)):
        raise DomainError("holdouts must be finite")
    if np.isnan(lo).any() or np.isnan(up).any():
        raise DomainError("bounds must not be NaN")
    misses = int(np.sum((d > up) | (d < lo)))
    return 1.0 - misses / d.size


@dataclass(frozen=True)
class MethodConfig:
    """One forecasting method entry of a backtest plan."""

    model: str = "dfm"
    components: object = "six"
    n_samples: int = 1000
    primary_method: str = "random_walk_drift"
    bandwidth: float | None = None
    # Fixed-count experiments keep the residual stage on so the component
    # budget never depends on a test decision mid-backtest.
    force_residual_stage: bool = True
    # Serial-independence test on the first-stage residuals, which decides
    # whether the residual stage runs when it is not forced.
    independence_lags: int = 5
    independence_dim: int = 3

    def __post_init__(self):
        # Checked here, not only by the test, which a forced fit never runs.
        for name in ("independence_lags", "independence_dim"):
            value = check_integer(getattr(self, name), name, ConfigurationError, minimum=1)
            object.__setattr__(self, name, value)

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
        for name, minimum in (("initial_window", 10), ("max_horizon", 1)):
            value = check_integer(getattr(self, name), name, ConfigurationError, minimum)
            object.__setattr__(self, name, value)
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


def first_stage(series, config):
    """``(DfmFit, IndependenceResult)``: the one-stage factor fit of
    ``config``'s components and bandwidth, and the serial-independence test
    of its ``final_residuals`` under ``config``'s lags and dimension."""
    fit = fit_dfm(series, component_counts(config.components), 0, bandwidth=config.bandwidth)
    return fit, independence_test(
        fit.final_residuals,
        lag_count=config.independence_lags,
        projection_dim=config.independence_dim,
        grid=series.grid,
    )


def fit_dfm_for(series, config):
    """Fit the factor model that a :class:`MethodConfig` describes, with
    ``config.components`` components per stage.  A forced residual stage
    runs untested; otherwise it runs only when :func:`first_stage`'s test
    finds dependence at the 5% level, and the first-stage fit is returned
    when it does not."""
    if config.model != "dfm":
        raise ConfigurationError(
            f"a factor-model fit needs model 'dfm', got {config.model!r}"
        )
    if not config.force_residual_stage:
        fit, independence = first_stage(series, config)
        if not independence.dependent():
            return fit
    k = component_counts(config.components)
    return fit_dfm(series, k, k, bandwidth=config.bandwidth)


def forecast(series, config, horizons, levels, rng_seed, keep_samples=False):
    """Per-horizon bootstrap forecasts of ``config.model`` on one series.

    ``lc`` is the Lee-Carter baseline; any other model is fitted by
    :func:`fit_dfm_for` and its scores drawn by ``config.primary_method``.
    The fit and path functions are module globals read at call time.
    """
    common = dict(
        max_horizon=horizons, n_samples=config.n_samples, levels=levels,
        rng_seed=rng_seed, keep_samples=keep_samples,
    )
    if config.model == "lc":
        return lc_bootstrap_path(fit_lc(series, component_counts(config.components)), **common)
    return bootstrap_forecast_path(
        fit_dfm_for(series, config), primary_method=config.primary_method, **common
    )


# Maps a MethodConfig.model name to a callable producing the per-horizon
# forecasts of one window.  Tests may register additional entries to
# drive the harness with scripted bounds.
MODEL_FORECASTERS = {"dfm": forecast, "lc": forecast}


def run_backtest(grid, plan, rng_seed=0, n_jobs=1):
    """Run every configured method through the expanding-window scheme.

    Every (config, window) pair is one task, and the tasks go through one
    ``map``: the builtin one when ``n_jobs == 1``, so a serial run stays on
    the calling thread and stops at the first window that raises, and a
    thread pool's otherwise.  Randomness is pre-split per (config, window)
    from ``rng_seed``, so the report does not depend on ``n_jobs`` or on
    the order in which windows finish.  Each window keeps only its
    per-horizon ``lower`` and ``upper`` bands, which is all that scoring
    reads, and its forecasts keep no samples: either model's window reuses
    one workspace for all its horizons, so memory does not grow with the
    windows.
    Only the CLI's ``forecast --dump-samples`` keeps bootstrap curves.
    Horizon ``h`` is scored on the first ``n - initial_window + 1 - h``
    windows, against the held-out curves from row ``initial_window + h - 1``
    of the grid on.

    Parameters
    ----------
    grid : LifeTableGrid
    plan : BacktestPlan
        Requires ``initial_window + max_horizon <= n_years``.
    rng_seed : int
    n_jobs : int
        Worker threads for the window loop, at least 1; 1 runs serially.
        At most ``n_jobs`` windows hold bootstrap replicates at once.  Either
        way the windows run on one thread of numpy's bundled OpenBLAS, when
        found, so the report does not depend on ``OPENBLAS_NUM_THREADS``.

    Returns
    -------
    BacktestReport
    """
    if not isinstance(grid, LifeTableGrid):
        raise DomainError("grid must be a LifeTableGrid")
    n_jobs = check_integer(n_jobs, "n_jobs", ConfigurationError, minimum=1)
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
    windows = range(w0, n)
    config_seqs = np.random.SeedSequence(rng_seed).spawn(len(plan.configs))
    tasks = [
        (config, window, seed)
        for config, config_seq in zip(plan.configs, config_seqs)
        for window, seed in zip(windows, config_seq.spawn(len(windows)))
    ]

    def run_window(task):
        config, window, seed = task
        # Looked up per call, so entries registered or wrapped after
        # import are the ones that run.
        forecaster = MODEL_FORECASTERS[config.model]
        sub = series_prefix(series, window)
        forecasts = forecaster(sub, config, min(h_max, n - window), plan.levels, seed)
        # Scoring reads only the bands; the forecasts carry no samples.
        return [(f.lower, f.upper) for f in forecasts]

    with _one_blas_thread():
        if n_jobs == 1:
            bands = list(map(run_window, tasks))
        else:
            with ThreadPoolExecutor(max_workers=n_jobs) as pool:
                bands = list(pool.map(run_window, tasks))

    rows = []
    for ci, config in enumerate(plan.configs):
        paths = bands[ci * len(windows) : (ci + 1) * len(windows)]
        for level in plan.levels:
            ecp_by_h = np.empty(h_max)
            for h in range(1, h_max + 1):
                # Window i forecasts year w0 + i + h - 1 at horizon h, so
                # the first n - w0 + 1 - h windows score against one slice.
                scored = paths[: len(windows) + 1 - h]
                ecp_by_h[h - 1] = ecp(
                    observed[w0 + h - 1 :],
                    [path[h - 1][0][level] for path in scored],
                    [path[h - 1][1][level] for path in scored],
                    h,
                    len(windows),
                )
            cpd_by_h = np.abs(ecp_by_h - level)
            horizons = np.arange(1, h_max + 1)
            rows.append(
                BacktestRow(
                    label=config.label,
                    model=config.model,
                    components=str(config.components),
                    level=level,
                    horizons=horizons,
                    window_counts=len(windows) + 1 - horizons,
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
