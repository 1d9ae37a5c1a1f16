"""Bootstrap prediction intervals built on the fitted factor model.

Forecast uncertainty is propagated through three additive sources: the
h-step-ahead forecast errors of the primary scores, the same for the
residual-stage scores, and the final residual curves themselves.  Each
score series is forecast once from every one of its prefixes.  The
prefix ending ``h`` steps before an observed value gives one realised
h-step error, and these errors form the in-sample pools; the whole
series, its own longest prefix, gives the central forecasts.  Both are
kept in one :class:`ErrorPool`, together with the fit they came from,
so a pool is all that assembly needs.  A bootstrap replicate adds one
resampled error to each central score forecast, resamples one whole
residual curve and assembles the clr curve.  :func:`_banded_forecast`
maps the replicates back to death counts and reads the pointwise
quantile bands from one sort.  The Lee-Carter fit
(:func:`~codaboot.leecarter.fit_lc`) is a factor fit whose residual
stage is empty, so the baseline is bootstrapped here too.

All randomness in one assembly flows from a single seeded generator in a
fixed order: one block of pool draws per primary component (in component
order), one per residual component, then the residual-curve row indices.

A caller that reads only the bands passes a workspace, in which each
horizon's replicates are built and sorted in turn and then dropped;
otherwise they are kept in replicate order.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .coda import _check_buffer, inverse_clr
from .dfm import DfmFit
from .errors import ConfigurationError, InsufficientDataError, PoolError, check_integer

SCORE_METHODS = ("random_walk_drift", "ar_aic", "ets_like")

_AR_MAX_ORDER = 5

# Parameter grid for the exponential-smoothing fit.  A fixed grid keeps
# the fit deterministic to the bit across platforms and is plenty for a
# two-parameter least-squares surface.
_ETS_GRID = np.linspace(0.05, 1.0, 20)


def _check_method(method):
    if method not in SCORE_METHODS:
        raise ConfigurationError(
            f"method must be one of {SCORE_METHODS}, got {method!r}"
        )


def _ar_max_order(m):
    """Highest candidate AR order of a prefix of length ``m``: order ``p``
    needs ``m - p >= p + 3`` targets, so no candidate fits them exactly."""
    return np.minimum(_AR_MAX_ORDER, (m - 3) // 2)


def _aicc(rss, n_eff, order):
    """AICc (Hurvich and Tsai, 1989) of an AR(``order``) fit with a mean."""
    k = order + 1
    sigma2 = np.maximum(rss / n_eff, 1e-300)
    return n_eff * np.log(sigma2) + 2.0 * k + 2.0 * k * (k + 1) / (n_eff - k - 1)


def _fit_ar_aic(x):
    """Select an AR order by AICc and return (mean, coefficients)."""
    m = x.size
    mean = x.mean()
    xd = x - mean
    best_aic = np.inf
    best_coef = np.empty(0)
    for order in range(_ar_max_order(m) + 1):
        target = xd[order:]
        if order == 0:
            rss = float(target @ target)
            coef = np.empty(0)
        else:
            lagged = np.column_stack([xd[order - j - 1 : m - j - 1] for j in range(order)])
            coef, *_ = np.linalg.lstsq(lagged, target, rcond=None)
            resid = target - lagged @ coef
            rss = float(resid @ resid)
        aic = _aicc(rss, target.size, order)
        if aic < best_aic:
            best_aic = aic
            best_coef = coef
    return mean, best_coef


def _forecast_ar_aic(x, horizons):
    mean, coef = _fit_ar_aic(x)
    order = coef.size
    if order == 0:
        return np.full(horizons, mean)
    history = list(x[-order:] - mean)
    out = np.empty(horizons)
    for h in range(horizons):
        nxt = float(np.dot(coef, history[::-1][:order]))
        out[h] = mean + nxt
        history.append(nxt)
    return out


def _fit_ets_prefixes(x):
    """Least-squares additive-trend exponential smoothing of every prefix.

    ``x`` is an ``(s, m)`` stack of series.  Returns ``(level, trend)``,
    each ``(s, m)``: column ``i`` is the fit of ``x[:, : i + 1]``.  For
    each prefix the smoothing parameters minimise the sum of squared
    one-step errors over a fixed grid, with ties resolved to the first
    grid point, so the fit is deterministic.  Every prefix replays the
    same recursion, so one pass over an ``(s, grid)`` state gives all of
    them; each element goes through the same float operations as a fit
    of that prefix alone, so the result does not depend on how many rows
    or columns are fitted together.  A length-one prefix has trend 0.
    """
    s, m = x.shape
    out_level = np.empty((s, m))
    out_trend = np.empty((s, m))
    out_level[:, 0] = x[:, 0]
    out_trend[:, 0] = 0.0
    if m == 1:
        return out_level, out_trend
    alphas, betas = np.meshgrid(_ETS_GRID, _ETS_GRID, indexing="ij")
    alphas = alphas.ravel()
    alpha_betas = alphas * betas.ravel()
    shape = (s, alphas.size)
    level = np.repeat(x[:, :1], alphas.size, axis=1)
    trend = np.repeat(x[:, 1:2] - x[:, :1], alphas.size, axis=1)
    sse = np.zeros(shape)
    predicted = np.empty(shape)
    err = np.empty(shape)
    scratch = np.empty(shape)
    rows = np.arange(s)
    for t in range(1, m):
        np.add(level, trend, out=predicted)
        np.subtract(x[:, t, None], predicted, out=err)
        np.multiply(err, err, out=scratch)
        sse += scratch
        np.multiply(alphas, err, out=scratch)
        np.add(predicted, scratch, out=level)
        np.multiply(alpha_betas, err, out=scratch)
        trend += scratch
        best = sse.argmin(axis=1)
        out_level[:, t] = level[rows, best]
        out_trend[:, t] = trend[rows, best]
    return out_level, out_trend


def _drift_every_prefix(scores, h_max):
    # The prefix ending at row i continues its last value with the average
    # step (x_i - x_0) / i; a length-one prefix has no step and stays flat.
    steps = np.arange(scores.shape[0])
    steps[0] = 1
    drift = (scores - scores[0]) / steps[:, None]
    return scores.T[..., None] + drift.T[..., None] * np.arange(1, h_max + 1)


def _ar_aic_batched(x, h_max):
    """AR-AICc forecasts of every prefix of every row of ``x``.

    ``x`` is a ``(k, n)`` stack.  Returns ``(table, order, fallback)``:
    ``table[j, i]`` holds the ``1 .. h_max`` step forecasts of
    ``x[j, : i + 1]`` as :func:`_forecast_ar_aic` defines them,
    ``order[j, i]`` the AR order AICc selected for it, and
    ``fallback[j, i]`` whether that prefix was fitted by
    :func:`_forecast_ar_aic` itself (its ``order`` is then -1).

    Every prefix's demeaned lag Gram matrix, for every candidate order
    (:func:`_ar_max_order`; the others rank last), is a difference of
    running sums of the lag products ``z_s z_{s+d}`` and of ``z_s`` (``z``
    is the row less its full mean), corrected for the prefix mean; one
    batched ``solve`` per order fits all prefixes, and one recursion over
    zero-padded coefficients forecasts them.  These sums round differently
    from a least-squares fit of each prefix, so a prefix is handed to
    :func:`_forecast_ar_aic` wherever that rounding could change the
    selected order or visibly move a forecast: when a lag Gram matrix has
    eigenvalue ratio at most ``1e-4``, a residual sum of squares is at
    most ``1e-4`` of its target sum of squares, a target sum of squares is
    at most ``1e-3`` of the raw sum of squares that the running sums
    cancel down to it, the two best AICcs lie within ``1e-6``, or a
    forecast strays from the prefix mean by more than ten times the
    prefix's largest deviation from it.
    """
    k, n = x.shape
    p_max = _AR_MAX_ORDER
    m = np.arange(1, n + 1)
    mean = np.cumsum(x, axis=1) / m
    z = x - x.mean(axis=1, keepdims=True)
    z_sum = np.zeros((k, n + 1))
    np.cumsum(z, axis=1, out=z_sum[:, 1:])
    # lag_sum[d][:, u] is the sum of z_s z_{s+d} over s < u.
    lag_sum = np.zeros((p_max + 1, k, n + 1))
    for d in range(_ar_max_order(n) + 1):
        np.cumsum(z[:, : n - d] * z[:, d:], axis=1, out=lag_sum[d, :, 1 : n + 1 - d])
    aic = np.full((k, n, p_max + 1), np.inf)
    fitted = np.zeros((p_max + 1, k, n, p_max))
    fallback = np.zeros((k, n), dtype=bool)
    for p in range(_ar_max_order(n) + 1):
        cand = p <= _ar_max_order(m)
        mc = m[cand]
        n_eff = mc - p
        mu = z_sum[:, mc] / mc
        # Demeaned products of lags a, b over the targets t = p .. m - 1.
        span = [z_sum[:, mc - a] - z_sum[:, p - a, None] for a in range(p + 1)]
        gram = np.empty((k, mc.size, p + 1, p + 1))
        for a in range(p + 1):
            for b in range(a, p + 1):
                raw = lag_sum[b - a][:, mc - b] - lag_sum[b - a][:, p - b, None]
                gram[..., a, b] = gram[..., b, a] = (
                    raw - mu * (span[a] + span[b]) + n_eff * mu * mu
                )
        yy = gram[..., 0, 0]
        rss = yy
        if p:
            lagged = gram[..., 1:, 1:]
            rhs = gram[..., 1:, 0]
            eig = np.linalg.eigvalsh(lagged)
            ill = eig[..., 0] <= 1e-4 * eig[..., -1]
            fallback[:, cand] |= ill
            lagged[ill] = np.eye(p)
            c = np.linalg.solve(lagged, rhs[..., None])[..., 0]
            fitted[p][:, cand, :p] = c
            rss = yy - np.einsum("...i,...i->...", c, rhs)
        fallback[:, cand] |= (rss <= 1e-4 * yy) | (yy <= 1e-3 * lag_sum[0][:, mc])
        aic[:, cand, p] = _aicc(rss, n_eff, p)
    order = aic.argmin(axis=2)
    two = np.partition(aic, 1, axis=2)
    # A prefix with no candidate order compares inf with inf and keeps its mean.
    with np.errstate(invalid="ignore"):
        fallback |= two[..., 1] - two[..., 0] <= 1e-6
    coef = np.take_along_axis(fitted, order[None, ..., None], axis=0)[0]

    # history[..., p_max - 1 - j] holds the demeaned value j steps before
    # the prefix end; each step appends its forecast.  A recursion that
    # overflows strays too far and falls back below.
    history = np.zeros((k, n, p_max + h_max))
    for j in range(min(p_max, n)):
        history[:, j:, p_max - 1 - j] = x[:, : n - j] - mean[:, j:]
    with np.errstate(over="ignore", invalid="ignore"):
        for h in range(h_max):
            recent = history[..., h : h + p_max][..., ::-1]
            history[..., p_max + h] = np.einsum("...i,...i->...", coef, recent)
    spread = np.maximum(
        np.maximum.accumulate(x, axis=1) - mean, mean - np.minimum.accumulate(x, axis=1)
    )
    fallback |= ~(np.abs(history[..., p_max:]).max(axis=2) <= 10.0 * spread)
    order[fallback] = -1
    table = mean[..., None] + history[..., p_max:]
    for j, i in zip(*np.nonzero(fallback)):
        table[j, i] = _forecast_ar_aic(x[j, : i + 1], h_max)
    return table, order, fallback


def _ar_aic_every_prefix(scores, h_max):
    return _ar_aic_batched(scores.T, h_max)[0]


def _ets_every_prefix(scores, h_max):
    level, trend = _fit_ets_prefixes(scores.T)
    return level[..., None] + trend[..., None] * np.arange(1, h_max + 1)


# Prefix forecast tables by method: ``table(scores, h_max)[j, i]`` holds
# the ``1 .. h_max`` step forecasts of column ``j`` of the ``(n, k)``
# ``scores`` from its first ``i + 1`` values, down to a single value,
# which every method extrapolates flat.  The drift and ETS tables equal
# their scalar fits bit for bit.  The AR-AICc table ranks the orders p
# that leave a prefix at least p + 3 targets by AICc, fitted from running
# lag sums, and hands a prefix to the scalar least-squares fit where a
# numeric guard of _ar_aic_batched fires: an ill-conditioned lag Gram
# matrix, a near-exact fit, cancellation, an AICc near-tie or a runaway
# forecast.
_PREFIX_TABLES = {
    "random_walk_drift": _drift_every_prefix,
    "ar_aic": _ar_aic_every_prefix,
    "ets_like": _ets_every_prefix,
}


@dataclass(frozen=True)
class ErrorPool:
    """In-sample forecast errors and central forecasts of every component
    of one fit.

    ``primary[h - 1]`` is an ``(n - h, r)`` array whose column ``k`` is
    the horizon-``h`` pool of primary component ``k``.
    ``primary_central[h - 1, k]`` is that component's central ``h``-step
    forecast from its whole series, so the pools and the central
    forecasts come from the same fits.  ``residual`` and
    ``residual_central`` hold the same for the residual-stage components.
    ``fit`` is the :class:`~codaboot.dfm.DfmFit` whose scores they were
    built from, so a pool cannot be assembled against another fit.
    """

    fit: DfmFit
    max_horizon: int
    primary: tuple
    residual: tuple
    primary_central: np.ndarray
    residual_central: np.ndarray


def build_error_pools(fit, max_horizon, primary_method="random_walk_drift"):
    """Error pools and central forecasts of every component of a fit.

    Each score series is forecast ``1 .. max_horizon`` steps ahead from
    every one of its prefixes, once.  For horizon ``h`` and every target
    time ``t = h+1 .. n`` the forecast from the prefix ending at
    ``t - h`` gives the realised error ``x_t - forecast``, so each pool
    has exactly ``n - h`` entries, in time order, and never looks past
    the data it forecasts.  The forecasts from the whole series are the
    central forecasts that :func:`assemble_forecast` perturbs.

    Parameters
    ----------
    fit : DfmFit
    max_horizon : int
        Pools are built for horizons ``1 .. max_horizon``, with
        ``fit.n - max_horizon >= 3``.
    primary_method : str
        One of :data:`SCORE_METHODS` for the primary scores; the residual
        scores always use ``"ar_aic"``.
        ``"random_walk_drift"`` extrapolates the endpoint with the
        average historical step and suits integrated scores;
        ``"ar_aic"`` fits an autoregression with the order (up to 5,
        leaving at least ``p + 3`` targets) chosen by AICc and reverts to
        the mean, for stationary scores; every prefix is fitted in one
        pass of :func:`_ar_aic_batched`, from running sums of lag
        products, and a prefix whose fit that rounding could change (an
        ill-conditioned or near-exact fit, a cancelled sum of squares,
        an AICc near-tie, a runaway forecast) is refitted alone, so the
        orders are the scalar ones and forecasts agree to rounding;
        ``"ets_like"`` extrapolates the level and trend of an
        additive-trend exponential smoother, every prefix fitted in one
        pass of :func:`_fit_ets_prefixes`.

    Returns
    -------
    ErrorPool
    """
    _check_method(primary_method)
    h_max = check_integer(max_horizon, "max_horizon", minimum=1)
    n = fit.n
    if n - h_max < 3:
        raise InsufficientDataError(
            f"need at least max_horizon + 3 = {h_max + 3} curves, got {n}"
        )

    def pools_for(scores, method):
        # table[j, i] holds the 1 .. h_max step forecasts of component j
        # from its first i + 1 scores; row n - 1 is the whole series.
        table = _PREFIX_TABLES[method](scores, h_max)
        errors = tuple(
            scores[h:] - table[:, : n - h, h - 1].T for h in range(1, h_max + 1)
        )
        # A copy: a view would keep the whole table alive with the pool.
        return errors, table[:, -1].T.copy()

    primary, primary_central = pools_for(fit.primary_scores, primary_method)
    residual, residual_central = pools_for(fit.residual_scores, "ar_aic")
    return ErrorPool(
        fit=fit,
        max_horizon=h_max,
        primary=primary,
        residual=residual,
        primary_central=primary_central,
        residual_central=residual_central,
    )


@dataclass(frozen=True)
class BootstrapForecast:
    """Bootstrap forecast of one death-count curve, made for either model
    by :func:`_banded_forecast`.

    ``samples`` holds the ``n_samples`` bootstrapped curves in replicate
    order, or is ``None`` when the forecast was made without keeping them;
    ``lower`` and ``upper`` map each nominal level to its pointwise
    empirical quantile bounds, taken at ``(1 - level) / 2`` and
    ``1 - (1 - level) / 2`` by type-7 interpolation, read from one sort.
    """

    horizon: int
    grid: np.ndarray
    radix: float
    point: np.ndarray
    samples: np.ndarray | None
    levels: tuple
    lower: dict
    upper: dict


def _check_levels(levels):
    out = tuple(float(l) for l in levels)
    if not out:
        raise ConfigurationError("at least one nominal level is required")
    if len(set(out)) != len(out):
        raise ConfigurationError(f"levels must be distinct, got {out}")
    for level in out:
        if not 0.0 < level < 1.0:
            raise ConfigurationError(f"levels must lie strictly in (0, 1), got {level}")
    return out


def _sorted_quantiles(samples, probs):
    """``np.quantile(samples, probs, axis=0)`` bit for bit from one sort of
    ``samples``, in place: numpy's ``"linear"`` rule (Hyndman and Fan type
    7) and its lerp."""
    samples.sort(axis=0)
    virtual = (len(samples) - 1) * np.asarray(probs, dtype=float)
    below = np.floor(virtual)
    t = (virtual - below)[:, None]
    a = samples[below.astype(np.intp)]
    c = samples[np.minimum(below + 1, len(samples) - 1).astype(np.intp)]
    diff = c - a
    bounds = a + diff * t
    np.subtract(c, diff * (1 - t), out=bounds, where=t >= 0.5)
    return bounds


def _banded_forecast(fit, horizon, clr_point, curves, levels, keep):
    """Either model's forecast at one horizon from its clr point and
    ``(n_samples, D)`` clr replicates, both mapped back to death counts (the
    replicates in place).  Every level's bounds, the type-7 quantiles at
    ``(1 - level) / 2`` and ``1 - (1 - level) / 2``, come from one sort: of
    a copy with ``keep``, so kept samples stay in replicate order, and else
    of the replicates themselves, which are then not kept."""
    samples = inverse_clr(curves, fit.grid, fit.radix, out=curves)
    alphas = [(1.0 - level) / 2.0 for level in levels]
    probs = alphas + [1.0 - a for a in alphas]
    bounds = _sorted_quantiles(samples.copy() if keep else samples, probs)
    return BootstrapForecast(
        horizon=horizon,
        grid=fit.grid,
        radix=fit.radix,
        point=inverse_clr(clr_point, fit.grid, fit.radix),
        samples=samples if keep else None,
        levels=levels,
        lower=dict(zip(levels, bounds[: len(levels)])),
        upper=dict(zip(levels, bounds[len(levels) :])),
    )


def assemble_forecast(
    error_pool, horizon, n_samples=1000, levels=(0.8, 0.95), rng_seed=0, *, workspace=None
):
    """Assemble the bootstrap forecast of the curve ``horizon`` steps ahead.

    The central score forecasts and the errors added to them both come
    from the error pool, and the curves from the fit it was built from;
    nothing is refit here.  One generator seeded from ``rng_seed`` drives
    all draws in the order documented in the module docstring, so a given
    ``(error_pool, horizon, n_samples, rng_seed)`` always yields the same
    replicates.  For a single horizon, pass
    ``build_error_pools(fit, horizon, ...)``.

    Parameters
    ----------
    error_pool : ErrorPool
        Built by :func:`build_error_pools` for horizons up to at least
        ``horizon``.
    horizon : int
        Steps ahead, at least 1.
    n_samples : int
        Number of bootstrap replicates.
    levels : iterable of float
        Nominal coverage levels, each strictly between 0 and 1.
    rng_seed : int or numpy.random.SeedSequence
    workspace : ndarray, optional
        Float ``(2, n_samples, D)`` scratch array.  The replicates are then
        built and sorted in it, and the forecast carries ``samples=None``.
        Without it they are kept, in replicate order.

    Returns
    -------
    BootstrapForecast
    """
    h = check_integer(horizon, "horizon", minimum=1)
    b = check_integer(n_samples, "n_samples", minimum=1)
    if error_pool.max_horizon < h:
        raise PoolError(
            f"error pool covers horizons up to {error_pool.max_horizon}, need {h}"
        )
    levels = _check_levels(levels)

    fit = error_pool.fit
    curves = picked = None
    if workspace is not None:
        curves, picked = _check_buffer(workspace, (2, b, fit.grid.size), "workspace")
    rng = np.random.default_rng(rng_seed)
    clr_point = fit.mean_curve.copy()
    draws = []

    groups = (
        (fit.primary_basis, error_pool.primary, error_pool.primary_central),
        (fit.residual_basis, error_pool.residual, error_pool.residual_central),
    )
    for basis, errors, central in groups:
        for k in range(basis.n_components):
            pool = errors[h - 1][:, k]
            # One bounded-integer call per component: a single call for
            # all of them would draw a different stream.
            draws.append(central[h - 1, k] + pool[rng.integers(0, pool.size, b)])
            clr_point += central[h - 1, k] * basis.functions[k]

    rows = rng.integers(0, fit.n, b)
    functions = np.concatenate((fit.primary_basis.functions, fit.residual_basis.functions))
    curves = np.matmul(np.column_stack(draws), functions, out=curves)
    curves += fit.mean_curve
    # "clip" (the rows are in range) writes into ``picked``; "raise" buffers.
    curves += np.take(fit.final_residuals, rows, axis=0, out=picked, mode="clip")

    return _banded_forecast(fit, h, clr_point, curves, levels, keep=workspace is None)


def bootstrap_forecast_path(
    fit,
    max_horizon,
    n_samples=1000,
    levels=(0.8, 0.95),
    rng_seed=0,
    primary_method="random_walk_drift",
    keep_samples=True,
):
    """Bootstrap forecasts for every horizon ``1 .. max_horizon``.

    One error pool, with the central forecasts, is built for the whole
    path and shared.  Each horizon receives its own child of
    ``rng_seed``, spawned in horizon order from a copy of it, so the path
    is reproducible as a whole and per horizon, and a ``SeedSequence``
    passed in is not advanced: the same object always gives the same path.

    With ``keep_samples=False`` all horizons share one workspace, and
    the forecasts carry ``samples=None`` (and the same bands).

    Returns
    -------
    list of BootstrapForecast
    """
    pools = build_error_pools(fit, max_horizon, primary_method=primary_method)
    b = check_integer(n_samples, "n_samples", minimum=1)
    workspace = None if keep_samples else np.empty((2, b, fit.grid.size))
    if not isinstance(rng_seed, np.random.SeedSequence):
        rng_seed = np.random.SeedSequence(rng_seed)
    root = np.random.SeedSequence(
        rng_seed.entropy, spawn_key=rng_seed.spawn_key, pool_size=rng_seed.pool_size
    )
    seeds = root.spawn(pools.max_horizon)
    return [
        assemble_forecast(pools, h, b, levels, seeds[h - 1], workspace=workspace)
        for h in range(1, pools.max_horizon + 1)
    ]


# Backtest windows, which run side by side, run on one OpenBLAS thread, so
# that no idle BLAS thread competes with them for the cores; ``cli.main``
# pins the whole run of every subcommand too.  Results then do not depend
# on ``OPENBLAS_NUM_THREADS``.


@functools.cache
def _openblas_threads():
    """``(set, get)`` thread counts of numpy's bundled OpenBLAS, else None."""
    import ctypes
    import glob

    root = os.path.dirname(np.__file__)
    paths = glob.glob(root + ".libs/*openblas*")
    paths += glob.glob(root + "/.dylibs/*openblas*")
    # Loading a library numpy has already loaded returns that library.
    for lib in map(ctypes.CDLL, paths):
        # numpy >= 2 wheels, numpy 1.2x wheels, then a plain OpenBLAS.
        for name in ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}"):
            pair = tuple(getattr(lib, name.format(f"{verb}_num_threads"), None)
                         for verb in ("set", "get"))
            if None not in pair:
                return pair
    return None


_BLAS_LOCK = threading.Lock()
_BLAS_PIN = {"depth": 0, "saved": None}


@contextlib.contextmanager
def _one_blas_thread():
    """Pin the bundled OpenBLAS, process-wide, to one thread, then restore.

    Overlapping pins share one: the first entry saves the thread count and
    the last exit restores it.
    """
    set_threads, get_threads = _openblas_threads() or (lambda n: None, lambda: 1)
    with _BLAS_LOCK:
        if _BLAS_PIN["depth"] == 0:
            _BLAS_PIN["saved"] = get_threads()
            set_threads(1)
        _BLAS_PIN["depth"] += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _BLAS_PIN["depth"] -= 1
            if _BLAS_PIN["depth"] == 0:
                set_threads(_BLAS_PIN["saved"])
