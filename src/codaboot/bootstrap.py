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
residual curve, assembles the clr curve, and maps it back to death
counts.  Pointwise empirical quantiles of the replicates give the
prediction bands.

All randomness in one assembly flows from a single seeded generator in a
fixed order: one block of pool draws per primary component (in component
order), one per residual component, then the residual-curve row indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coda import inverse_clr
from .errors import (
    ConfigurationError,
    DomainError,
    InsufficientDataError,
    PoolError,
    check_integer,
)

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


def _fit_ar_aic(x):
    """Select an AR order by AIC and return (mean, coefficients)."""
    m = x.size
    mean = x.mean()
    xd = x - mean
    max_order = min(_AR_MAX_ORDER, m - 2)
    if max_order < 1:
        return mean, np.empty(0)
    best_aic = np.inf
    best_coef = np.empty(0)
    for order in range(0, max_order + 1):
        target = xd[order:]
        n_eff = target.size
        if order == 0:
            rss = float(target @ target)
            coef = np.empty(0)
        else:
            lagged = np.column_stack([xd[order - j - 1 : m - j - 1] for j in range(order)])
            coef, *_ = np.linalg.lstsq(lagged, target, rcond=None)
            resid = target - lagged @ coef
            rss = float(resid @ resid)
        sigma2 = max(rss / n_eff, 1e-300)
        aic = n_eff * np.log(sigma2) + 2.0 * (order + 1)
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
    """AR-AIC forecasts of every prefix of every row of ``x``.

    ``x`` is a ``(k, n)`` stack.  Returns ``(table, order, fallback)``:
    ``table[j, i]`` holds the ``1 .. h_max`` step forecasts of
    ``x[j, : i + 1]`` as :func:`_forecast_ar_aic` defines them,
    ``order[j, i]`` the AR order AIC selected for it, and
    ``fallback[j, i]`` whether that prefix was fitted by
    :func:`_forecast_ar_aic` itself (its ``order`` is then -1).

    Every prefix's demeaned lag Gram matrix, for every order, is a
    difference of running sums of the lag products ``z_s z_{s+d}`` and of
    ``z_s`` (``z`` is the row less its full mean), corrected for the
    prefix mean; one batched ``solve`` per order fits all prefixes, and
    one recursion over zero-padded coefficients forecasts them.  These
    sums round differently from a least-squares fit of each prefix, so a
    prefix is handed to :func:`_forecast_ar_aic` wherever that rounding
    could change the selected order or visibly move a forecast: when
    some candidate order has fewer than ``p + 3`` targets, a lag Gram
    matrix has eigenvalue ratio at most ``1e-4``, a residual sum of
    squares is at most ``1e-4`` of its target sum of squares, a target
    sum of squares is at most ``1e-3`` of the raw sum of squares that the
    running sums cancel down to it, the two best AICs lie within
    ``1e-6``, or a forecast strays from the prefix mean by more than ten
    times the prefix's largest deviation from it.
    """
    k, n = x.shape
    p_max = _AR_MAX_ORDER
    mean = np.cumsum(x, axis=1) / np.arange(1, n + 1)
    coef = np.zeros((k, n, p_max))
    order = np.full((k, n), -1)
    fallback = np.ones((k, n), dtype=bool)
    # Prefixes shorter than 2p + 3 leave order p fewer than p + 3 targets.
    m = np.arange(2 * p_max + 3, n + 1)
    if m.size:
        z = x - x.mean(axis=1, keepdims=True)
        z_sum = np.zeros((k, n + 1))
        np.cumsum(z, axis=1, out=z_sum[:, 1:])
        # lag_sum[d][:, u] is the sum of z_s z_{s+d} over s < u.
        lag_sum = np.zeros((p_max + 1, k, n + 1))
        for d in range(p_max + 1):
            np.cumsum(z[:, : n - d] * z[:, d:], axis=1, out=lag_sum[d, :, 1 : n + 1 - d])
        mu = z_sum[:, m] / m
        energy = lag_sum[0][:, m]
        aic = np.empty((k, m.size, p_max + 1))
        fitted = np.zeros((p_max + 1, k, m.size, p_max))
        suspect = np.zeros((k, m.size), dtype=bool)
        for p in range(p_max + 1):
            n_eff = m - p
            # Demeaned products of lags a, b over the targets t = p .. m - 1.
            span = [z_sum[:, m - a] - z_sum[:, p - a, None] for a in range(p + 1)]
            gram = np.empty((k, m.size, p + 1, p + 1))
            for a in range(p + 1):
                for b in range(a, p + 1):
                    raw = lag_sum[b - a][:, m - b] - lag_sum[b - a][:, p - b, None]
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
                suspect |= ill
                lagged[ill] = np.eye(p)
                c = np.linalg.solve(lagged, rhs[..., None])[..., 0]
                fitted[p, ..., :p] = c
                rss = yy - np.einsum("...i,...i->...", c, rhs)
            suspect |= (rss <= 1e-4 * yy) | (yy <= 1e-3 * energy)
            sigma2 = np.maximum(rss / n_eff, 1e-300)
            aic[..., p] = n_eff * np.log(sigma2) + 2.0 * (p + 1)
        best = aic.argmin(axis=2)
        two = np.partition(aic, 1, axis=2)
        suspect |= two[..., 1] - two[..., 0] <= 1e-6
        best[suspect] = 0
        coef[:, m - 1] = np.take_along_axis(fitted, best[None, ..., None], axis=0)[0]
        order[:, m - 1] = best
        fallback[:, m - 1] = suspect

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
# their scalar fits bit for bit.  The AR-AIC table solves every prefix's
# normal equations from running lag sums and hands a prefix to the scalar
# least-squares fit when some candidate order has fewer than p + 3
# targets, a lag Gram matrix has eigenvalue ratio at most 1e-4, a residual
# sum of squares is at most 1e-4 of its target's, a target sum of squares
# is at most 1e-3 of the raw sum it was cancelled from, the two best AICs
# lie within 1e-6, or a forecast strays from the prefix mean by more than
# ten times the prefix's largest deviation from it.
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

    fit: object
    max_horizon: int
    primary: tuple
    residual: tuple
    primary_central: np.ndarray
    residual_central: np.ndarray


def build_error_pools(
    fit, max_horizon, primary_method="random_walk_drift", residual_method="ar_aic"
):
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
    primary_method, residual_method : str
        One of :data:`SCORE_METHODS` for each score group.
        ``"random_walk_drift"`` extrapolates the endpoint with the
        average historical step and suits integrated scores;
        ``"ar_aic"`` fits an autoregression with the order (up to 5)
        chosen by AIC and reverts to the mean, for stationary scores;
        every prefix is fitted in one pass of :func:`_ar_aic_batched`,
        from running sums of lag products, and a prefix whose fit that
        rounding could change (a short prefix, an ill-conditioned or
        near-exact fit, an AIC near-tie, a runaway forecast) is refitted
        alone by least squares, so the selected orders are the scalar
        ones and the forecasts agree with them to rounding;
        ``"ets_like"`` extrapolates the level and trend of an
        additive-trend exponential smoother, every prefix fitted in one
        pass of :func:`_fit_ets_prefixes`.

    Returns
    -------
    ErrorPool
    """
    _check_method(primary_method)
    _check_method(residual_method)
    h_max = check_integer(max_horizon, "max_horizon")
    n = fit.n
    if h_max < 1:
        raise DomainError(f"max_horizon must be at least 1, got {max_horizon}")
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
        return errors, table[:, -1].T

    primary, primary_central = pools_for(fit.primary_scores, primary_method)
    residual, residual_central = pools_for(fit.residual_scores, residual_method)
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
    """Bootstrap forecast of one death-count curve.

    ``samples`` holds the ``n_samples`` bootstrapped curves; ``lower``
    and ``upper`` map each nominal level to its pointwise empirical
    quantile bounds, taken at ``(1 - level) / 2`` and
    ``1 - (1 - level) / 2`` with linear interpolation.
    """

    horizon: int
    grid: np.ndarray
    radix: float
    point: np.ndarray
    samples: np.ndarray
    levels: tuple
    lower: dict
    upper: dict
    rng_seed: object = None


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


def _banded_forecast(fit, horizon, point, samples, levels, rng_seed):
    """Wrap samples as a forecast whose bounds, for every level, are the
    pointwise quantiles at ``(1 - level) / 2`` and ``1 - (1 - level) / 2``,
    all taken in one pass over the samples."""
    alphas = [(1.0 - level) / 2.0 for level in levels]
    bounds = np.quantile(samples, alphas + [1.0 - a for a in alphas], axis=0)
    return BootstrapForecast(
        horizon=horizon,
        grid=fit.grid,
        radix=fit.radix,
        point=point,
        samples=samples,
        levels=levels,
        lower=dict(zip(levels, bounds[: len(levels)])),
        upper=dict(zip(levels, bounds[len(levels) :])),
        rng_seed=rng_seed,
    )


def assemble_forecast(
    error_pool, horizon, n_samples=1000, levels=(0.8, 0.95), rng_seed=0
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

    Returns
    -------
    BootstrapForecast
    """
    h = check_integer(horizon, "horizon")
    b = check_integer(n_samples, "n_samples")
    if h < 1:
        raise DomainError(f"horizon must be at least 1, got {horizon}")
    if b < 1:
        raise DomainError(f"n_samples must be at least 1, got {n_samples}")
    if error_pool.max_horizon < h:
        raise PoolError(
            f"error pool covers horizons up to {error_pool.max_horizon}, need {h}"
        )
    levels = _check_levels(levels)

    fit = error_pool.fit
    rng = np.random.default_rng(rng_seed)
    clr_point = fit.mean_curve.copy()
    clr_samples = np.tile(fit.mean_curve, (b, 1))

    groups = (
        (fit.primary_basis, error_pool.primary, error_pool.primary_central),
        (fit.residual_basis, error_pool.residual, error_pool.residual_central),
    )
    for basis, errors, central in groups:
        for k in range(basis.n_components):
            pool = errors[h - 1][:, k]
            draws = central[h - 1, k] + pool[rng.integers(0, pool.size, b)]
            clr_point += central[h - 1, k] * basis.functions[k]
            clr_samples += np.outer(draws, basis.functions[k])

    rows = rng.integers(0, fit.n, b)
    clr_samples += fit.final_residuals[rows]

    point = inverse_clr(clr_point, fit.grid, fit.radix)
    samples = inverse_clr(clr_samples, fit.grid, fit.radix)
    return _banded_forecast(fit, h, point, samples, levels, rng_seed)


def bootstrap_forecast_path(
    fit,
    max_horizon,
    n_samples=1000,
    levels=(0.8, 0.95),
    rng_seed=0,
    primary_method="random_walk_drift",
    residual_method="ar_aic",
):
    """Bootstrap forecasts for every horizon ``1 .. max_horizon``.

    One error pool, with the central forecasts, is built for the whole
    path and shared.  Each horizon receives its own child of
    ``rng_seed``, spawned in horizon order, so the path is reproducible
    as a whole and per horizon.

    Returns
    -------
    list of BootstrapForecast
    """
    pools = build_error_pools(
        fit, max_horizon, primary_method=primary_method, residual_method=residual_method
    )
    if isinstance(rng_seed, np.random.SeedSequence):
        root = rng_seed
    else:
        root = np.random.SeedSequence(rng_seed)
    seeds = root.spawn(pools.max_horizon)
    return [
        assemble_forecast(
            pools, horizon=h, n_samples=n_samples, levels=levels, rng_seed=seeds[h - 1]
        )
        for h in range(1, pools.max_horizon + 1)
    ]
