"""Principal-component baseline with a full-refit residual bootstrap.

The model is the classic one: centre the clr matrix, take its leading
singular triplets, and call the right singular vectors the age components
and the scaled left singular vectors the period scores.  Prediction
uncertainty comes from resampling the entries of the residual matrix,
adding them back onto the fitted values, refitting the whole
decomposition (mean included) on each pseudo-sample, extrapolating the
refit scores with the additive-trend exponential smoother, and reading
pointwise quantiles off the back-transformed curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coda import ClrSeries, inverse_clr
from .errors import ConfigurationError, DomainError, RankError
from .bootstrap import _banded_forecast, _check_levels, _fit_ets_prefixes

RESAMPLE_MODES = ("entries", "rows")

# Score series extrapolated per call of the ETS kernel in the replicate
# loop: enough rows to amortise the per-step overhead of the grid
# recursion while its state stays small.  Results do not depend on it.
_BLOCK_SERIES = 48


@dataclass(frozen=True)
class LcFit:
    """Truncated singular-value decomposition of a centred clr matrix.

    ``mean_curve + scores @ components + residuals`` reproduces the
    input curves exactly.  Components are rows of ``components``,
    oriented so each one's entry of largest magnitude is positive.
    """

    years: np.ndarray
    grid: np.ndarray
    radix: float
    mean_curve: np.ndarray
    components: np.ndarray
    scores: np.ndarray
    residuals: np.ndarray

    @property
    def n(self) -> int:
        return self.years.size

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    def reconstruction(self):
        return self.mean_curve + self.scores @ self.components + self.residuals


def _decompose(values, n_components):
    mean_curve = values.mean(axis=0)
    centered = values - mean_curve
    left, singular, right = np.linalg.svd(centered, full_matrices=False)
    components = right[:n_components].copy()
    scores = left[:, :n_components] * singular[:n_components]
    for k in range(n_components):
        peak = np.argmax(np.abs(components[k]))
        if components[k, peak] < 0.0:
            components[k] = -components[k]
            scores[:, k] = -scores[:, k]
    return mean_curve, components, scores


def fit_lc(series, n_components=1):
    """Fit the principal-component baseline to a clr curve series.

    Parameters
    ----------
    series : ClrSeries
    n_components : int
        Number of singular triplets kept, between 1 and ``min(n, D)``.

    Returns
    -------
    LcFit
    """
    if not isinstance(series, ClrSeries):
        raise DomainError("series must be a ClrSeries")
    k = int(n_components)
    limit = min(series.values.shape)
    if k < 1 or k > limit:
        raise RankError(f"n_components must be in [1, {limit}], got {n_components}")
    mean_curve, components, scores = _decompose(series.values, k)
    return LcFit(
        years=series.years,
        grid=series.grid,
        radix=series.radix,
        mean_curve=mean_curve,
        components=components,
        scores=scores,
        residuals=(series.values - mean_curve) - scores @ components,
    )


def _extrapolate_scores(scores, horizons):
    """ETS forecasts ``1 .. horizons`` steps ahead of every score series.

    ``scores`` is a ``(..., n, k)`` stack of score matrices, one series
    per column; the result is the ``(..., horizons, k)`` stack of their
    forecasts.  All series of the stack are fitted in one call of
    :func:`_fit_ets_prefixes`, and each forecast is the same to the bit
    as extrapolating its series alone, so it does not depend on which
    stack the series came in.
    """
    *lead, n, k = scores.shape
    level, trend = _fit_ets_prefixes(np.swapaxes(scores, -1, -2).reshape(-1, n))
    last = (*lead, 1, k)
    steps = np.arange(1, horizons + 1)[:, None]
    return level[:, -1].reshape(last) + trend[:, -1].reshape(last) * steps


def lc_bootstrap_path(
    fit,
    max_horizon,
    n_samples=1000,
    levels=(0.8, 0.95),
    rng_seed=0,
    resample="entries",
):
    """Bootstrap forecasts of the baseline for horizons ``1 .. max_horizon``.

    Each replicate, in order: resample the residual matrix (entrywise
    i.i.d. from the pooled entries by default, or whole rows with
    ``resample="rows"``), add it to the fitted values, refit the
    decomposition on the pseudo-sample, extrapolate every refit score
    series, and rebuild the forecast curves.  One generator seeded from
    ``rng_seed`` is consumed replicate by replicate, and the residual
    draw does not depend on the horizon, so the replicates for horizon
    ``h`` are identical whichever ``max_horizon >= h`` they were produced
    under; the forecast for one horizon alone is the last element of the
    path run to it.  Replicates are drawn and refit in RNG order and
    their scores extrapolated together in blocks; every replicate is the
    same to the bit as when extrapolated alone, so the result does not
    depend on the block.

    Returns
    -------
    list of BootstrapForecast
    """
    h_max = int(max_horizon)
    b = int(n_samples)
    if h_max < 1:
        raise DomainError(f"max_horizon must be at least 1, got {max_horizon}")
    if b < 1:
        raise DomainError(f"n_samples must be at least 1, got {n_samples}")
    if resample not in RESAMPLE_MODES:
        raise ConfigurationError(
            f"resample must be one of {RESAMPLE_MODES}, got {resample!r}"
        )
    levels = _check_levels(levels)

    n, d = fit.residuals.shape
    k = fit.n_components
    fitted = fit.mean_curve + fit.scores @ fit.components
    pooled = fit.residuals.ravel()
    rng = np.random.default_rng(rng_seed)

    clr_samples = np.empty((h_max, b, d))
    block = max(1, _BLOCK_SERIES // k)
    for start in range(0, b, block):
        reps = range(start, min(start + block, b))
        refits = []
        for _ in reps:
            if resample == "entries":
                draws = pooled[rng.integers(0, pooled.size, (n, d))]
            else:
                draws = fit.residuals[rng.integers(0, n, n)]
            refits.append(_decompose(fitted + draws, k))
        futures = _extrapolate_scores(np.stack([r[2] for r in refits]), h_max)
        for rep, (mean_curve, components, _), future in zip(reps, refits, futures):
            clr_samples[:, rep, :] = mean_curve + future @ components

    point_scores = _extrapolate_scores(fit.scores, h_max)
    clr_points = fit.mean_curve + point_scores @ fit.components

    return [
        _banded_forecast(
            fit,
            h,
            inverse_clr(clr_points[h - 1], fit.grid, fit.radix),
            inverse_clr(clr_samples[h - 1], fit.grid, fit.radix),
            levels,
            rng_seed,
        )
        for h in range(1, h_max + 1)
    ]
