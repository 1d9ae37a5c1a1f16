"""Principal-component baseline, bootstrapped through the factor model's pools.

The model is the classic one: centre the clr matrix, take its leading
singular triplets, and call the right singular vectors the age components
and the scaled left singular vectors the period scores.  That is a factor
fit with one stage and no residual stage, so :func:`fit_lc` returns a
:class:`~codaboot.dfm.DfmFit` of that shape, and the baseline's
prediction intervals come from the factor model's bootstrap
(:func:`codaboot.bootstrap.bootstrap_forecast_path`) with the
additive-trend exponential smoother on the scores.  Each replicate is the
central score forecast, plus one resampled in-sample h-step forecast
error per score series, plus one resampled whole residual curve, so the
bands cover the new years' noise as well as the trend, as the innovation
variance of the period index does in Lee and Carter (1992).
"""

from __future__ import annotations

import numpy as np

from .coda import ClrSeries
from .dfm import DfmFit
from .errors import DomainError, RankError, check_integer
from .fts import EigenBasis
from .bootstrap import bootstrap_forecast_path


def fit_lc(series, n_components=1):
    """Fit the principal-component baseline to a clr curve series.

    The fit is a one-stage :class:`~codaboot.dfm.DfmFit`.  Its primary
    basis holds the leading right singular vectors of the centred curves,
    orthonormal under unit weights, with eigenvalues ``s**2 / n``: those
    of the sample covariance with divisor ``n``.  Its primary scores are
    the matching left singular vectors scaled by ``s``.  Each component is
    flipped, with its score column, so that its entry of largest magnitude
    is positive.  The residual stage is empty, ``final_residuals`` holds
    the tail singular triplets, and ``bandwidth`` is ``None``: the
    baseline estimates no long-run covariance.

    Parameters
    ----------
    series : ClrSeries
    n_components : int
        Number of singular triplets kept, between 1 and ``min(n, D)``.

    Returns
    -------
    DfmFit
    """
    if not isinstance(series, ClrSeries):
        raise DomainError("series must be a ClrSeries")
    k = check_integer(n_components, "n_components", RankError)
    n, d = series.values.shape
    if k < 1 or k > min(n, d):
        raise RankError(f"n_components must be in [1, {min(n, d)}], got {n_components}")
    mean_curve = series.values.mean(axis=0)
    left, singular, right = np.linalg.svd(series.values - mean_curve, full_matrices=False)
    components = right[:k]
    scores = left[:, :k] * singular[:k]
    peak = np.argmax(np.abs(components), axis=1)
    sign = np.where(components[np.arange(k), peak] < 0.0, -1.0, 1.0)
    components, scores = components * sign[:, None], scores * sign
    return DfmFit(
        years=series.years,
        grid=series.grid,
        radix=series.radix,
        mean_curve=mean_curve,
        primary_basis=EigenBasis(singular[:k] ** 2 / n, components, series.grid, np.ones(d)),
        primary_scores=scores,
        residual_basis=EigenBasis(np.empty(0), np.empty((0, d)), series.grid, np.ones(d)),
        residual_scores=np.empty((n, 0)),
        final_residuals=(series.values - mean_curve) - scores @ components,
        bandwidth=None,
    )


def lc_bootstrap_path(
    fit, max_horizon, n_samples=1000, levels=(0.8, 0.95), rng_seed=0, keep_samples=True
):
    """Bootstrap forecasts of the baseline for horizons ``1 .. max_horizon``.

    The fit goes through :func:`~codaboot.bootstrap.bootstrap_forecast_path`
    with ``primary_method="ets_like"``: its error pools hold the in-sample
    h-step errors of the smoother on every score series, and each
    replicate adds one draw from each pool to the central score forecasts
    and one resampled residual curve to the curve they give.  As for the
    factor model, each horizon draws from its own child of ``rng_seed``,
    spawned in horizon order, so the forecast for one horizon is the same
    whichever ``max_horizon >= h`` it was made under, and
    ``keep_samples=False`` gives the same bands without keeping the
    replicates.  It needs ``fit.n - max_horizon >= 3``.

    Returns
    -------
    list of BootstrapForecast
    """
    return bootstrap_forecast_path(
        fit,
        max_horizon,
        n_samples=n_samples,
        levels=levels,
        rng_seed=rng_seed,
        primary_method="ets_like",
        keep_samples=keep_samples,
    )
