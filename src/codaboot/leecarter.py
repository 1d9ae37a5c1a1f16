"""Principal-component baseline, bootstrapped through the factor model's pools.

The model is the classic one: centre the clr matrix, take its leading
singular triplets, and call the right singular vectors the age components
and the scaled left singular vectors the period scores.  That is a factor
fit with one stage and no residual stage, so the baseline's prediction
intervals come from the factor model's bootstrap
(:func:`codaboot.bootstrap.bootstrap_forecast_path`) with the
additive-trend exponential smoother on the scores.  Each replicate is the
central score forecast, plus one resampled in-sample h-step forecast
error per score series, plus one resampled whole residual curve, so the
bands cover the new years' noise as well as the trend, as the innovation
variance of the period index does in Lee and Carter (1992).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coda import ClrSeries
from .errors import DomainError, RankError, check_integer
from .bootstrap import bootstrap_forecast_path


class _Basis(NamedTuple):
    """The two fields of a basis that the bootstrap reads."""

    functions: np.ndarray
    n_components: int


@dataclass(frozen=True)
class LcFit:
    """Truncated singular-value decomposition of a centred clr matrix.

    ``mean_curve + scores @ components + residuals`` reproduces the
    input curves exactly.  Components are rows of ``components``,
    oriented so each one's entry of largest magnitude is positive.  The
    fit also reads as a factor fit whose residual stage is empty, through
    the properties that :func:`~codaboot.bootstrap.build_error_pools` and
    :func:`~codaboot.bootstrap.assemble_forecast` read.
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

    @property
    def primary_basis(self):
        return _Basis(self.components, self.n_components)

    @property
    def primary_scores(self):
        return self.scores

    @property
    def residual_basis(self):
        return _Basis(np.empty((0, self.grid.size)), 0)

    @property
    def residual_scores(self):
        return np.empty((self.n, 0))

    @property
    def final_residuals(self):
        return self.residuals

    def reconstruction(self):
        return self.mean_curve + self.scores @ self.components + self.residuals


def _decompose(values, n_components):
    mean_curve = values.mean(axis=0)
    left, singular, right = np.linalg.svd(values - mean_curve, full_matrices=False)
    components = right[:n_components].copy()
    scores = left[:, :n_components] * singular[:n_components]
    # Flip each component, with its score column, so that its entry of
    # largest magnitude is positive.
    peak = np.argmax(np.abs(components), axis=1)
    sign = np.where(components[np.arange(n_components), peak] < 0.0, -1.0, 1.0)
    return mean_curve, components * sign[:, None], scores * sign


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
    k = check_integer(n_components, "n_components", RankError)
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
