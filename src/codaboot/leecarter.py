"""Principal-component baseline with a full-refit residual bootstrap.

The model is the classic one: centre the clr matrix, take its leading
singular triplets, and call the right singular vectors the age components
and the scaled left singular vectors the period scores.  Prediction
uncertainty comes from resampling the entries of the residual matrix,
adding them back onto the fitted values, refitting the whole
decomposition (mean included) on each pseudo-sample, extrapolating the
refit scores with the additive-trend exponential smoother, and reading
pointwise quantiles off the back-transformed curves.

The fit, and so the residuals and the point forecast, comes from the
SVD.  The pseudo-samples are refit in blocks from the leading eigenpairs
of their Gram matrices, one batched ``eigh`` per block, and a
pseudo-sample whose leading eigenvalues crowd is refit by the SVD
instead; every band stays within 1e-9 of the radix of refitting each
pseudo-sample by its own SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coda import ClrSeries, inverse_clr
from .errors import ConfigurationError, DomainError, RankError, check_integer
from .bootstrap import (
    _banded_forecast,
    _check_levels,
    _fit_ets_prefixes,
)

RESAMPLE_MODES = ("entries", "rows")

# Score series extrapolated per call of the ETS kernel in the replicate
# loop: enough rows to amortise the per-step overhead of the grid
# recursion while its state stays small.  Results do not depend on it.
_BLOCK_SERIES = 48

# Relative eigenvalue gap below which a replicate's Gram decomposition is
# replaced by the SVD; see :func:`_decompose_stack`.
_GRAM_GAP = 1e-8


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


def _orient(components, scores):
    """Flip each component, with its score column, so that its entry of
    largest magnitude is positive; ``components`` is ``(..., k, D)`` and
    ``scores`` ``(..., n, k)``, both changed in place."""
    peak = np.argmax(np.abs(components), axis=-1)
    flip = np.take_along_axis(components, peak[..., None], axis=-1)[..., 0] < 0.0
    sign = np.where(flip, -1.0, 1.0)
    components *= sign[..., None]
    scores *= sign[..., None, :]


def _leading_triplets(centered, n_components):
    left, singular, right = np.linalg.svd(centered, full_matrices=False)
    components = right[:n_components].copy()
    scores = left[:, :n_components] * singular[:n_components]
    _orient(components, scores)
    return components, scores


def _decompose(values, n_components):
    mean_curve = values.mean(axis=0)
    return (mean_curve, *_leading_triplets(values - mean_curve, n_components))


def _decompose_stack(stack, n_components):
    """:func:`_decompose` of every ``(n, D)`` slice of a ``(B, n, D)`` stack.

    The stack is centred in place.  Each centred slice ``C`` is decomposed
    through the eigenpairs of its ``m x m`` Gram matrix, ``m = min(n, D)``:
    ``C Cᵀ = U Λ Uᵀ`` when ``n <= D``, giving scores ``U σ`` and
    components ``Uᵀ C / σ``, and ``Cᵀ C = V Λ Vᵀ`` otherwise, giving
    components ``Vᵀ`` and scores ``C V``, with ``σ = sqrt(Λ)``; all slices
    share one batched ``eigh``.  Squaring ``C`` costs accuracy where the
    leading eigenvalues crowd, so a slice is refit by the SVD of
    :func:`_decompose`, to the bit, when two consecutive values of
    ``λ_1 >= ... >= λ_{k+1}`` (``λ_{k+1} = 0`` when ``k = m``) lie within
    ``_GRAM_GAP * λ_1`` of each other; this includes every slice with
    ``λ_k <= _GRAM_GAP * λ_1``.  Every slice's result depends on that
    slice alone.

    Returns
    -------
    means : ``(B, D)``
    components : ``(B, k, D)``
    scores : ``(B, n, k)``
    fallback : ``(B,)`` bool, the slices refit by the SVD
    """
    k = n_components
    _, n, d = stack.shape
    means = stack.mean(axis=1)
    stack -= means[:, None, :]
    wide = n <= d
    if wide:
        gram = stack @ stack.swapaxes(1, 2)
    else:
        gram = stack.swapaxes(1, 2) @ stack
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    top = eigenvectors[..., ::-1][..., :k]
    # λ_1 >= ... >= λ_{k+1}, rounding negatives and a missing λ_{k+1} as 0.
    lam = np.zeros((len(stack), k + 1))
    lam[:, : min(k + 1, gram.shape[-1])] = np.maximum(
        eigenvalues[:, ::-1][:, : k + 1], 0.0
    )
    fallback = np.any(lam[:, :-1] - lam[:, 1:] <= _GRAM_GAP * lam[:, :1], axis=1)
    if wide:
        sigma = np.sqrt(lam[:, :k])
        scores = top * sigma[:, None, :]
        # Fallback slices may have σ = 0; they are replaced below.
        with np.errstate(divide="ignore", invalid="ignore"):
            components = (top.swapaxes(1, 2) @ stack) / sigma[:, :, None]
    else:
        components = top.swapaxes(1, 2).copy()
        scores = stack @ top
    _orient(components, scores)
    for i in np.flatnonzero(fallback):
        components[i], scores[i] = _leading_triplets(stack[i], k)
    return means, components, scores, fallback


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
    path run to it.  Replicates are drawn in RNG order into blocks; each
    block is refit by :func:`_decompose_stack` (one batched Gram
    ``eigh``, with the SVD for any pseudo-sample whose leading
    eigenvalues lie within ``_GRAM_GAP * λ_1`` of each other) and its
    scores extrapolated together.  Every replicate is the same to the bit
    as when refit and extrapolated alone, so the result does not depend
    on the block, and every band is within 1e-9 of the radix of refitting
    each pseudo-sample by its own SVD.  The point forecast comes from the
    SVD fit alone and does not change.

    Returns
    -------
    list of BootstrapForecast
    """
    h_max = check_integer(max_horizon, "max_horizon")
    b = check_integer(n_samples, "n_samples")
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
    stack = np.empty((min(block, b), n, d))
    for start in range(0, b, block):
        stop = min(start + block, b)
        pseudo = stack[: stop - start]
        for row in pseudo:
            if resample == "entries":
                draws = pooled[rng.integers(0, pooled.size, (n, d))]
            else:
                draws = fit.residuals[rng.integers(0, n, n)]
            np.add(fitted, draws, out=row)
        means, components, scores, _ = _decompose_stack(pseudo, k)
        futures = _extrapolate_scores(scores, h_max)
        curves = means[:, None, :] + futures @ components
        clr_samples[:, start:stop] = curves.swapaxes(0, 1)

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
