"""Two-stage dynamic factor model for clr-transformed curves.

The first stage captures the nonstationary part of the series: the
long-run covariance of the differenced curves is eigendecomposed and the
centred original curves are projected onto its leading eigenfunctions.
What remains after removing those components is tested for serial
independence; when dependence survives (or the caller insists), a second
stage repeats the construction on the residual curves themselves, giving
a set of stationary components.  Whatever neither stage explains is kept
as the final residual curves, so the fit always reproduces the input
exactly:

    X_t = mean + primary scores . primary basis
               + residual scores . residual basis + Y_t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coda import ClrSeries
from .errors import DomainError, InsufficientDataError, RankError, check_integer
from .fts import (
    EigenBasis,
    IndependenceResult,
    difference_series,
    fpca,
    independence_test,
    long_run_covariance,
    plugin_bandwidth,
    project_scores,
)


class ComponentCounts(NamedTuple):
    """Numbers of primary and residual components for a named policy."""

    r: int
    residual: int


def component_counts(policy):
    """Resolve a component policy to explicit counts.

    Parameters
    ----------
    policy : str or int
        ``"one"`` gives one component per stage, ``"six"`` gives six per
        stage, and an explicit positive integer ``k`` gives ``k`` per
        stage.

    Returns
    -------
    ComponentCounts
    """
    if isinstance(policy, str):
        name = policy.strip().lower()
        if name == "one":
            return ComponentCounts(1, 1)
        if name == "six":
            return ComponentCounts(6, 6)
        try:
            policy = int(name)
        except ValueError:
            raise DomainError(
                f"policy must be 'one', 'six' or a positive integer, got {policy!r}"
            ) from None
    k = check_integer(policy, "policy")
    if k < 1:
        raise DomainError(f"explicit component count must be positive, got {k}")
    return ComponentCounts(k, k)


@dataclass(frozen=True)
class DfmFit:
    """Fitted two-stage factor decomposition of a curve time series.

    ``final_residuals`` holds whatever the two stages left unexplained;
    adding the three model terms and the residuals back together
    reproduces the input curves exactly (see :meth:`reconstruction`).
    When the residual stage did not run, ``residual_basis`` is empty and
    ``final_residuals`` equals the first-stage remainder.
    """

    years: np.ndarray
    grid: np.ndarray
    radix: float
    mean_curve: np.ndarray
    primary_basis: EigenBasis
    primary_scores: np.ndarray
    residual_basis: EigenBasis
    residual_scores: np.ndarray
    final_residuals: np.ndarray
    independence: IndependenceResult
    bandwidth: float
    residual_stage_ran: bool

    @property
    def n(self) -> int:
        return self.years.size

    @property
    def n_primary(self) -> int:
        return self.primary_basis.n_components

    @property
    def n_residual(self) -> int:
        return self.residual_basis.n_components

    @property
    def total_components(self) -> int:
        return self.n_primary + self.n_residual

    def reconstruction(self):
        """Curves implied by the fit; equals the input series exactly."""
        values = (
            self.mean_curve
            + self.primary_scores @ self.primary_basis.functions
            + self.final_residuals
        )
        if self.n_residual:
            values = values + self.residual_scores @ self.residual_basis.functions
        return values


def fit_dfm(
    series,
    n_primary,
    n_residual,
    bandwidth=None,
    force_residual_stage=False,
    independence_lags=5,
    independence_dim=3,
    independence_level=0.05,
):
    """Fit the two-stage factor model to a clr curve series.

    Parameters
    ----------
    series : ClrSeries
        At least 10 curves.
    n_primary : int
        Components extracted from the long-run covariance of the
        differenced series.
    n_residual : int
        Components available to the residual stage; the stage only runs
        when the first-stage residuals fail the independence test, unless
        ``force_residual_stage`` is set.
    bandwidth : float, optional
        Long-run covariance bandwidth for the first stage; defaults to
        the plug-in rule on the differenced series.  The residual stage
        always uses the plug-in rule on its own input.
    force_residual_stage : bool
        Run the residual stage whenever ``n_residual > 0``, regardless of
        the test outcome.  Fixed-count experiments use this so their
        component counts do not depend on a test decision.
    independence_lags, independence_dim, independence_level :
        Passed to the serial-independence diagnostic on the first-stage
        residuals.

    Returns
    -------
    DfmFit
    """
    if not isinstance(series, ClrSeries):
        raise DomainError("series must be a ClrSeries")
    n, d = series.values.shape
    if n < 10:
        raise InsufficientDataError(f"need at least 10 curves, got {n}")
    r = check_integer(n_primary, "n_primary")
    q = check_integer(n_residual, "n_residual")
    if r < 1:
        raise DomainError(f"n_primary must be at least 1, got {n_primary}")
    if q < 0:
        raise DomainError(f"n_residual must be nonnegative, got {n_residual}")
    if r > d or q > d:
        raise RankError(f"component counts must not exceed the grid size {d}")

    differenced = difference_series(series)
    h = float(bandwidth) if bandwidth is not None else plugin_bandwidth(differenced)
    long_run = long_run_covariance(differenced, bandwidth=h)
    primary_basis = fpca(long_run, r)

    mean_curve = series.values.mean(axis=0)
    centered = series.values - mean_curve
    primary_scores = project_scores(centered, primary_basis)
    first_residuals = centered - primary_scores @ primary_basis.functions

    independence = independence_test(
        first_residuals,
        lag_count=independence_lags,
        projection_dim=independence_dim,
        grid=series.grid,
    )

    run_stage = q > 0 and (force_residual_stage or independence.dependent(independence_level))
    if run_stage:
        residual_long_run = long_run_covariance(first_residuals, grid=series.grid)
        residual_basis = fpca(residual_long_run, q)
        residual_scores = project_scores(first_residuals, residual_basis)
        final_residuals = first_residuals - residual_scores @ residual_basis.functions
    else:
        residual_basis = EigenBasis(
            eigenvalues=np.empty(0),
            functions=np.empty((0, d)),
            grid=series.grid,
            weights=series.weights,
        )
        residual_scores = np.empty((n, 0))
        final_residuals = first_residuals

    return DfmFit(
        years=series.years,
        grid=series.grid,
        radix=series.radix,
        mean_curve=mean_curve,
        primary_basis=primary_basis,
        primary_scores=primary_scores,
        residual_basis=residual_basis,
        residual_scores=residual_scores,
        final_residuals=final_residuals,
        independence=independence,
        bandwidth=h,
        residual_stage_ran=run_stage,
    )
