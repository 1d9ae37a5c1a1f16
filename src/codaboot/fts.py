"""Functional time-series numerics shared by the factor models.

Everything here treats a curve as a vector sampled on a common age grid
and replaces integrals by trapezoid quadrature on that grid.  The module
provides the Bartlett-kernel long-run covariance estimator, functional
principal components of a covariance surface, score projections, and two
diagnostics: a permutation test of trend stationarity in the KPSS family
and a portmanteau test of serial independence.  One lag product, with
divisor ``m`` at every lag, serves the long-run covariance surface, the
long-run variance of the stationarity statistic (its diagonal alone) and
the lag covariances of the portmanteau scores.  The portmanteau p-value
is the chi-square upper tail, which for the test's integer degrees of
freedom has a finite closed form (Abramowitz and Stegun 26.4.4-26.4.5)
evaluated here with the standard library alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coda import ClrSeries, trapezoid_weights
from .errors import (
    DegenerateInputError,
    DomainError,
    InsufficientDataError,
    RankError,
    ShapeError,
    check_integer,
)


@dataclass(frozen=True)
class CovSurface:
    """A covariance-like surface sampled on a square grid.

    Lag-zero and long-run covariance surfaces are symmetric; a lag
    covariance at nonzero lag is stored as-is, without symmetrisation,
    because the two arguments play different roles.
    """

    grid: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ShapeError(f"surface must be square, got {values.shape}")
        if values.shape[0] != grid.size or weights.size != grid.size:
            raise ShapeError("surface, grid and weights sizes must agree")
        if not np.all(np.isfinite(values)):
            raise DomainError("surface values must be finite")
        if np.any(weights <= 0.0):
            raise DomainError("quadrature weights must be positive")


@dataclass(frozen=True)
class EigenBasis:
    """Leading eigenpairs of a covariance surface.

    Eigenvalues are nonnegative and descending; eigenfunctions are rows of
    ``functions`` and orthonormal under the quadrature inner product
    ``<f, g> = sum_u w_u f(u) g(u)``.  Each eigenfunction is oriented so
    that its entry of largest magnitude is positive.
    """

    eigenvalues: np.ndarray
    functions: np.ndarray
    grid: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.eigenvalues, dtype=float)
        functions = np.asarray(self.functions, dtype=float)
        grid = np.asarray(self.grid, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "eigenvalues", values)
        object.__setattr__(self, "functions", functions)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "weights", weights)
        if functions.ndim != 2 or functions.shape != (values.size, grid.size):
            raise ShapeError(
                f"functions must have shape {(values.size, grid.size)}, got {functions.shape}"
            )
        if np.any(values < 0.0):
            raise DomainError("eigenvalues must be nonnegative")
        if values.size:
            if np.any(np.diff(values) > 1e-10 * max(1.0, values[0])):
                raise DomainError("eigenvalues must be descending")
            gram = (functions * weights) @ functions.T
            if np.max(np.abs(gram - np.eye(values.size))) > 1e-8:
                raise DomainError(
                    "eigenfunctions must be orthonormal under the quadrature"
                )

    @property
    def n_components(self) -> int:
        return self.eigenvalues.size


def _series_values(series, grid):
    """Accept a ClrSeries or a bare (n, D) array with an explicit grid."""
    if isinstance(series, ClrSeries):
        return series.values, series.grid
    values = np.atleast_2d(np.asarray(series, dtype=float))
    if grid is None:
        grid = np.arange(values.shape[1], dtype=float)
    else:
        grid = np.asarray(grid, dtype=float)
    if grid.size != values.shape[1]:
        raise ShapeError("grid length must match the number of curve points")
    return values, grid


def difference_series(series):
    """First differences of a curve time series.

    Row ``s`` of the output is row ``s + 1`` minus row ``s`` of the input,
    labelled with the later year.
    """
    if series.n < 2:
        raise InsufficientDataError("need at least two curves to difference")
    return ClrSeries(
        years=series.years[1:],
        grid=series.grid,
        values=np.diff(series.values, axis=0),
        radix=series.radix,
    )


def _lag_product(centered, lag, diagonal=False):
    # (1/m) sum_{s=1}^{m-lag} x_s x_{s+lag}^T over the m rows of a centred
    # sequence, divisor m at every lag; only its diagonal when asked.
    m = centered.shape[0]
    head, tail = centered[: m - lag], centered[lag:]
    if diagonal:
        return np.einsum("si,si->i", head, tail) / m
    return head.T @ tail / m


def _bartlett_sum(centered, h, diagonal=False):
    # sum_l W(l / h) gamma_l over l = -(m-1) .. m-1, with gamma_{-l} the
    # transpose of gamma_l (a no-op on the diagonal); the kernel is zero
    # from |l| >= h on.
    total = _lag_product(centered, 0, diagonal)
    for lag in range(1, centered.shape[0]):
        weight = bartlett_weight(lag / h)
        if weight == 0.0:
            break
        gamma = _lag_product(centered, lag, diagonal)
        total = total + weight * (gamma + gamma.T)
    return total


def bartlett_weight(x):
    """Bartlett kernel ``max(0, 1 - |x|)``."""
    return max(0.0, 1.0 - abs(float(x)))


def plugin_bandwidth(series, grid=None):
    """Deterministic bandwidth rule for the long-run covariance estimator.

    Returns the cube root of the series length, rounded to the nearest
    integer and floored at one.  The rule is weakly increasing in the
    length and needs no tuning input, which keeps every downstream result
    reproducible from the data alone.
    """
    values, _ = _series_values(series, grid)
    m = values.shape[0]
    if m < 4:
        raise InsufficientDataError(f"need at least 4 curves, got {m}")
    return float(max(1.0, np.floor(np.cbrt(m) + 0.5)))


def long_run_covariance(series, bandwidth=None, grid=None):
    """Kernel long-run covariance surface of a curve sequence.

    Computes ``sum_l W(l / h) * gamma_l(u, v)`` over all lags
    ``l = -(m-1) .. m-1`` with the Bartlett kernel ``W``, so only lags
    with ``abs(l) < h`` contribute.  The result is symmetrised and
    projected onto the nonnegative-definite cone by clipping negative
    eigenvalues to zero.

    Parameters
    ----------
    series : ClrSeries or array_like
        Curve sequence of length at least 2.
    bandwidth : float, optional
        Kernel bandwidth ``h``; defaults to :func:`plugin_bandwidth`.

    Returns
    -------
    CovSurface
    """
    values, g = _series_values(series, grid)
    m = values.shape[0]
    if m < 2:
        raise InsufficientDataError("need at least two curves")
    if bandwidth is None:
        bandwidth = plugin_bandwidth(values, grid=g)
    h = float(bandwidth)
    if not np.isfinite(h) or h <= 0.0:
        raise DomainError(f"bandwidth must be positive, got {bandwidth}")

    cov = _bartlett_sum(values - values.mean(axis=0), h)
    cov = (cov + cov.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[0] < 0.0:
        cov = (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T
        cov = (cov + cov.T) / 2.0
    return CovSurface(grid=g, values=cov, weights=trapezoid_weights(g))


def fpca(surface, n_components):
    """Leading eigenpairs of the integral operator of a covariance surface.

    The operator ``f -> integral c(., v) f(v) dv`` is discretised with the
    surface's quadrature weights; its eigenproblem is solved through the
    symmetric matrix ``W^{1/2} C W^{1/2}`` so that the returned
    eigenfunctions are orthonormal under the quadrature inner product.
    Each eigenfunction is oriented so its entry of largest magnitude is
    positive, which fixes the sign deterministically.

    Parameters
    ----------
    surface : CovSurface
        Must be symmetric.
    n_components : int
        Number of leading eigenpairs, between 1 and the grid size.

    Returns
    -------
    EigenBasis
    """
    values = surface.values
    d = values.shape[0]
    scale = max(1.0, float(np.max(np.abs(values))))
    if np.max(np.abs(values - values.T)) > 1e-10 * scale:
        raise DomainError("surface must be symmetric")
    k = check_integer(n_components, "n_components", RankError)
    if k < 1 or k > d:
        raise RankError(f"n_components must be in [1, {d}], got {n_components}")

    root_w = np.sqrt(surface.weights)
    sym = root_w[:, None] * values * root_w[None, :]
    sym = (sym + sym.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    order = np.argsort(eigvals)[::-1][:k]
    top_vals = np.maximum(eigvals[order], 0.0)
    functions = (eigvecs[:, order] / root_w[:, None]).T
    for j in range(k):
        peak = np.argmax(np.abs(functions[j]))
        if functions[j, peak] < 0.0:
            functions[j] = -functions[j]
    return EigenBasis(
        eigenvalues=top_vals,
        functions=functions,
        grid=surface.grid,
        weights=surface.weights,
    )


def project_scores(values, basis):
    """Quadrature inner products of curves with basis functions.

    Parameters
    ----------
    values : array_like
        Curves of shape ``(n, D)`` on the basis grid, already centred by
        the caller if centred scores are wanted.
    basis : EigenBasis

    Returns
    -------
    ndarray
        Scores of shape ``(n, K)``; entry ``(t, k)`` is
        ``<values_t, basis_k>``.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[-1] != basis.grid.size:
        raise ShapeError(
            f"curves have {values.shape[-1]} points, the basis grid {basis.grid.size}"
        )
    return values @ (basis.functions * basis.weights).T


def _detrended(values):
    # OLS residuals of each age against an intercept and linear time trend.
    n = values.shape[0]
    design = np.column_stack([np.ones(n), np.arange(1.0, n + 1.0)])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    return values - design @ coef


def _kpss_from_values(values, weights, bandwidth):
    n = values.shape[0]
    resid = _detrended(values)
    partial = np.cumsum(resid, axis=0)
    numerator = float((partial**2 @ weights).sum()) / n**2
    # Only the diagonal of the residuals' long-run covariance is read.  The
    # Bartlett estimate is positive semi-definite (Newey and West, 1987),
    # so the eigenvalue clipping in long_run_covariance moves that
    # diagonal at rounding level only and is skipped here.
    lrv = _bartlett_sum(resid - resid.mean(axis=0), bandwidth, diagonal=True)
    denominator = float(lrv @ weights)
    if denominator <= 1e-14 * max(1.0, numerator):
        return 0.0 if numerator <= 1e-14 else np.inf
    return numerator / denominator


def functional_kpss_pvalue(series, n_permutations=199, seed=0):
    """Stationarity statistic of a curve series and its permutation p-value.

    Each age is demeaned and detrended against a linear time trend; the
    statistic is the quadrature integral of the squared partial-sum
    process of the residual curves, scaled by ``n^-2`` and divided by the
    total long-run variance of the residuals, the quadrature integral of
    the diagonal of their :func:`long_run_covariance` at the plug-in
    bandwidth.  Values stay moderate for trend-stationary series and grow
    without bound along integrated ones, so the statistic is compared
    against a Monte Carlo reference rather than tabulated critical values.

    Under the trend-stationary null the detrended residual curves are
    exchangeable in time, so the observed statistic is compared against
    the statistics of randomly reordered series.  An integrated series
    loses its cumulative structure under reordering and lands in the far
    right tail.

    Parameters
    ----------
    series : ClrSeries
        At least 10 curves.
    n_permutations : int
        Number of reordered series, at least 1.
    seed : int
        Seed of the generator that draws the reorderings.

    Returns
    -------
    tuple of (float, float)
        The observed statistic and the permutation p-value
        ``(1 + #{permuted >= observed}) / (1 + n_permutations)``.
    """
    n_permutations = check_integer(n_permutations, "n_permutations")
    if n_permutations < 1:
        raise DomainError("need at least one permutation")
    if series.n < 10:
        raise InsufficientDataError(f"need at least 10 curves, got {series.n}")
    weights = series.weights
    bandwidth = plugin_bandwidth(series)
    observed = _kpss_from_values(series.values, weights, bandwidth)
    rng = np.random.default_rng(seed)
    exceed = 0
    for _ in range(n_permutations):
        shuffled = series.values[rng.permutation(series.n)]
        if _kpss_from_values(shuffled, weights, bandwidth) >= observed:
            exceed += 1
    return observed, (1 + exceed) / (1 + n_permutations)


@dataclass(frozen=True)
class IndependenceResult:
    """Outcome of the serial-independence portmanteau test.

    ``projection_dim`` records the dimension actually used, which can be
    smaller than requested when the residual covariance is rank
    deficient.  ``degenerate`` marks input with numerically no variation,
    reported as statistic 0 and p-value 1.
    """

    statistic: float
    p_value: float
    lag_count: int
    projection_dim: int
    degenerate: bool = False

    def dependent(self, level=0.05):
        """Whether serial dependence is detected at the given level."""
        return not self.degenerate and self.p_value < level


def _chi2_upper_tail(x, df):
    """Upper tail ``P(X > x)`` of a chi-square law with integer ``df``.

    Abramowitz and Stegun 26.4.4-26.4.5 give it in closed form: with
    ``y = x / 2``, the tail is ``exp(-y) * sum_j y^j / j!`` over
    ``j = 0 .. df/2 - 1`` for even ``df``, and ``erfc(sqrt(y))`` plus
    the same sum over the half-integers ``j = 1/2 .. (df - 2)/2`` for
    odd ``df`` (``j!`` meaning ``Gamma(j + 1)``).  The terms are summed
    in the log domain, shifted by the largest, so that a tail below the
    smallest normal double (about 2.2e-308) still comes out as a
    subnormal instead of underflowing early; ``scipy.special.chdtrc``
    returns 0 once the tail falls below about 1e-311.  ``x <= 0``
    gives 1.
    """
    y = x / 2.0
    if y <= 0.0:  # also a subnormal x whose half underflows
        return 1.0
    start = 0.5 * (df % 2)
    logs = [
        (start + i) * math.log(y) - y - math.lgamma(start + i + 1.0)
        for i in range(df // 2)
    ]
    tail = math.erfc(math.sqrt(y)) if df % 2 else 0.0
    if logs:
        top = max(logs)
        tail += math.exp(top + math.log(math.fsum(math.exp(v - top) for v in logs)))
    return tail


def independence_test(residuals, lag_count=5, projection_dim=3, grid=None):
    """Portmanteau test of serial independence for residual curves.

    The curves are projected onto their leading ``projection_dim``
    principal components and the scores are pooled into a multivariate
    portmanteau statistic over lags ``1 .. lag_count`` with the usual
    small-sample scaling.  Under independence the statistic is
    asymptotically chi-square with ``projection_dim^2 * lag_count``
    degrees of freedom, whose upper tail, in the closed form of
    :func:`_chi2_upper_tail`, supplies the p-value.

    Parameters
    ----------
    residuals : ClrSeries or array_like
        Residual curves, at least ``lag_count + 5`` of them.
    lag_count : int
        Number of lags pooled, at least 1.
    projection_dim : int
        Number of principal components, at least 1; silently reduced when
        the curves carry fewer effective dimensions.

    Returns
    -------
    IndependenceResult
    """
    values, g = _series_values(residuals, grid)
    m = values.shape[0]
    lags = check_integer(lag_count, "lag_count")
    dim = check_integer(projection_dim, "projection_dim")
    if lags < 1:
        raise DomainError(f"lag_count must be at least 1, got {lag_count}")
    if dim < 1:
        raise DomainError(f"projection_dim must be at least 1, got {projection_dim}")
    if m < lags + 5:
        raise InsufficientDataError(
            f"need at least lag_count + 5 = {lags + 5} curves, got {m}"
        )

    weights = trapezoid_weights(g)
    centered = values - values.mean(axis=0)
    total_var = float((centered**2 @ weights).mean())
    scale = max(1.0, float(np.max(np.abs(values))) ** 2)
    if total_var <= 1e-20 * scale:
        return IndependenceResult(
            statistic=0.0, p_value=1.0, lag_count=lags, projection_dim=0, degenerate=True
        )

    cov = CovSurface(grid=g, values=_lag_product(centered, 0), weights=weights)
    full = fpca(cov, min(dim, g.size))
    keep = full.eigenvalues > 1e-12 * full.eigenvalues[0]
    eff = int(np.sum(keep))
    scores = project_scores(centered, full)[:, keep]

    # Scores of orthonormal eigenfunctions are uncorrelated in sample, so
    # the lag-zero covariance is diagonal with the kept eigenvalues and
    # tr(C' C0^-1 C C0^-1) collapses to a weighted sum of squares.
    inv_var = 1.0 / full.eigenvalues[keep]
    statistic = 0.0
    for lag in range(1, lags + 1):
        c_lag = _lag_product(scores, lag)
        quad = float(np.sum(c_lag**2 * np.outer(inv_var, inv_var)))
        statistic += quad * m**2 / (m - lag)
    p_value = _chi2_upper_tail(statistic, eff**2 * lags)
    return IndependenceResult(
        statistic=float(statistic),
        p_value=p_value,
        lag_count=lags,
        projection_dim=eff,
    )
