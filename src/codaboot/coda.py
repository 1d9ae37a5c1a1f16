"""Centered log-ratio transform between death counts and unconstrained curves.

A death-count curve lives on a simplex: entries are positive and integrate
to the radix.  The centered log-ratio (clr) transform maps it to a curve
that is free of both constraints,

    X(u) = ln d(u) - (1 / eta) * integral of ln d over the age grid,

with ``eta`` the span of the grid.  All integrals use the trapezoid rule on
the grid, under which the weights sum to ``eta`` exactly, so every
transformed curve integrates to zero.  :func:`inverse_clr` exponentiates
and renormalises so that the output integrates to the radix under the same
rule; using one quadrature rule on both sides is what makes the round trip
the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .lifetable import DEFAULT_RADIX, LifeTableGrid, check_radix


def trapezoid_weights(grid):
    """Trapezoid quadrature weights for an increasing grid.

    On the unit-spaced age grid this is the familiar ``(1/2, 1, ..., 1, 1/2)``
    pattern; the weights always sum to the span of the grid.

    Parameters
    ----------
    grid : array_like
        Strictly increasing finite points, at least two of them.

    Returns
    -------
    ndarray
        Weights, same length as ``grid``.
    """
    u = np.asarray(grid, dtype=float)
    if u.ndim != 1 or u.size < 2:
        raise ShapeError("grid must be a vector with at least two points")
    if not np.all(np.isfinite(u)):
        raise DomainError("grid must be finite")
    if np.any(np.diff(u) <= 0.0):
        raise DomainError("grid must be strictly increasing")
    w = np.empty_like(u)
    w[0] = (u[1] - u[0]) / 2.0
    w[-1] = (u[-1] - u[-2]) / 2.0
    w[1:-1] = (u[2:] - u[:-2]) / 2.0
    return w


@dataclass(frozen=True)
class ClrSeries:
    """A time-indexed collection of clr-transformed curves.

    Attributes
    ----------
    years : ndarray
        Strictly increasing integers, shape ``(n,)``.
    grid : ndarray
        Age grid shared by all curves, shape ``(D,)``.
    values : ndarray
        Curves, shape ``(n, D)``.  Each row integrates to zero under the
        trapezoid rule on ``grid`` (within ``1e-8``).
    radix : float
        The simplex total the curves came from, kept for the way back;
        finite and positive.
    """

    years: np.ndarray
    grid: np.ndarray
    values: np.ndarray
    radix: float = DEFAULT_RADIX

    def __post_init__(self):
        years = np.asarray(self.years, dtype=int)
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape != (years.size, grid.size):
            raise ShapeError(
                f"values must have shape {(years.size, grid.size)}, got {values.shape}"
            )
        if np.any(np.diff(years) <= 0):
            raise DomainError("years must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise DomainError("curves must be finite")
        check_radix(self.radix)
        w = trapezoid_weights(grid)
        worst = np.max(np.abs(values @ w)) if values.size else 0.0
        if worst > 1e-8:
            raise DomainError(
                f"curves must integrate to zero under the grid quadrature,"
                f" worst deviation {worst:.3e}"
            )

    @property
    def n(self) -> int:
        return self.years.size

    @property
    def weights(self) -> np.ndarray:
        return trapezoid_weights(self.grid)


def clr(grid_or_values, ages=None, years=None, radix=DEFAULT_RADIX):
    """Centered log-ratio transform of death-count curves.

    The transform is invariant to a positive rescaling of each input row,
    so rows need not be normalised beforehand.

    Parameters
    ----------
    grid_or_values : LifeTableGrid or array_like
        Either a full grid, or a ``(n, D)`` array of strictly positive
        curves accompanied by ``ages`` (and optionally ``years``).
    ages, years : array_like, optional
        Required when passing a bare array.
    radix : float
        Stored on the result for the inverse direction; taken from the
        grid when one is given.

    Returns
    -------
    ClrSeries
    """
    if isinstance(grid_or_values, LifeTableGrid):
        table = grid_or_values
        values = table.deaths
        ages = table.ages
        years = table.years
        radix = table.radix
    else:
        values = np.atleast_2d(np.asarray(grid_or_values, dtype=float))
        if ages is None:
            raise ShapeError("ages are required when passing a bare array")
        if years is None:
            years = np.arange(1, values.shape[0] + 1)
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
        raise DomainError("curves must be finite and strictly positive")
    grid = np.asarray(ages, dtype=float)
    w = trapezoid_weights(grid)
    eta = grid[-1] - grid[0]
    logs = np.log(values)
    centered = logs - (logs @ w)[:, None] / eta
    return ClrSeries(years=np.asarray(years), grid=grid, values=centered, radix=radix)


def _check_buffer(value, shape, name):
    """``value`` if it is a float64 ndarray of ``shape``, else ShapeError."""
    if not isinstance(value, np.ndarray) or value.shape != shape or value.dtype != float:
        raise ShapeError(f"{name} must be a float array of shape {shape}")
    return value


def inverse_clr(curves, grid, radix=DEFAULT_RADIX, out=None):
    """Map clr-space curves back to death-count curves.

    Each curve is exponentiated after subtracting its maximum (which keeps
    ``exp`` bounded and leaves the result unchanged, as any additive shift
    cancels in the normalisation) and scaled so that its trapezoid
    integral over ``grid`` equals ``radix``.

    Parameters
    ----------
    curves : array_like
        One curve of shape ``(D,)`` or a stack of shape ``(m, D)``.
    grid : array_like
        Age grid the curves live on.
    radix : float
        Target integral of each output curve.
    out : ndarray, optional
        Float array of the shape of ``curves``, possibly ``curves`` itself,
        that receives the result; the result is the same to the bit.

    Returns
    -------
    ndarray
        Strictly positive curves, same shape as the input.
    """
    x = np.asarray(curves, dtype=float)
    if out is not None:
        _check_buffer(out, x.shape, "out")
    single = x.ndim == 1
    x = np.atleast_2d(x)
    g = np.asarray(grid, dtype=float)
    if x.shape[1] != g.size:
        raise ShapeError(f"curves have {x.shape[1]} points but grid has {g.size}")
    if not np.all(np.isfinite(x)):
        raise DomainError("curves must be finite")
    check_radix(radix)
    w = trapezoid_weights(g)
    target = None if out is None else np.atleast_2d(out)
    result = np.subtract(x, x.max(axis=1, keepdims=True), out=target)
    np.exp(result, out=result)
    result *= (radix / (result @ w))[:, None]
    return result[0] if single else result
