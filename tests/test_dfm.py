"""Two-stage factor decomposition of clr curve series."""

import numpy as np
import pytest

from codaboot import (
    ClrSeries,
    ComponentCounts,
    DomainError,
    InsufficientDataError,
    RankError,
    clr,
    component_counts,
    fit_dfm,
    trapezoid_weights,
)


@pytest.mark.parametrize(
    "policy, expected",
    [
        ("one", (1, 1)),
        ("six", (6, 6)),
        ("ONE", (1, 1)),
        (4, (4, 4)),
        ("3", (3, 3)),
    ],
)
def test_component_counts(policy, expected):
    assert component_counts(policy) == ComponentCounts(*expected)


@pytest.mark.parametrize("bad", [0, -2, "zero", "1.5", "", 2.5, 2.0])
def test_component_counts_rejects_bad_policies(bad):
    with pytest.raises(DomainError):
        component_counts(bad)


def _orthonormal(rng, grid, count):
    w = trapezoid_weights(grid)
    funcs = []
    for _ in range(count):
        f = rng.normal(size=grid.size)
        for g in funcs:
            f -= (f * w) @ g * g
        f /= np.sqrt((f * w) @ f)
        funcs.append(f)
    return np.array(funcs)


def _series_from_values(values, grid):
    w = trapezoid_weights(grid)
    eta = grid[-1] - grid[0]
    centred = values - ((values @ w) / eta)[:, None]
    return ClrSeries(years=np.arange(values.shape[0]), grid=grid, values=centred)


def _planted_rank1(seed=21, n=60, d=14):
    # One random-walk factor on a centred loading; the model family this
    # decomposition targets, with nothing left over.
    rng = np.random.default_rng(seed)
    grid = np.arange(float(d))
    w = trapezoid_weights(grid)
    f = _orthonormal(rng, grid, 1)[0]
    f = f - (f @ w) / (grid[-1] - grid[0])
    f /= np.sqrt((f * w) @ f)
    beta = np.cumsum(rng.normal(scale=1.0, size=n))
    mu = rng.normal(size=d)
    mu -= (mu @ w) / (grid[-1] - grid[0])
    values = mu + np.outer(beta, f)
    return ClrSeries(years=np.arange(n), grid=grid, values=values), f, beta, mu


def test_planted_single_factor_is_recovered():
    series, f, beta, mu = _planted_rank1()
    fit = fit_dfm(series, n_primary=1, n_residual=1)
    w = trapezoid_weights(series.grid)
    alignment = abs((fit.primary_basis.functions[0] * w) @ f)
    assert alignment >= 0.999
    # Scores match the planted factor path up to centring and sign.
    sign = np.sign((fit.primary_basis.functions[0] * w) @ f)
    np.testing.assert_allclose(
        fit.primary_scores[:, 0] * sign, beta - beta.mean(), rtol=0, atol=1e-6
    )
    assert np.max(np.abs(fit.final_residuals)) <= 1e-8
    np.testing.assert_allclose(fit.mean_curve, mu + beta.mean() * f, rtol=0, atol=1e-8)


def test_zero_first_stage_residuals_skip_the_second_stage():
    series, *_ = _planted_rank1()
    fit = fit_dfm(series, n_primary=1, n_residual=3)
    assert fit.independence.degenerate
    assert not fit.residual_stage_ran
    assert fit.n_residual == 0
    assert fit.residual_scores.shape == (series.n, 0)


def test_forced_residual_stage_always_runs():
    rng = np.random.default_rng(33)
    grid = np.arange(10.0)
    series = _series_from_values(
        np.cumsum(rng.normal(size=(40, 10)), axis=0) + rng.normal(size=(40, 10)), grid
    )
    forced = fit_dfm(series, n_primary=2, n_residual=2, force_residual_stage=True)
    assert forced.residual_stage_ran
    assert forced.n_residual == 2
    assert forced.residual_scores.shape == (40, 2)


def test_reconstruction_identity_holds_for_any_input():
    rng = np.random.default_rng(5)
    grid = np.linspace(0.0, 30.0, 13)
    for trial in range(5):
        raw = rng.lognormal(sigma=0.6, size=(25, 13))
        series = clr(raw, ages=grid)
        fit = fit_dfm(
            series,
            n_primary=int(rng.integers(1, 4)),
            n_residual=int(rng.integers(0, 3)),
            force_residual_stage=bool(rng.integers(0, 2)),
        )
        np.testing.assert_allclose(
            fit.reconstruction(), series.values, rtol=0, atol=1e-10
        )


def test_full_rank_fit_leaves_no_residual():
    rng = np.random.default_rng(8)
    grid = np.arange(6.0)
    series = _series_from_values(np.cumsum(rng.normal(size=(30, 6)), axis=0), grid)
    fit = fit_dfm(series, n_primary=6, n_residual=0)
    assert np.max(np.abs(fit.final_residuals)) <= 1e-8


def test_residual_energy_shrinks_with_more_components():
    rng = np.random.default_rng(12)
    grid = np.arange(12.0)
    series = _series_from_values(
        np.cumsum(rng.normal(size=(45, 12)), axis=0) + 0.2 * rng.normal(size=(45, 12)),
        grid,
    )
    norms = []
    for r in range(1, 7):
        fit = fit_dfm(series, n_primary=r, n_residual=0)
        norms.append(float(np.sum(fit.final_residuals**2)))
    # First-stage residual energy does not have to fall monotonically in r
    # (the basis optimises the differenced series, not the levels), but it
    # must fall substantially over the sweep.
    assert norms[-1] < norms[0]


def test_fit_records_bandwidth_and_accepts_override():
    series, *_ = _planted_rank1(n=64)
    default = fit_dfm(series, 1, 0)
    assert default.bandwidth == 4.0  # cube root of 63 rounds to 4
    overridden = fit_dfm(series, 1, 0, bandwidth=2.5)
    assert overridden.bandwidth == 2.5


def test_fit_input_validation():
    series, *_ = _planted_rank1(n=20, d=8)
    with pytest.raises(DomainError):
        fit_dfm(series.values, 1, 1)
    with pytest.raises(DomainError):
        fit_dfm(series, 0, 1)
    with pytest.raises(DomainError):
        fit_dfm(series, 1, -1)
    with pytest.raises(RankError):
        fit_dfm(series, 9, 0)
    with pytest.raises(RankError):
        fit_dfm(series, 1, 9)
    short, *_ = _planted_rank1(n=9, d=8)
    with pytest.raises(InsufficientDataError):
        fit_dfm(short, 1, 1)


def test_fit_rejects_fractional_component_counts():
    series, *_ = _planted_rank1(n=20, d=8)
    with pytest.raises(DomainError, match="n_primary must be an integer"):
        fit_dfm(series, 1.5, 2.7)
    with pytest.raises(DomainError, match="n_residual must be an integer"):
        fit_dfm(series, 1, 1.0)
    assert fit_dfm(series, np.int64(1), np.int32(1)).n_primary == 1


def test_primary_scores_inherit_the_random_walk():
    # Scores along a random-walk factor should look integrated: their
    # first differences carry far less partial-sum mass than the levels.
    series, _, beta, _ = _planted_rank1(seed=44, n=80)
    fit = fit_dfm(series, 1, 0)
    scores = fit.primary_scores[:, 0]
    levels = np.cumsum(scores - scores.mean()) ** 2
    diffs = np.diff(scores)
    diff_partial = np.cumsum(diffs - diffs.mean()) ** 2
    assert levels.mean() > 10.0 * diff_partial.mean()
