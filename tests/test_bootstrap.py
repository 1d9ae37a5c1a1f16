"""Score forecast tables, error pools and bootstrap interval assembly."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from codaboot import (
    ClrSeries,
    ConfigurationError,
    DomainError,
    InsufficientDataError,
    PoolError,
    ShapeError,
    assemble_forecast,
    bootstrap_forecast_path,
    build_error_pools,
    clr,
    fit_dfm,
    inverse_clr,
    trapezoid_weights,
)
from codaboot.bootstrap import (
    _ETS_GRID,
    _PREFIX_TABLES,
    SCORE_METHODS,
    _ar_aic_batched,
    _fit_ar_aic,
    _fit_ets_prefixes,
    _forecast_ar_aic,
    _sorted_quantiles,
)


def _central(x, method, horizons):
    """Forecasts of one series from its whole length, read off the last
    row of the method's prefix table."""
    return _PREFIX_TABLES[method](np.asarray(x, dtype=float)[:, None], horizons)[0, -1]


def test_random_walk_drift_hand_case():
    # drift = (11 - 1) / 4 = 2.5 continued from the endpoint.
    out = _central([1.0, 3.0, 7.0, 9.0, 11.0], "random_walk_drift", 3)
    np.testing.assert_allclose(out, [13.5, 16.0, 18.5], rtol=0, atol=1e-12)


def test_ets_is_exact_on_a_linear_series():
    out = _central([3.0, 5.0, 7.0, 9.0, 11.0], "ets_like", 3)
    np.testing.assert_allclose(out, [13.0, 15.0, 17.0], rtol=0, atol=1e-9)


def test_ets_matches_scalar_grid_search():
    rng = np.random.default_rng(9)
    y = 2.0 + 0.7 * np.arange(30) + rng.normal(scale=1.5, size=30)
    best = None
    for a in _ETS_GRID:
        for b in _ETS_GRID:
            level, trend = float(y[0]), float(y[1] - y[0])
            sse = 0.0
            for t in range(1, y.size):
                err = y[t] - (level + trend)
                sse += err * err
                level = level + trend + a * err
                trend = trend + a * b * err
            if best is None or sse < best[0]:
                best = (sse, level, trend)
    level, trend = _fit_ets_prefixes(y[None])
    assert level[0, -1] == pytest.approx(best[1], abs=1e-12)
    assert trend[0, -1] == pytest.approx(best[2], abs=1e-12)


def _two_pass_ets(x):
    """The ETS fit written as a grid pass that only picks the parameters,
    followed by a scalar replay of the recursion with the chosen pair."""
    if x.size == 1:
        return float(x[0]), 0.0
    alphas, betas = np.meshgrid(_ETS_GRID, _ETS_GRID, indexing="ij")
    alphas = alphas.ravel()
    betas = betas.ravel()
    level = np.full(alphas.size, x[0])
    trend = np.full(alphas.size, x[1] - x[0])
    sse = np.zeros(alphas.size)
    for t in range(1, x.size):
        predicted = level + trend
        err = x[t] - predicted
        sse += err**2
        level = predicted + alphas * err
        trend = trend + alphas * betas * err
    best = int(np.argmin(sse))
    level_v = x[0]
    trend_v = x[1] - x[0]
    a = alphas[best]
    b = betas[best]
    for t in range(1, x.size):
        err = x[t] - (level_v + trend_v)
        level_v = level_v + trend_v + a * err
        trend_v = trend_v + a * b * err
    return float(level_v), float(trend_v)


def _finite_series(min_size, max_size):
    return arrays(
        np.float64,
        st.integers(min_size, max_size),
        elements=st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
    )


@settings(max_examples=40, deadline=None)
@given(
    x=arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 80)),
        elements=st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
    )
)
def test_ets_prefix_fits_match_the_two_pass_replay_bit_for_bit(x):
    level, trend = _fit_ets_prefixes(x)
    assert level.shape == trend.shape == x.shape
    for j in range(x.shape[0]):
        for i in range(x.shape[1]):
            assert (level[j, i], trend[j, i]) == _two_pass_ets(x[j, : i + 1])



@settings(max_examples=40, deadline=None)
@given(
    x=arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 80)),
        elements=st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
    )
)
def test_ets_last_prefix_fit_equals_the_last_column_of_every_prefix(x):
    # The fit of a series cut at m years, the last column of its own
    # prefix table, is column m - 1 of the table of the whole series, bit
    # for bit: a backtest window's central forecast does not depend on how
    # far the series runs past it.
    level, trend = _fit_ets_prefixes(x)
    for m in range(1, x.shape[1] + 1):
        last_level, last_trend = _fit_ets_prefixes(x[:, :m])
        assert last_level[:, -1].tobytes() == level[:, m - 1].tobytes()
        assert last_trend[:, -1].tobytes() == trend[:, m - 1].tobytes()

def _drift_oracle(x, horizons):
    m = x.size
    drift = (x[-1] - x[0]) / (m - 1) if m > 1 else 0.0
    return x[-1] + drift * np.arange(1, horizons + 1)


def _ets_oracle(x, horizons):
    level, trend = _two_pass_ets(x)
    return level + trend * np.arange(1, horizons + 1)


# Scalar forecasts of one series from its whole length, one per method.
_ORACLES = {
    "random_walk_drift": _drift_oracle,
    "ar_aic": _forecast_ar_aic,
    "ets_like": _ets_oracle,
}


@settings(max_examples=60, deadline=None)
@given(
    scores=arrays(
        np.float64,
        st.tuples(st.integers(1, 120), st.integers(1, 6)),
        elements=st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
    ),
    h_max=st.integers(1, 25),
)
def test_drift_table_matches_the_scalar_drift_bit_for_bit(scores, h_max):
    table = _PREFIX_TABLES["random_walk_drift"](scores, h_max)
    n, k = scores.shape
    assert table.shape == (k, n, h_max)
    for j in range(k):
        for i in range(n):
            np.testing.assert_array_equal(
                table[j, i], _drift_oracle(scores[: i + 1, j], h_max)
            )


def test_ar_forecasts_revert_to_the_mean_geometrically():
    rng = np.random.default_rng(1234)
    eps = rng.normal(size=500)
    x = np.zeros(500)
    for t in range(1, 500):
        x[t] = 0.5 * x[t - 1] + eps[t]
    out = _central(x, "ar_aic", 8)
    mean = x.mean()
    # The fitted coefficient sits near the true 0.5 and the forecast path
    # decays toward the sample mean.
    assert (out[0] - mean) / (x[-1] - mean) == pytest.approx(0.5, abs=0.15)
    assert abs(out[5] - mean) < 0.2 * abs(out[0] - mean)
    gaps = np.abs(out - mean)
    assert np.all(np.diff(gaps) < 0.0)


def test_ar_on_white_noise_collapses_to_the_mean():
    rng = np.random.default_rng(10)
    x = rng.normal(loc=3.0, size=300)
    out = _central(x, "ar_aic", 4)
    np.testing.assert_allclose(out, np.full(4, x.mean()), rtol=0, atol=0.2)


def _single_series_fit(x):
    """Stand-in fit with one primary score series and no residual stage."""
    x = np.asarray(x, dtype=float)
    return SimpleNamespace(
        n=x.size, primary_scores=x[:, None], residual_scores=np.empty((x.size, 0))
    )


def test_error_pool_hand_case_on_squares():
    # x_t = t^2; under random-walk-with-drift every horizon-1 error is
    # t + 1 - (prefix drift), worked out by hand below.
    x = np.array([0.0, 1.0, 4.0, 9.0, 16.0, 25.0])
    pools = build_error_pools(_single_series_fit(x), 2)
    np.testing.assert_allclose(pools.primary[0][:, 0], [1.0, 2.0, 3.0, 4.0, 5.0], atol=1e-12)
    np.testing.assert_allclose(pools.primary[1][:, 0], [4.0, 6.0, 8.0, 10.0], atol=1e-12)
    # The whole series continues with drift 25 / 5 = 5.
    np.testing.assert_allclose(pools.primary_central[:, 0], [30.0, 35.0], atol=1e-12)
    assert pools.residual[0].shape == (5, 0)


def test_error_pool_sizes_and_validation():
    fit = _single_series_fit(np.arange(12.0))
    pools = build_error_pools(fit, 9)
    assert pools.fit is fit
    for h in range(1, 10):
        assert pools.primary[h - 1].shape == (12 - h, 1)
    assert pools.primary_central.shape == (9, 1)
    with pytest.raises(InsufficientDataError):
        build_error_pools(fit, 10)
    with pytest.raises(DomainError):
        build_error_pools(fit, 0)
    with pytest.raises(ConfigurationError):
        build_error_pools(fit, 1, primary_method="naive")


def test_error_pool_is_zero_when_the_forecaster_is_exact():
    # A perfectly linear series is extrapolated exactly by the drift rule
    # from every prefix of length two or more.
    pools = build_error_pools(_single_series_fit(np.arange(0.0, 20.0, 2.0)), 1)
    pool = pools.primary[0][:, 0]
    assert pool.size == 9
    np.testing.assert_allclose(pool[1:], 0.0, atol=1e-12)
    assert pool[0] == pytest.approx(2.0)  # length-one prefix forecasts flat


def _ar_tolerance(x):
    """How far a batched AR-AIC forecast of ``x`` or of its prefixes may
    sit from the per-prefix least-squares fit: 1e-10 of the series' scale,
    with a tiny floor for an all-zero series."""
    return 1e-10 * float(np.max(np.abs(x))) + 1e-300


@settings(max_examples=30, deadline=None)
@given(x=_finite_series(5, 80), method=st.sampled_from(SCORE_METHODS), data=st.data())
def test_pools_and_central_forecasts_come_from_the_prefix_forecasts(x, method, data):
    h_max = data.draw(st.integers(1, min(4, x.size - 3)), label="max_horizon")
    pools = build_error_pools(_single_series_fit(x), h_max, primary_method=method)
    if method == "ar_aic":
        # Fitted from running sums, so equal to the scalar fits only
        # within the stated bound; the other methods replay them exactly.
        def check(actual, expected):
            np.testing.assert_allclose(actual, expected, rtol=0, atol=_ar_tolerance(x))
    else:
        check = np.testing.assert_array_equal
    check(pools.primary_central[:, 0], _ORACLES[method](x, h_max))
    for h in range(1, h_max + 1):
        expected = [
            x[t] - _ORACLES[method](x[: t - h + 1], h)[-1] for t in range(h, x.size)
        ]
        check(pools.primary[h - 1][:, 0], expected)


@st.composite
def _score_stacks(draw):
    """``(n, k)`` score stacks of the kinds that stress the batched AR fit:
    free values, constant columns, near-collinear lags (sinusoids, each
    an exact AR(2), plus faint noise) and random walks."""
    n = draw(st.integers(1, 120), label="n")
    k = draw(st.integers(1, 6), label="k")
    kind = draw(st.sampled_from(("free", "constant", "near_collinear", "random_walk")))
    value = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    if kind == "free":
        return draw(arrays(np.float64, (n, k), elements=value))
    if kind == "constant":
        return np.tile(draw(arrays(np.float64, k, elements=value)), (n, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "near_collinear":
        noise = 10.0 ** draw(st.floats(-9.0, -1.0), label="log10 noise")
        waves = np.sin(np.outer(np.arange(n), rng.uniform(0.1, 3.0, k)))
        return waves + noise * rng.normal(size=(n, k))
    return np.cumsum(rng.normal(size=(n, k)), axis=0)


def _flat_then_noisy():
    # Some prefixes here select explosive AR fits whose forecasts grow by
    # orders of magnitude and magnify any rounding in the coefficients.
    x = np.full(44, 5.0)
    x[22:] += np.random.default_rng(1).normal(size=22)
    return x[:, None]


def _steep_trend():
    # Near-collinear lags of a steep power trend: ill-conditioned Gram
    # matrices with clearly nonzero residuals.
    t = np.arange(60.0)
    return (-0.2 * t**2.5 + np.random.default_rng(5).normal(size=60))[:, None]


def _twice_integrated():
    # Prefix means far from the full mean: the running sums cancel most
    # of their digits on the way to the demeaned Gram matrices.
    steps = np.random.default_rng(5).normal(size=100)
    return np.cumsum(np.cumsum(steps))[:, None]


def _short_noise(m):
    return np.random.default_rng(m).normal(size=(m, 2))


@settings(max_examples=25, deadline=None)
@given(scores=_score_stacks(), h_max=st.integers(1, 25))
@example(scores=_flat_then_noisy(), h_max=20)
@example(scores=_steep_trend(), h_max=20)
@example(scores=_twice_integrated(), h_max=20)
@example(scores=_short_noise(1), h_max=5)
@example(scores=_short_noise(2), h_max=5)
@example(scores=_short_noise(3), h_max=5)
@example(scores=_short_noise(4), h_max=5)
@example(scores=_short_noise(12), h_max=5)
def test_batched_ar_aic_table_matches_the_scalar_fit_of_every_prefix(scores, h_max):
    table, order, fallback = _ar_aic_batched(scores.T, h_max)
    np.testing.assert_array_equal(table, _PREFIX_TABLES["ar_aic"](scores, h_max))
    n, k = scores.shape
    assert table.shape == (k, n, h_max)
    for j in range(k):
        x = scores[:, j]
        for i in range(n):
            scalar_order = _fit_ar_aic(x[: i + 1])[1].size
            # Order p is fitted only to prefixes that leave it p + 3 targets.
            assert scalar_order <= max(0, (i - 2) // 2)
            expected = _forecast_ar_aic(x[: i + 1], h_max)
            if fallback[j, i]:
                np.testing.assert_array_equal(table[j, i], expected)
                assert order[j, i] == -1
            else:
                np.testing.assert_allclose(
                    table[j, i], expected, rtol=0, atol=_ar_tolerance(x)
                )
                assert order[j, i] == scalar_order


def test_no_prefix_of_white_noise_falls_back_to_the_scalar_fit():
    # Every prefix of a well-conditioned series, down to a single value,
    # is fitted in the batched pass, with at most order (m - 3) // 2 for a
    # prefix of length m; below three values no order is a candidate and
    # the forecast is the prefix mean.
    x = np.random.default_rng(3).normal(size=(2, 40))
    table, order, fallback = _ar_aic_batched(x, 3)
    m = np.arange(3, 41)
    assert not fallback.any()
    assert (order[:, 2:] <= (m - 3) // 2).all()
    np.testing.assert_array_equal(order[:, :2], 0)
    np.testing.assert_array_equal(table[:, 0], np.repeat(x[:, :1], 3, axis=1))


def test_aicc_does_not_fit_the_targets_of_a_short_prefix_exactly():
    # Order 3 fits the three targets of these six values exactly, so plain
    # AIC would rank it first on rounding noise.  AICc admits only orders
    # with at least p + 3 targets: order 1 at most.
    x = np.array([0.3, -1.2, 0.8, 0.1, -0.5, 1.0])
    assert _fit_ar_aic(x)[1].size <= 1


def _fixture_fit(seed=2, n=40, d=10, residual=1):
    rng = np.random.default_rng(seed)
    grid = np.arange(float(d))
    w = trapezoid_weights(grid)
    raw = np.cumsum(rng.normal(size=(n, d)), axis=0) + 0.3 * rng.normal(size=(n, d))
    values = raw - ((raw @ w) / (grid[-1] - grid[0]))[:, None]
    series = ClrSeries(years=np.arange(n), grid=grid, values=values, radix=1000.0)
    return fit_dfm(series, n_primary=2, n_residual=residual)


def _direct_pool(x, method, h):
    """Horizon-h errors, refitting on the prefix that ends h steps before
    each target."""
    forecasts = [
        _ORACLES[method](x[: t - h + 1], h)[-1] for t in range(h, x.size)
    ]
    return x[h:] - np.array(forecasts)


def test_build_error_pools_matches_single_pools():
    fit = _fixture_fit()
    pools = build_error_pools(fit, 4)
    for h in range(1, 5):
        for k in range(fit.n_primary):
            np.testing.assert_allclose(
                pools.primary[h - 1][:, k],
                _direct_pool(fit.primary_scores[:, k], "random_walk_drift", h),
                atol=1e-12,
            )
        for k in range(fit.n_residual):
            np.testing.assert_allclose(
                pools.residual[h - 1][:, k],
                _direct_pool(fit.residual_scores[:, k], "ar_aic", h),
                atol=1e-12,
            )


def test_assemble_forecast_shift_equivariance():
    # Shifting every pool entry of one component by c shifts every
    # replicate by c times that component's basis function in clr space.
    fit = _fixture_fit()
    pools = build_error_pools(fit, 2)
    base = assemble_forecast(pools, horizon=2, n_samples=200, rng_seed=5)
    base_clr = clr(base.samples, ages=fit.grid).values
    c = 0.37
    for group, basis, k in (
        ("primary", fit.primary_basis, 1),
        ("residual", fit.residual_basis, 0),
    ):
        shifted = [errors.copy() for errors in getattr(pools, group)]
        for errors in shifted:
            errors[:, k] += c
        moved = assemble_forecast(
            dataclasses.replace(pools, **{group: tuple(shifted)}),
            horizon=2,
            n_samples=200,
            rng_seed=5,
        )
        np.testing.assert_allclose(
            clr(moved.samples, ages=fit.grid).values - base_clr,
            np.tile(c * basis.functions[k], (200, 1)),
            rtol=0,
            atol=1e-9,
        )
        np.testing.assert_array_equal(moved.point, base.point)


def test_assemble_forecast_replays_the_documented_draws():
    # One generator, consumed as documented: one block of pool indices per
    # primary component, one per residual component, then the indices of
    # whole final-residual rows.
    fit = _fixture_fit()
    h, b = 2, 60
    pools = build_error_pools(fit, h)
    fc = assemble_forecast(pools, horizon=h, n_samples=b, rng_seed=4)
    rng = np.random.default_rng(4)
    expected = np.tile(fit.mean_curve, (b, 1))
    for scores, basis, errors, method in (
        (fit.primary_scores, fit.primary_basis, pools.primary[h - 1], "random_walk_drift"),
        (fit.residual_scores, fit.residual_basis, pools.residual[h - 1], "ar_aic"),
    ):
        for k in range(basis.n_components):
            central = _ORACLES[method](scores[:, k], h)[-1]
            draws = central + errors[rng.integers(0, errors.shape[0], b), k]
            expected += np.outer(draws, basis.functions[k])
    expected += fit.final_residuals[rng.integers(0, fit.n, b)]
    np.testing.assert_allclose(
        fc.samples, inverse_clr(expected, fit.grid, fit.radix), rtol=1e-12, atol=0
    )


def test_assemble_forecast_shapes_and_determinism():
    fit = _fixture_fit()
    pools = build_error_pools(fit, 2)
    fc = assemble_forecast(pools, horizon=2, n_samples=300, rng_seed=7)
    assert fc.samples.shape == (300, 10)
    assert fc.point.shape == (10,)
    again = assemble_forecast(
        build_error_pools(fit, 2), horizon=2, n_samples=300, rng_seed=7
    )
    np.testing.assert_array_equal(fc.samples, again.samples)
    other = assemble_forecast(pools, horizon=2, n_samples=300, rng_seed=8)
    assert not np.array_equal(fc.samples, other.samples)


def test_assemble_forecast_point_is_seed_free():
    fit = _fixture_fit()
    pools = build_error_pools(fit, 3)
    one = assemble_forecast(pools, horizon=3, n_samples=10, rng_seed=1)
    two = assemble_forecast(pools, horizon=3, n_samples=500, rng_seed=99)
    np.testing.assert_allclose(one.point, two.point, rtol=0, atol=1e-12)


def test_every_sample_integrates_to_the_radix():
    fit = _fixture_fit()
    fc = assemble_forecast(
        build_error_pools(fit, 1), horizon=1, n_samples=400, rng_seed=3
    )
    w = trapezoid_weights(fit.grid)
    np.testing.assert_allclose(fc.samples @ w, np.full(400, 1000.0), rtol=1e-10)
    np.testing.assert_allclose(fc.point @ w, 1000.0, rtol=1e-10)
    assert np.all(fc.samples > 0.0)


def test_bounds_are_the_empirical_quantiles_of_the_samples():
    fit = _fixture_fit()
    pools = build_error_pools(fit, 2)
    fc = assemble_forecast(
        pools, horizon=2, n_samples=101, levels=(0.8, 0.95), rng_seed=11
    )
    for level in (0.8, 0.95):
        alpha = (1.0 - level) / 2.0
        np.testing.assert_array_equal(fc.lower[level], np.quantile(fc.samples, alpha, axis=0))
        np.testing.assert_array_equal(
            fc.upper[level], np.quantile(fc.samples, 1.0 - alpha, axis=0)
        )
    # Wider nominal level, wider band, at every age.
    assert np.all(fc.lower[0.95] <= fc.lower[0.8])
    assert np.all(fc.upper[0.8] <= fc.upper[0.95])


@settings(max_examples=150, deadline=None)
@example(b=1, d=1, levels=[0.8], seed=0, ties=False)
@example(b=1, d=7, levels=[0.8, 0.95], seed=1, ties=True)
@given(
    b=st.integers(1, 1500),
    d=st.integers(1, 120),
    levels=st.lists(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=4
    ),
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
)
def test_sorted_quantiles_equal_numpy_quantiles_bit_for_bit(b, d, levels, seed, ties):
    # The band helper reads every level from one sort of its argument, in
    # place; it must equal np.quantile exactly, ties and single samples
    # included.
    rng = np.random.default_rng(seed)
    samples = rng.lognormal(sigma=1.0, size=(b, d))
    if ties:
        samples = np.round(samples, 1)
    alphas = [(1.0 - level) / 2.0 for level in levels]
    probs = alphas + [1.0 - a for a in alphas]
    ordered = samples.copy()
    assert np.array_equal(
        _sorted_quantiles(ordered, probs), np.quantile(samples, probs, axis=0)
    )
    assert np.array_equal(ordered, np.sort(samples, axis=0))


def test_assemble_forecast_validation():
    fit = _fixture_fit()
    with pytest.raises(InsufficientDataError):
        assemble_forecast(build_error_pools(fit, 38), horizon=38, n_samples=10)
    pools = build_error_pools(fit, 2)
    with pytest.raises(DomainError):
        assemble_forecast(pools, horizon=0, n_samples=10)
    with pytest.raises(DomainError):
        assemble_forecast(pools, horizon=1, n_samples=0)
    with pytest.raises(ConfigurationError):
        assemble_forecast(pools, horizon=1, n_samples=10, levels=())
    with pytest.raises(ConfigurationError):
        assemble_forecast(pools, horizon=1, n_samples=10, levels=(1.2,))
    with pytest.raises(ConfigurationError):
        assemble_forecast(pools, horizon=1, n_samples=10, levels=(0.8, 0.8))
    with pytest.raises(PoolError):
        assemble_forecast(pools, horizon=3, n_samples=10)


def test_non_integral_counts_fail_instead_of_truncating():
    fit = _fixture_fit()
    with pytest.raises(DomainError, match="max_horizon must be an integer"):
        build_error_pools(fit, 2.5)
    with pytest.raises(DomainError, match="max_horizon must be an integer"):
        build_error_pools(fit, np.float64(2.0))
    pools = build_error_pools(fit, np.int64(2))
    assert pools.max_horizon == 2
    with pytest.raises(DomainError, match="horizon must be an integer"):
        assemble_forecast(pools, horizon=1.5, n_samples=10)
    with pytest.raises(DomainError, match="n_samples must be an integer"):
        assemble_forecast(pools, horizon=1, n_samples=10.7)
    fc = assemble_forecast(pools, horizon=np.int32(2), n_samples=np.int64(10))
    assert fc.horizon == 2 and fc.samples.shape[0] == 10


def test_assembly_in_a_workspace_equals_the_allocating_assembly_bit_for_bit():
    fit = _fixture_fit(residual=2)
    pools = build_error_pools(fit, 3)
    workspace = np.full((2, 150, 10), np.nan)
    for h in (1, 3):
        kept = assemble_forecast(pools, h, 150, rng_seed=5)
        banded = assemble_forecast(pools, h, 150, rng_seed=5, workspace=workspace)
        assert banded.samples is None
        np.testing.assert_array_equal(banded.point, kept.point)
        for level in kept.levels:
            np.testing.assert_array_equal(banded.lower[level], kept.lower[level])
            np.testing.assert_array_equal(banded.upper[level], kept.upper[level])
        # The replicates were mapped back and sorted in the workspace.
        np.testing.assert_array_equal(workspace[0], np.sort(kept.samples, axis=0))


@pytest.mark.parametrize(
    "workspace",
    [np.empty((2, 150, 9)), np.empty((1, 150, 10)), np.empty((2, 149, 10)),
     np.empty((2, 150, 10), dtype=np.float32), np.zeros((2, 150, 10)).tolist()],
    ids=["points", "one-buffer", "samples", "float32", "list"],
)
def test_assembly_rejects_a_misshapen_workspace(workspace):
    pools = build_error_pools(_fixture_fit(), 2)
    with pytest.raises(ShapeError, match=r"workspace must be a float array of shape \(2, 150, 10\)"):
        assemble_forecast(pools, 1, 150, workspace=workspace)


def test_bands_only_path_checks_its_replicate_count():
    fit = _fixture_fit()
    for n_samples in (10.5, 0):
        with pytest.raises(DomainError, match="n_samples must be"):
            bootstrap_forecast_path(fit, 2, n_samples=n_samples, keep_samples=False)


def test_path_shares_pools_and_spawned_seeds():
    fit = _fixture_fit()
    path = bootstrap_forecast_path(fit, max_horizon=3, n_samples=150, rng_seed=42)
    assert [fc.horizon for fc in path] == [1, 2, 3]
    pools = build_error_pools(fit, 3)
    seeds = np.random.SeedSequence(42).spawn(3)
    for h in range(1, 4):
        single = assemble_forecast(pools, horizon=h, n_samples=150, rng_seed=seeds[h - 1])
        np.testing.assert_array_equal(path[h - 1].samples, single.samples)


def test_path_accepts_a_seed_sequence():
    fit = _fixture_fit()
    root = np.random.SeedSequence(7)
    path = bootstrap_forecast_path(fit, max_horizon=2, n_samples=50, rng_seed=root)
    again = bootstrap_forecast_path(fit, max_horizon=2, n_samples=50, rng_seed=7)
    np.testing.assert_array_equal(path[0].samples, again[0].samples)


def test_path_reuses_a_seed_sequence_without_advancing_it():
    # Like assemble_forecast and lc_bootstrap_path, the path is a function
    # of the sequence it is given: a second call with the same object
    # draws the same curves, and the caller's sequence has spawned nothing.
    fit = _fixture_fit()
    root = np.random.SeedSequence(7).spawn(2)[1]
    first = bootstrap_forecast_path(fit, max_horizon=3, n_samples=50, rng_seed=root)
    second = bootstrap_forecast_path(fit, max_horizon=3, n_samples=50, rng_seed=root)
    assert root.n_children_spawned == 0
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.samples, b.samples)
    seeds = np.random.SeedSequence(7).spawn(2)[1].spawn(3)
    single = assemble_forecast(
        build_error_pools(fit, 3), horizon=3, n_samples=50, rng_seed=seeds[2]
    )
    np.testing.assert_array_equal(first[2].samples, single.samples)


def test_intervals_widen_with_horizon_on_integrated_scores():
    # Pool spread grows with the horizon for a random-walk factor, so the
    # average band width should too.
    fit = _fixture_fit(seed=15, n=60)
    path = bootstrap_forecast_path(fit, max_horizon=8, n_samples=500, rng_seed=2)
    widths = [float(np.mean(fc.upper[0.8] - fc.lower[0.8])) for fc in path]
    assert widths[-1] > widths[0]
