"""Principal-component baseline, bootstrapped from the factor model's pools."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codaboot import (
    ClrSeries,
    ConfigurationError,
    DfmFit,
    DomainError,
    InsufficientDataError,
    RankError,
    fit_lc,
    lc_bootstrap_path,
    trapezoid_weights,
)
from codaboot.bootstrap import _PREFIX_TABLES
from codaboot.coda import inverse_clr


def _centred_series(values, grid, radix=1000.0):
    w = trapezoid_weights(grid)
    eta = grid[-1] - grid[0]
    centred = values - ((values @ w) / eta)[:, None]
    return ClrSeries(
        years=np.arange(values.shape[0]), grid=grid, values=centred, radix=radix
    )


def _rank1_series(seed=1, n=20, d=8):
    rng = np.random.default_rng(seed)
    grid = np.arange(float(d))
    f = rng.normal(size=d)
    beta = np.cumsum(rng.normal(size=n)) * 2.0
    return _centred_series(np.outer(beta, f), grid)


def test_rank1_fit_is_exact():
    series = _rank1_series()
    fit = fit_lc(series, n_components=1)
    assert np.max(np.abs(fit.final_residuals)) < 1e-10
    assert np.linalg.norm(fit.primary_basis.functions[0]) == pytest.approx(1.0, abs=1e-12)
    peak = np.argmax(np.abs(fit.primary_basis.functions[0]))
    assert fit.primary_basis.functions[0, peak] > 0.0
    np.testing.assert_allclose(fit.reconstruction(), series.values, rtol=0, atol=1e-10)


def test_truncation_error_equals_tail_singular_energy():
    rng = np.random.default_rng(6)
    grid = np.arange(4.0)
    series = _centred_series(rng.normal(size=(5, 4)), grid)
    fit = fit_lc(series, n_components=2)
    singular = np.linalg.svd(
        series.values - series.values.mean(axis=0), compute_uv=False
    )
    tail = float(np.sum(singular[2:] ** 2))
    assert float(np.sum(fit.final_residuals**2)) == pytest.approx(tail, rel=1e-10)
    # The kept triplets match the SVD up to the fixed sign convention.
    np.testing.assert_allclose(
        np.abs(np.linalg.norm(fit.primary_scores, axis=0)), singular[:2], rtol=1e-10
    )


def test_reconstruction_identity_for_any_rank():
    rng = np.random.default_rng(30)
    grid = np.linspace(0.0, 5.0, 6)
    series = _centred_series(rng.normal(size=(9, 6)), grid)
    for k in (1, 2, 5):
        fit = fit_lc(series, n_components=k)
        np.testing.assert_allclose(fit.reconstruction(), series.values, rtol=0, atol=1e-10)


def test_fit_lc_validation():
    series = _rank1_series(n=6, d=4)
    with pytest.raises(RankError):
        fit_lc(series, 0)
    with pytest.raises(RankError):
        fit_lc(series, 5)
    with pytest.raises(DomainError):
        fit_lc(series.values, 1)


def test_fit_lc_rejects_a_non_integral_component_count():
    series = _rank1_series(n=6, d=4)
    for count in (1.5, 2.0, np.float64(2.0), "2"):
        with pytest.raises(RankError, match="must be an integer"):
            fit_lc(series, count)
    assert fit_lc(series, np.int64(2)).n_primary == 2



@st.composite
def _curve_stacks(draw, wide):
    """A ``(B, n, D)`` stack of curve slices with ``n < D`` when ``wide``,
    else ``n >= D``, and a component count; some stacks carry one slice
    whose centred rank is below the count, returned with that rank."""
    if wide:
        n = draw(st.integers(2, 12), label="n")
        d = draw(st.integers(n + 1, 14), label="D")
    else:
        d = draw(st.integers(2, 12), label="D")
        n = draw(st.integers(d, 14), label="n")
    b = draw(st.integers(1, 4), label="B")
    k = draw(st.integers(1, min(n, d)), label="k")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0), label="log10 scale")
    decay = draw(st.floats(0.0, 8.0), label="spectral decay")
    stack = rng.normal(size=(b, n, d)) * np.exp(-decay * np.arange(d) / d) * scale
    deficient = None
    if k > 1 and draw(st.booleans(), label="rank-deficient slice"):
        deficient = (draw(st.integers(0, b - 1), label="slice"),
                     draw(st.integers(1, k - 1), label="rank"))
        rank = deficient[1]
        stack[deficient[0]] = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d)) * scale
    return stack + rng.normal(size=d), k, deficient


@pytest.mark.parametrize("wide", [True, False], ids=["n<D", "n>=D"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stacked_decomposition_matches_the_svd_of_each_slice(wide, data):
    # fit_lc on each slice of a stack, as a backtest fits each window:
    # mean, components and scores equal the slice's own thin SVD, each
    # component turned so its largest entry is positive, bit for bit.  The
    # residuals carry the tail singular energy, and a slice of centred
    # rank r < k gets score columns beyond r that are zero to rounding.
    stack, k, deficient = data.draw(_curve_stacks(wide))
    grid = np.arange(float(stack.shape[2]))
    for i, values in enumerate(stack):
        series = _centred_series(values, grid)
        fit = fit_lc(series, k)
        mean = series.values.mean(axis=0)
        left, singular, right = np.linalg.svd(series.values - mean, full_matrices=False)
        components = right[:k].copy()
        scores = left[:, :k] * singular[:k]
        for j in range(k):
            if components[j, np.argmax(np.abs(components[j]))] < 0.0:
                components[j] = -components[j]
                scores[:, j] = -scores[:, j]
        np.testing.assert_array_equal(fit.mean_curve, mean)
        np.testing.assert_array_equal(fit.primary_basis.functions, components)
        np.testing.assert_array_equal(fit.primary_scores, scores)
        rounding = 1e-12 * singular[0]
        tail = np.sqrt(np.sum(singular[k:] ** 2))
        assert abs(np.linalg.norm(fit.final_residuals) - tail) <= rounding
        if deficient is not None and deficient[0] == i:
            rank = deficient[1]
            assert np.all(np.linalg.norm(fit.primary_scores[:, rank:], axis=0) <= rounding)

def test_the_fit_reads_as_a_factor_fit_with_an_empty_residual_stage():
    series = _centred_series(
        np.cumsum(np.random.default_rng(5).normal(size=(12, 6)), axis=0), np.arange(6.0)
    )
    fit = fit_lc(series, n_components=2)
    assert isinstance(fit, DfmFit)
    assert fit.n_residual == 0 and fit.bandwidth is None
    assert fit.n_primary == 2
    assert fit.residual_basis.functions.shape == (0, 6)
    assert fit.residual_scores.shape == (12, 0)
    # The eigenvalues are those of the sample covariance with divisor n.
    centred = series.values - series.values.mean(axis=0)
    singular = np.linalg.svd(centred, full_matrices=False)[1]
    np.testing.assert_array_equal(fit.primary_basis.eigenvalues, singular[:2] ** 2 / 12)
    np.testing.assert_array_equal(fit.primary_basis.weights, np.ones(6))
    np.testing.assert_allclose(fit.reconstruction(), series.values, rtol=0, atol=1e-10)


def test_bootstrap_replicates_follow_the_documented_recipe():
    # Re-run the documented per-replicate algorithm with the same seeds:
    # horizon h draws from child h of the seed, one pool error per score
    # series in component order, then one residual row per replicate.
    # Every sample curve agrees within 1e-10 (absolute; the radix is 1000).
    rng0 = np.random.default_rng(14)
    grid = np.arange(6.0)
    series = _centred_series(
        np.cumsum(rng0.normal(size=(15, 6)), axis=0) + 0.1 * rng0.normal(size=(15, 6)),
        grid,
    )
    fit = fit_lc(series, n_components=2)
    h_max, b = 3, 4
    path = lc_bootstrap_path(fit, max_horizon=h_max, n_samples=b, rng_seed=99)

    n = fit.n
    table = _PREFIX_TABLES["ets_like"](fit.primary_scores, h_max)
    seeds = np.random.SeedSequence(99).spawn(h_max)
    for h in range(1, h_max + 1):
        rng = np.random.default_rng(seeds[h - 1])
        curves = np.tile(fit.mean_curve, (b, 1))
        point = fit.mean_curve.copy()
        for k in range(2):
            central = table[k, -1, h - 1]
            errors = fit.primary_scores[h:, k] - table[k, : n - h, h - 1]
            draws = central + errors[rng.integers(0, errors.size, b)]
            curves += np.outer(draws, fit.primary_basis.functions[k])
            point += central * fit.primary_basis.functions[k]
        curves += fit.final_residuals[rng.integers(0, n, b)]
        np.testing.assert_allclose(
            path[h - 1].samples, inverse_clr(curves, grid, series.radix), rtol=0, atol=1e-10
        )
        np.testing.assert_allclose(
            path[h - 1].point, inverse_clr(point, grid, series.radix), rtol=0, atol=1e-10
        )


def test_zero_residuals_collapse_the_bands():
    # A rank-one series whose score is exactly linear in time: the fit
    # leaves no residuals, and the smoother forecasts every prefix but the
    # length-one one without error, so every replicate is the point but
    # those that drew that prefix's error, which all share one curve.  With
    # 1 in n - h pool entries so drawn, the 80% band is the point.
    rng = np.random.default_rng(8)
    grid = np.arange(8.0)
    beta = 0.3 * np.arange(25.0) - 2.0
    series = _centred_series(np.outer(beta, rng.normal(size=8)), grid)
    fit = fit_lc(series, n_components=1)
    assert np.max(np.abs(fit.final_residuals)) < 1e-10
    for fc in lc_bootstrap_path(fit, max_horizon=2, n_samples=200, rng_seed=0):
        off = fc.samples[np.max(np.abs(fc.samples - fc.point), axis=1) > 1e-8]
        assert 0 < len(off) < 20
        np.testing.assert_allclose(off, np.broadcast_to(off[0], off.shape), rtol=0, atol=1e-8)
        np.testing.assert_allclose(fc.lower[0.8], fc.point, rtol=0, atol=1e-8)
        np.testing.assert_allclose(fc.upper[0.8], fc.point, rtol=0, atol=1e-8)


def test_path_prefix_matches_shorter_path_and_single_horizon():
    rng = np.random.default_rng(21)
    grid = np.arange(5.0)
    series = _centred_series(np.cumsum(rng.normal(size=(12, 5)), axis=0), grid)
    fit = fit_lc(series, n_components=1)
    long_path = lc_bootstrap_path(fit, max_horizon=5, n_samples=40, rng_seed=3)
    short_path = lc_bootstrap_path(fit, max_horizon=3, n_samples=40, rng_seed=3)
    for h in range(1, 4):
        np.testing.assert_array_equal(
            long_path[h - 1].samples, short_path[h - 1].samples
        )
    single = lc_bootstrap_path(fit, max_horizon=1, n_samples=40, rng_seed=3)[-1]
    np.testing.assert_array_equal(single.samples, long_path[0].samples)


def test_samples_conserve_the_radix():
    rng = np.random.default_rng(2)
    grid = np.arange(7.0)
    series = _centred_series(
        np.cumsum(rng.normal(size=(14, 7)), axis=0) + 0.2 * rng.normal(size=(14, 7)),
        grid,
        radix=100000.0,
    )
    fit = fit_lc(series, n_components=2)
    fc = lc_bootstrap_path(fit, max_horizon=2, n_samples=200, rng_seed=5)[-1]
    w = trapezoid_weights(grid)
    np.testing.assert_allclose(fc.samples @ w, np.full(200, 100000.0), rtol=1e-10)
    assert np.all(fc.samples > 0.0)
    for level in fc.levels:
        np.testing.assert_array_equal(
            fc.lower[level], np.quantile(fc.samples, (1.0 - level) / 2.0, axis=0)
        )


def test_determinism_and_seed_separation():
    rng = np.random.default_rng(33)
    grid = np.arange(6.0)
    series = _centred_series(
        np.cumsum(rng.normal(size=(13, 6)), axis=0) + 0.3 * rng.normal(size=(13, 6)),
        grid,
    )
    fit = fit_lc(series, n_components=1)
    one = lc_bootstrap_path(fit, max_horizon=1, n_samples=60, rng_seed=4)[-1]
    two = lc_bootstrap_path(fit, max_horizon=1, n_samples=60, rng_seed=4)[-1]
    np.testing.assert_array_equal(one.samples, two.samples)
    other = lc_bootstrap_path(fit, max_horizon=1, n_samples=60, rng_seed=5)[-1]
    assert not np.array_equal(one.samples, other.samples)


def test_bootstrap_validation():
    fit = fit_lc(_rank1_series(), 1)
    with pytest.raises(ConfigurationError):
        lc_bootstrap_path(fit, 2, levels=(0.0,))
    with pytest.raises(DomainError):
        lc_bootstrap_path(fit, 0)
    # The error pools need three curves beyond the furthest horizon.
    with pytest.raises(InsufficientDataError):
        lc_bootstrap_path(fit, fit.n - 2)


def test_bootstrap_rejects_non_integral_counts():
    fit = fit_lc(_rank1_series(), 1)
    with pytest.raises(DomainError, match="max_horizon must be an integer"):
        lc_bootstrap_path(fit, 2.5, n_samples=10)
    with pytest.raises(DomainError, match="n_samples must be an integer"):
        lc_bootstrap_path(fit, 2, n_samples=10.7)
    with pytest.raises(DomainError, match="n_samples must be an integer"):
        lc_bootstrap_path(fit, 2, n_samples=np.float64(10.0))
    path = lc_bootstrap_path(fit, np.int32(2), n_samples=np.int64(10))
    assert [fc.samples.shape[0] for fc in path] == [10, 10]


def test_overlapping_paths_match_their_runs_alone():
    # Three paths at once, as backtest windows on worker threads run them,
    # under a short switch interval: every path draws from its own
    # generators, so each equals its run alone.
    rng = np.random.default_rng(17)
    series = _centred_series(
        np.cumsum(rng.normal(size=(16, 6)), axis=0) + 0.2 * rng.normal(size=(16, 6)),
        np.arange(6.0),
    )
    fit = fit_lc(series, n_components=2)
    alone = {
        seed: lc_bootstrap_path(fit, max_horizon=2, n_samples=120, rng_seed=seed)
        for seed in (1, 2, 3)
    }
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        with ThreadPoolExecutor(max_workers=3) as pool:
            runs = {
                seed: pool.submit(lc_bootstrap_path, fit, max_horizon=2, n_samples=120,
                                  rng_seed=seed)
                for seed in alone
            }
            together = {seed: run.result(timeout=60) for seed, run in runs.items()}
    finally:
        sys.setswitchinterval(interval)
    for seed, path in together.items():
        for fc, ref in zip(path, alone[seed]):
            np.testing.assert_array_equal(fc.samples, ref.samples)
