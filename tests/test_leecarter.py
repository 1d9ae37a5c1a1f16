"""Principal-component baseline and its residual-resampling bootstrap."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codaboot import (
    ClrSeries,
    ConfigurationError,
    DomainError,
    RankError,
    fit_lc,
    lc_bootstrap_path,
    trapezoid_weights,
)
from codaboot import leecarter
from codaboot.bootstrap import _PREFIX_TABLES, _one_blas_thread, _openblas_threads
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
    assert np.max(np.abs(fit.residuals)) < 1e-10
    assert np.linalg.norm(fit.components[0]) == pytest.approx(1.0, abs=1e-12)
    peak = np.argmax(np.abs(fit.components[0]))
    assert fit.components[0, peak] > 0.0
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
    assert float(np.sum(fit.residuals**2)) == pytest.approx(tail, rel=1e-10)
    # The kept triplets match the SVD up to the fixed sign convention.
    np.testing.assert_allclose(
        np.abs(np.linalg.norm(fit.scores, axis=0)), singular[:2], rtol=1e-10
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
    assert fit_lc(series, np.int64(2)).n_components == 2


@st.composite
def _pseudo_sample_stacks(draw, wide):
    """A ``(B, n, D)`` stack with ``n < D`` when ``wide``, else ``n >= D``,
    and a component count; some stacks carry one slice whose centred rank
    is below the count."""
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
        deficient = draw(st.integers(0, b - 1), label="slice")
        rank = draw(st.integers(1, k - 1), label="rank")
        stack[deficient] = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, d)) * scale
    return stack + rng.normal(size=d), k, deficient


@pytest.mark.parametrize("wide", [True, False], ids=["n<D", "n>=D"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stacked_decomposition_matches_the_svd_of_each_slice(wide, data):
    # Means are identical.  Components agree within 1e-13 * λ_1 / δ_j and
    # scores within σ_1 times that, δ_j being the distance of λ_j = σ_j²
    # to its nearest neighbour (λ_{m+1} = 0): the eigenvector perturbation
    # bound, about 450 ε.  Fallback slices, rank-deficient ones included,
    # equal the SVD to the bit, and no slice depends on its stack.
    stack, k, deficient = data.draw(_pseudo_sample_stacks(wide))
    means, components, scores, fallback = leecarter._decompose_stack(stack.copy(), k)
    if deficient is not None:
        assert fallback[deficient]
    for i, values in enumerate(stack):
        mean, comp, sc = leecarter._decompose(values, k)
        np.testing.assert_array_equal(means[i], mean)
        alone = leecarter._decompose_stack(values[None].copy(), k)
        for part, got in zip(alone, (means, components, scores, fallback)):
            np.testing.assert_array_equal(part[0], got[i])
        if fallback[i]:
            np.testing.assert_array_equal(components[i], comp)
            np.testing.assert_array_equal(scores[i], sc)
            continue
        singular = np.linalg.svd(values - mean, compute_uv=False)
        lam = np.append(singular**2, 0.0)
        for j in range(k):
            above = lam[j - 1] - lam[j] if j else np.inf
            bound = 1e-13 * lam[0] / min(above, lam[j] - lam[j + 1])
            np.testing.assert_allclose(components[i, j], comp[j], rtol=0, atol=bound)
            np.testing.assert_allclose(
                scores[i, :, j], sc[:, j], rtol=0, atol=bound * singular[0]
            )


def test_bootstrap_replicates_follow_the_documented_recipe():
    # Re-run the documented per-replicate algorithm, refitting each
    # pseudo-sample by its own SVD, with the same seed, and compare every
    # sample curve within 1e-10 (absolute; the radix is 1000).  The path
    # refits a block of pseudo-samples from its Gram eigenpairs, which
    # rounds differently from the SVD.
    rng0 = np.random.default_rng(14)
    grid = np.arange(6.0)
    series = _centred_series(
        np.cumsum(rng0.normal(size=(15, 6)), axis=0) + 0.1 * rng0.normal(size=(15, 6)),
        grid,
    )
    fit = fit_lc(series, n_components=2)
    h_max, b = 3, 4
    path = lc_bootstrap_path(fit, max_horizon=h_max, n_samples=b, rng_seed=99)

    fitted = fit.mean_curve + fit.scores @ fit.components
    pooled = fit.residuals.ravel()
    rng = np.random.default_rng(99)
    n, d = fit.residuals.shape
    for rep in range(b):
        draws = pooled[rng.integers(0, pooled.size, (n, d))]
        pseudo = fitted + draws
        mean_curve = pseudo.mean(axis=0)
        left, singular, right = np.linalg.svd(pseudo - mean_curve, full_matrices=False)
        components = right[:2].copy()
        scores = left[:, :2] * singular[:2]
        for k in range(2):
            peak = np.argmax(np.abs(components[k]))
            if components[k, peak] < 0.0:
                components[k] = -components[k]
                scores[:, k] = -scores[:, k]
        future = _PREFIX_TABLES["ets_like"](scores, h_max)[:, -1].T
        curves = mean_curve + future @ components
        for h in range(1, h_max + 1):
            expected = inverse_clr(curves[h - 1], grid, series.radix)
            np.testing.assert_allclose(
                path[h - 1].samples[rep], expected, rtol=0, atol=1e-10
            )


@pytest.mark.parametrize("resample", ["entries", "rows"])
def test_path_does_not_depend_on_the_extrapolation_block(monkeypatch, resample):
    rng = np.random.default_rng(17)
    grid = np.arange(6.0)
    series = _centred_series(
        np.cumsum(rng.normal(size=(16, 6)), axis=0) + 0.2 * rng.normal(size=(16, 6)),
        grid,
    )
    fit = fit_lc(series, n_components=2)
    paths = []
    # Blocks of 1 and 3 replicates (50 is not a multiple of 3) and one
    # block holding all 50.
    for block in (1, 3, 60):
        monkeypatch.setattr(leecarter, "_BLOCK_SERIES", block * fit.n_components)
        paths.append(
            lc_bootstrap_path(
                fit, max_horizon=3, n_samples=50, rng_seed=8, resample=resample
            )
        )
    for other in paths[1:]:
        for fc, ref in zip(other, paths[0]):
            np.testing.assert_array_equal(fc.samples, ref.samples)
            for level in ref.levels:
                np.testing.assert_array_equal(fc.lower[level], ref.lower[level])
                np.testing.assert_array_equal(fc.upper[level], ref.upper[level])


def test_zero_residuals_collapse_the_bands():
    series = _rank1_series(seed=8, n=25)
    fit = fit_lc(series, n_components=1)
    fc = lc_bootstrap_path(fit, max_horizon=2, n_samples=50, rng_seed=0)[-1]
    np.testing.assert_allclose(fc.lower[0.8], fc.upper[0.8], rtol=0, atol=1e-8)
    np.testing.assert_allclose(fc.lower[0.8], fc.point, rtol=0, atol=1e-8)


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


def test_kept_samples_are_views_of_one_replicate_buffer():
    # Horizons map their replicates back in the buffer that the replicate
    # loop fills, so kept samples are not a second copy of it.
    path = lc_bootstrap_path(fit_lc(_rank1_series(), 1), 3, n_samples=40, rng_seed=1)
    buffer = path[0].samples.base
    assert buffer is not None and buffer.shape == (3, 40, 8)
    assert all(fc.samples.base is buffer for fc in path)


def test_determinism_and_mode_separation():
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
    rows = lc_bootstrap_path(
        fit, max_horizon=1, n_samples=60, rng_seed=4, resample="rows"
    )[-1]
    assert not np.array_equal(one.samples, rows.samples)


def test_bootstrap_validation():
    fit = fit_lc(_rank1_series(), 1)
    with pytest.raises(ConfigurationError):
        lc_bootstrap_path(fit, 2, resample="columns")
    with pytest.raises(ConfigurationError):
        lc_bootstrap_path(fit, 2, levels=(0.0,))
    with pytest.raises(DomainError):
        lc_bootstrap_path(fit, 0)


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


def _pipeline_fit(seed=17, n=16, d=6, k=2):
    rng = np.random.default_rng(seed)
    series = _centred_series(
        np.cumsum(rng.normal(size=(n, d)), axis=0) + 0.2 * rng.normal(size=(n, d)),
        np.arange(float(d)),
    )
    return fit_lc(series, n_components=k)


@pytest.mark.parametrize("resample", ["entries", "rows"])
def test_pipelined_path_equals_a_serial_loop_over_the_blocks(resample):
    # Blocks of 24 replicates at k = 2, so 50 replicates end on a block of
    # 2.  The reference draws, refits and extrapolates one block after the
    # other on the calling thread, under the same one-thread BLAS pin.
    fit = _pipeline_fit()
    h_max, b, k = 3, 50, fit.n_components
    block = leecarter._BLOCK_SERIES // k
    assert b % block != 0
    path = lc_bootstrap_path(fit, max_horizon=h_max, n_samples=b, rng_seed=8,
                             resample=resample)

    n, d = fit.residuals.shape
    fitted = fit.mean_curve + fit.scores @ fit.components
    pooled = fit.residuals.ravel()
    rng = np.random.default_rng(8)
    curves = []
    with _one_blas_thread():
        for start in range(0, b, block):
            pseudo = np.empty((min(block, b - start), n, d))
            for row in pseudo:
                if resample == "entries":
                    draws = pooled[rng.integers(0, pooled.size, (n, d))]
                else:
                    draws = fit.residuals[rng.integers(0, n, n)]
                np.add(fitted, draws, out=row)
            means, components, scores, _ = leecarter._decompose_stack(pseudo, k)
            futures = leecarter._extrapolate_scores(scores, h_max)
            curves.append(means[:, None, :] + futures @ components)
        curves = np.concatenate(curves)
        for h in range(1, h_max + 1):
            expected = inverse_clr(curves[:, h - 1], fit.grid, fit.radix)
            np.testing.assert_array_equal(path[h - 1].samples, expected)


@pytest.mark.skipif(
    _openblas_threads() is None,
    reason="numpy's bundled OpenBLAS exports no known thread-count symbol",
)
def test_both_pipeline_stages_run_on_one_blas_thread(monkeypatch):
    set_threads, get_threads = _openblas_threads()
    seen = {"refit": [], "extrapolate": []}

    def recording(stage, function):
        def wrapped(*args):
            seen[stage].append((threading.get_ident(), get_threads()))
            return function(*args)
        return wrapped

    monkeypatch.setattr(leecarter, "_decompose_stack",
                        recording("refit", leecarter._decompose_stack))
    monkeypatch.setattr(leecarter, "_extrapolate_scores",
                        recording("extrapolate", leecarter._extrapolate_scores))
    original = get_threads()
    try:
        # A count other than the default and other than the pin.
        set_threads(3)
        lc_bootstrap_path(_pipeline_fit(), max_horizon=2, n_samples=100, rng_seed=1)
        assert get_threads() == 3
    finally:
        set_threads(original)
    caller = threading.get_ident()
    # Five blocks of 24, then the point forecast on the calling thread.
    assert len(seen["refit"]) == 5 and len(seen["extrapolate"]) == 6
    assert {count for _, count in seen["refit"] + seen["extrapolate"]} == {1}
    assert {ident for ident, _ in seen["extrapolate"]} == {caller}
    assert caller not in {ident for ident, _ in seen["refit"]}


def test_a_failing_refit_stops_the_pipeline_and_cleans_up(monkeypatch):
    blas = _openblas_threads()
    refit = leecarter._decompose_stack
    failure = RuntimeError("third block failed")
    calls = []

    def failing(stack, n_components):
        calls.append(len(stack))
        if len(calls) == 3:
            raise failure
        return refit(stack, n_components)

    monkeypatch.setattr(leecarter, "_decompose_stack", failing)
    threads = threading.active_count()
    original = blas[1]() if blas else None
    try:
        if blas:
            blas[0](3)
        with pytest.raises(RuntimeError) as info:
            lc_bootstrap_path(_pipeline_fit(), max_horizon=2, n_samples=200, rng_seed=1)
        if blas:
            assert blas[1]() == 3
    finally:
        if blas:
            blas[0](original)
    assert info.value is failure
    # No block is refit after the one that failed.
    assert calls == [24, 24, 24]
    assert threading.active_count() == threads


def test_overlapping_paths_match_their_runs_alone():
    # Three paths at once, more than the cores, each with its own helper
    # thread, under a short switch interval: every path keeps its own
    # generator and stacks, so each equals its run alone.
    fit = _pipeline_fit()
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
