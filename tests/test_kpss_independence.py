"""Monte Carlo behaviour of the stationarity and independence diagnostics.

Every loop below runs with frozen seeds, so the asserted fractions are
deterministic; the thresholds leave room against the sampling noise that
would appear under reseeding.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from codaboot import (
    ClrSeries,
    DomainError,
    InsufficientDataError,
    IndependenceResult,
    bartlett_weight,
    clr,
    difference_series,
    functional_kpss_pvalue,
    independence_test,
    long_run_covariance,
    make_synthetic_grid,
    plugin_bandwidth,
    trapezoid_weights,
)
from codaboot import fts
from codaboot.fts import _chi2_upper_tail

GRID = np.arange(10.0)
BLOCK = fts._PERMUTATION_BLOCK


def _centred_series(values, grid=GRID):
    w = trapezoid_weights(grid)
    eta = grid[-1] - grid[0]
    centred = values - ((values @ w) / eta)[:, None]
    return ClrSeries(years=np.arange(values.shape[0]), grid=grid, values=centred)


def _statistic(series):
    return functional_kpss_pvalue(series, n_permutations=1)[0]


def _kpss_oracle(values, weights):
    # Reference statistic whose denominator builds the whole long-run
    # covariance surface of the detrended curves, eigenvalue clipping
    # included, and reads its diagonal.
    n = values.shape[0]
    design = np.column_stack([np.ones(n), np.arange(1.0, n + 1.0)])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    fitted = design @ coef
    resid = values - fitted
    numerator = float((np.cumsum(resid, axis=0) ** 2 @ weights).sum()) / n**2
    denominator = float(np.diag(long_run_covariance(resid).values) @ weights)
    # Each part evaluated on the magnitudes of the terms the residuals are
    # differences of; an exact trend leaves a part that is rounding noise
    # of these, which counts as 0 when at most 1e-12 times them.
    size = np.abs(values) + np.abs(fitted)
    num_scale = float((np.cumsum(size, axis=0) ** 2 @ weights).sum()) / n**2
    h = plugin_bandwidth(values)
    den_scale = sum(
        bartlett_weight(lag / h) * (1.0 if lag == 0 else 2.0)
        * float((size[: n - lag] * size[lag:]).sum(axis=0) @ weights) / n
        for lag in range(n)
    )
    if denominator <= 1e-12 * den_scale:
        return 0.0 if numerator <= 1e-12 * num_scale else np.inf
    return numerator / denominator


def _exact_trend(n, slope, rng):
    # Integer curves whose last entry balances the trapezoid integral are
    # exact in floating point at every scale.
    w = trapezoid_weights(GRID)
    level, step = rng.integers(-5, 6, size=(2, GRID.size)).astype(float)
    for curve in (level, step):
        curve[-1] = -2.0 * (curve[:-1] @ w[:-1])
    return level + slope * np.outer(np.arange(n), step)


def _kpss_pvalue_oracle(series, n_permutations, seed):
    observed = _kpss_oracle(series.values, series.weights)
    rng = np.random.default_rng(seed)
    exceed = 0
    for _ in range(n_permutations):
        shuffled = series.values[rng.permutation(series.n)]
        exceed += _kpss_oracle(shuffled, series.weights) >= observed
    return observed, (1 + exceed) / (1 + n_permutations)


def test_kpss_statistic_separates_integrated_from_stationary():
    rw_wins = 0
    rw_stats, iid_stats, diffed_stats = [], [], []
    for i in range(40):
        rng = np.random.default_rng(100 + i)
        iid = rng.normal(size=(40, 10))
        rw = np.cumsum(rng.normal(size=(40, 10)), axis=0)
        s_iid = _statistic(_centred_series(iid))
        s_rw = _statistic(_centred_series(rw))
        s_diff = _statistic(_centred_series(np.diff(rw, axis=0)))
        rw_wins += s_rw > s_iid
        rw_stats.append(s_rw)
        iid_stats.append(s_iid)
        diffed_stats.append(s_diff)
    assert rw_wins / 40 >= 0.9
    # Differencing brings the statistic back to the stationary scale.
    assert np.median(rw_stats) > 2.0 * np.median(iid_stats)
    assert np.median(diffed_stats) < 2.0 * np.median(iid_stats)


def test_kpss_permutation_pvalue_flags_random_walk_only():
    rng = np.random.default_rng(77)
    rw = np.cumsum(rng.normal(size=(30, 10)), axis=0)
    iid = rng.normal(size=(30, 10))
    stat_rw, p_rw = functional_kpss_pvalue(_centred_series(rw), n_permutations=99, seed=5)
    stat_iid, p_iid = functional_kpss_pvalue(_centred_series(iid), n_permutations=99, seed=5)
    assert stat_rw > 0.0 and stat_iid > 0.0
    assert p_rw <= 0.05
    assert p_iid > 0.05


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(10, 60),
    d=st.integers(2, 12),
    integrated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_kpss_statistic_matches_the_full_surface_oracle(n, d, integrated, seed):
    rng = np.random.default_rng(seed)
    grid = np.cumsum(rng.uniform(0.5, 2.0, size=d))
    values = rng.normal(size=(n, d))
    if integrated:
        values = np.cumsum(values, axis=0)
    series = _centred_series(values, grid)
    expected = _kpss_oracle(series.values, series.weights)
    assert _statistic(series) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("seed", [0, 7])
def test_kpss_pvalue_replays_the_full_surface_oracle(seed):
    series = clr(make_synthetic_grid(seed=seed))
    for s in (series, difference_series(series)):
        stat, p_value = functional_kpss_pvalue(s, n_permutations=199, seed=3)
        expected_stat, expected_p = _kpss_pvalue_oracle(s, 199, 3)
        assert stat == pytest.approx(expected_stat, rel=1e-12, abs=0.0)
        assert p_value == expected_p


@pytest.mark.parametrize("n_years", [100, 220])
def test_kpss_on_long_series_replays_the_full_surface_oracle(n_years):
    # The Gram form's rounding grows with the series length; the property
    # test above stops at 60 curves.
    series = clr(make_synthetic_grid(n_years=n_years))
    for s in (series, difference_series(series)):
        stat, p_value = functional_kpss_pvalue(s, n_permutations=99, seed=3)
        expected_stat, expected_p = _kpss_pvalue_oracle(s, 99, 3)
        assert stat == pytest.approx(expected_stat, rel=1e-12, abs=0.0)
        assert p_value == expected_p


@pytest.mark.parametrize("n", [12, 40, 100, 220])
@pytest.mark.parametrize("slope", [1.0, 1e3, 1e5])
def test_kpss_reads_an_exact_trend_as_zero(n, slope):
    # Detrending an exact trend leaves only rounding noise, and every
    # reordering breaks the trend, so p is 1.
    series = ClrSeries(
        years=np.arange(n), grid=GRID, values=_exact_trend(n, slope, np.random.default_rng(n))
    )
    assert functional_kpss_pvalue(series, n_permutations=19, seed=1) == (0.0, 1.0)
    assert _kpss_pvalue_oracle(series, 19, 1) == (0.0, 1.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(10, 40),
    n_permutations=st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]),
    kind=st.sampled_from(["iid", "integrated", "trend"]),
    # Noisy curves integrate to zero only up to their rounding, which the
    # series check bounds at 1e-8, so the trend stays below about 4e5.
    slope=st.sampled_from([1.0, 10.0, 100.0]),
    noise=st.floats(1e-14, 1e-10),
    seed=st.integers(0, 2**32 - 1),
)
def test_kpss_pvalue_matches_the_oracle_across_permutation_blocks(
    n, n_permutations, kind, slope, noise, seed
):
    rng = np.random.default_rng(seed)
    if kind == "trend":
        values = _exact_trend(n, slope, rng)
        jitter = _centred_series(rng.normal(size=values.shape)).values
        values = values + noise * np.max(np.abs(values)) * jitter
        series = ClrSeries(years=np.arange(n), grid=GRID, values=values)
    else:
        values = rng.normal(size=(n, GRID.size))
        series = _centred_series(np.cumsum(values, axis=0) if kind == "integrated" else values)
    with mock.patch.object(fts, "_kpss_near_zero", wraps=fts._kpss_near_zero) as near_zero:
        stat, p_value = functional_kpss_pvalue(series, n_permutations, seed=seed % 1000)
    expected_stat, expected_p = _kpss_pvalue_oracle(series, n_permutations, seed % 1000)
    assert stat == pytest.approx(expected_stat, rel=1e-12, abs=0.0)
    assert p_value == expected_p
    # Both branches run: the denominator of the observed noisy trend is
    # rounding-sized and takes the magnitude sums, while every reordering,
    # and every other series, is read as the plain ratio.
    assert near_zero.call_count == (kind == "trend")


@pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
def test_block_draws_equal_successive_permutation_calls(count):
    one_by_one, blocked = np.random.default_rng(17), np.random.default_rng(17)
    expected = [one_by_one.permutation(23) for _ in range(count)]
    drawn = list(fts._reorderings(blocked, 23, count))
    assert len(drawn) == count
    assert all(np.array_equal(a, b) for a, b in zip(drawn, expected))
    assert blocked.bit_generator.state == one_by_one.bit_generator.state


def test_kpss_reads_an_all_zero_series_as_zero():
    series = _centred_series(np.zeros((15, GRID.size)))
    assert functional_kpss_pvalue(series, n_permutations=19, seed=1) == (0.0, 1.0)


def test_kpss_pvalue_is_deterministic_in_the_seed():
    rng = np.random.default_rng(3)
    series = _centred_series(rng.normal(size=(25, 10)))
    first = functional_kpss_pvalue(series, n_permutations=49, seed=11)
    second = functional_kpss_pvalue(series, n_permutations=49, seed=11)
    assert first == second


def test_kpss_requires_enough_curves_and_permutations():
    series = _centred_series(np.random.default_rng(0).normal(size=(9, 10)))
    with pytest.raises(InsufficientDataError):
        functional_kpss_pvalue(series)
    longer = _centred_series(np.random.default_rng(0).normal(size=(12, 10)))
    with pytest.raises(DomainError):
        functional_kpss_pvalue(longer, n_permutations=0)
    with pytest.raises(DomainError, match="n_permutations must be an integer"):
        functional_kpss_pvalue(longer, n_permutations=9.5)
    assert functional_kpss_pvalue(longer, n_permutations=np.int64(9)) == (
        functional_kpss_pvalue(longer, n_permutations=9)
    )


def test_independence_size_is_honest():
    # Fraction of false rejections at the 5% level over 200 white-noise
    # draws; the chi-square calibration should land near the level.
    rejections = 0
    for i in range(200):
        rng = np.random.default_rng(5000 + i)
        resid = rng.normal(size=(100, 15))
        result = independence_test(resid, lag_count=5, projection_dim=3)
        rejections += result.p_value < 0.05
    assert 0.01 <= rejections / 200 <= 0.10


def test_independence_power_against_ar1_scores():
    detections = 0
    for i in range(40):
        rng = np.random.default_rng(9000 + i)
        eps = rng.normal(size=(100, 8))
        x = np.zeros((100, 8))
        for t in range(1, 100):
            x[t] = 0.8 * x[t - 1] + eps[t]
        detections += independence_test(x, lag_count=5, projection_dim=3).dependent()
    assert detections / 40 >= 0.9


def test_independence_reduces_projection_to_effective_rank():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=(60, 1))
    f = rng.normal(size=12)
    result = independence_test(scores @ f[None, :], lag_count=3, projection_dim=3)
    assert result.projection_dim == 1
    assert not result.degenerate
    assert 0.0 <= result.p_value <= 1.0


def test_independence_degenerates_on_constant_curves():
    result = independence_test(np.full((30, 6), 4.2))
    assert result.degenerate
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert not result.dependent()


def test_independence_input_validation():
    values = np.random.default_rng(1).normal(size=(9, 4))
    with pytest.raises(InsufficientDataError):
        independence_test(values, lag_count=5)
    with pytest.raises(DomainError):
        independence_test(values, lag_count=0)
    with pytest.raises(DomainError):
        independence_test(values, projection_dim=0)
    longer = np.random.default_rng(1).normal(size=(20, 4))
    with pytest.raises(DomainError, match="lag_count must be an integer"):
        independence_test(longer, lag_count=2.5)
    with pytest.raises(DomainError, match="projection_dim must be an integer"):
        independence_test(longer, projection_dim=2.0)
    assert independence_test(
        longer, lag_count=np.int64(2), projection_dim=np.int32(2)
    ) == independence_test(longer, lag_count=2, projection_dim=2)


@pytest.fixture(scope="module")
def chdtrc():
    # scipy is a test-only oracle; the package itself never imports it.
    return pytest.importorskip("scipy.special").chdtrc


@settings(max_examples=300, deadline=None)
@given(df=st.integers(1, 400), x=st.floats(0.0, 4000.0))
def test_chi2_tail_matches_the_scipy_oracle(chdtrc, df, x):
    expected = float(chdtrc(df, x))
    assume(expected >= 1e-290)
    assert abs(_chi2_upper_tail(x, df) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("x", [1e-300, 1e-6, 0.3, 1.0, 7.5, 80.0, 1500.0])
def test_chi2_tail_closed_forms_of_one_and_two_degrees(x):
    assert _chi2_upper_tail(x, 2) == math.exp(-x / 2.0)
    assert _chi2_upper_tail(x, 1) == math.erfc(math.sqrt(x / 2.0))


@pytest.mark.parametrize("df", [1, 2, 3, 45, 400])
def test_chi2_tail_is_one_at_and_below_zero(df):
    for x in (0.0, -0.0, -1e-12, -3.0):
        assert _chi2_upper_tail(x, df) == 1.0


def test_chi2_tail_stays_positive_far_below_the_normal_range():
    # The portmanteau statistic of a 220-year table's first-stage
    # residuals; a running product of the series terms underflows to 0
    # here.  The reference value is scipy's chdtrc.
    got = _chi2_upper_tail(1583.555471705396, 45)
    expected = 1.2306128015096604e-302
    assert 0.0 < got
    assert abs(got - expected) <= 1e-12 * expected


def test_dependence_decision_respects_the_level():
    result = IndependenceResult(
        statistic=10.0, p_value=0.04, lag_count=5, projection_dim=2
    )
    assert result.dependent(level=0.05)
    assert not result.dependent(level=0.01)
    degenerate = IndependenceResult(
        statistic=0.0, p_value=1.0, lag_count=5, projection_dim=0, degenerate=True
    )
    assert not degenerate.dependent(level=0.99)
