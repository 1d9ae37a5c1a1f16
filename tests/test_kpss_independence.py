"""Monte Carlo behaviour of the stationarity and independence diagnostics.

Every loop below runs with frozen seeds, so the asserted fractions are
deterministic; the thresholds leave room against the sampling noise that
would appear under reseeding.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from codaboot import (
    ClrSeries,
    DomainError,
    InsufficientDataError,
    IndependenceResult,
    clr,
    difference_series,
    functional_kpss_pvalue,
    independence_test,
    long_run_covariance,
    make_synthetic_grid,
    trapezoid_weights,
)
from codaboot.fts import _chi2_upper_tail

GRID = np.arange(10.0)


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
    resid = values - design @ coef
    numerator = float((np.cumsum(resid, axis=0) ** 2 @ weights).sum()) / n**2
    denominator = float(np.diag(long_run_covariance(resid).values) @ weights)
    if denominator <= 1e-14 * max(1.0, numerator):
        return 0.0 if numerator <= 1e-14 else np.inf
    return numerator / denominator


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
