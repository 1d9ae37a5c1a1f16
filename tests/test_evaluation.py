"""Coverage metrics and the expanding-window backtest harness."""

import weakref
from dataclasses import dataclass

import numpy as np
import pytest

from codaboot import (
    BacktestPlan,
    ConfigurationError,
    DomainError,
    MethodConfig,
    ShapeError,
    ecp,
    make_factor_grid,
    run_backtest,
    series_prefix,
    trapezoid_weights,
)
from codaboot.bootstrap import BootstrapForecast
from codaboot.coda import clr
from codaboot.evaluation import MODEL_FORECASTERS, fit_dfm_for


def test_ecp_trivial_cases():
    ones = np.ones((3, 4))
    assert ecp(ones * 5.0, ones * 4.0, ones * 6.0, 1, 3) == 1.0
    assert ecp(ones * 9.0, ones * 4.0, ones * 6.0, 1, 3) == 0.0
    assert ecp(ones * 2.0, ones * 4.0, ones * 6.0, 1, 3) == 0.0


def test_ecp_counts_bound_ties_as_covered():
    holdouts = np.array([[4.0, 6.0, 5.0]])
    lowers = np.full((1, 3), 4.0)
    uppers = np.full((1, 3), 6.0)
    assert ecp(holdouts, lowers, uppers, 3, 3) == 1.0


def test_ecp_matches_double_loop_oracle():
    rng = np.random.default_rng(23)
    for _ in range(200):
        windows = int(rng.integers(1, 8))
        d = int(rng.integers(1, 10))
        holdouts = rng.normal(size=(windows, d))
        lowers = rng.normal(loc=-0.5, size=(windows, d))
        uppers = lowers + rng.uniform(0.1, 2.0, size=(windows, d))
        misses = 0
        for i in range(windows):
            for j in range(d):
                if holdouts[i, j] < lowers[i, j] or holdouts[i, j] > uppers[i, j]:
                    misses += 1
        expected = 1.0 - misses / (windows * d)
        h_max = windows  # pick the horizon so the window count matches
        assert ecp(holdouts, lowers, uppers, 1, h_max) == pytest.approx(
            expected, abs=1e-12
        )


def test_ecp_validates_window_count_and_shapes():
    block = np.zeros((4, 3))
    with pytest.raises(ShapeError):
        ecp(block, block, block, 2, 4)  # horizon 2 of 4 needs 3 windows
    with pytest.raises(ShapeError):
        ecp(block, block[:3], block, 1, 4)
    with pytest.raises(DomainError):
        ecp(block, block, block, 0, 4)
    with pytest.raises(DomainError):
        ecp(block, block, block, 5, 4)
    with pytest.raises(DomainError, match="horizon must be an integer"):
        ecp(block[:3], block[:3], block[:3], 2.0, 4)
    with pytest.raises(DomainError, match="max_horizon must be an integer"):
        ecp(block[:3], block[:3], block[:3], 2, 4.5)
    assert ecp(block[:3], block[:3], block[:3], np.int64(2), np.int32(4)) == 1.0


def test_method_config_labels():
    assert MethodConfig().label == "dfm-six"
    assert MethodConfig(model="lc", components="one").label == "lc-one"
    with pytest.raises(TypeError):
        MethodConfig(label="baseline")


def test_plan_validation():
    with pytest.raises(ConfigurationError):
        BacktestPlan(initial_window=9)
    with pytest.raises(ConfigurationError):
        BacktestPlan(initial_window=20, max_horizon=0)
    with pytest.raises(ConfigurationError):
        BacktestPlan(initial_window=20, levels=(1.0,))
    with pytest.raises(ConfigurationError):
        BacktestPlan(initial_window=20, levels=(0.8, 0.8))
    with pytest.raises(ConfigurationError):
        BacktestPlan(initial_window=20, levels=())
    assert BacktestPlan(initial_window=20, levels=[0.8, 0.95]).levels == (0.8, 0.95)
    with pytest.raises(ConfigurationError):
        BacktestPlan(initial_window=20, configs=())


def test_plan_rejects_fractional_counts():
    with pytest.raises(ConfigurationError, match="initial_window must be an integer"):
        BacktestPlan(initial_window=20.5)
    with pytest.raises(ConfigurationError, match="max_horizon must be an integer"):
        BacktestPlan(initial_window=20, max_horizon=2.0)
    plan = BacktestPlan(initial_window=np.int64(20), max_horizon=np.int32(2))
    assert (plan.initial_window, plan.max_horizon) == (20, 2)


def test_series_prefix():
    grid = make_factor_grid(n_years=15, n_ages=7, seed=0)
    series = clr(grid)
    prefix = series_prefix(series, 8)
    assert prefix.n == 8
    np.testing.assert_array_equal(prefix.years, series.years[:8])
    np.testing.assert_array_equal(prefix.values, series.values[:8])
    assert prefix.radix == series.radix


@dataclass
class _ScriptedForecast:
    lower: dict
    upper: dict


def _run_scripted(grid, plan, bands, rng_seed=0):
    """Backtest a "scripted" model whose horizon-h band at every age is
    ``bands(rng, d, h)``, drawn in horizon order from a generator seeded
    by the window's seed.  Returns the report and the ``(window length,
    horizons)`` of every forecaster call."""
    record = []

    def stub(series, config, horizons, levels, rng_seed):
        record.append((series.n, horizons))
        rng = np.random.default_rng(rng_seed)
        d = series.grid.size
        out = []
        for h in range(1, horizons + 1):
            lo, up = bands(rng, d, h)
            out.append(
                _ScriptedForecast(
                    lower={l: lo for l in levels}, upper={l: up for l in levels}
                )
            )
        return out

    MODEL_FORECASTERS["scripted"] = stub
    try:
        return run_backtest(grid, plan, rng_seed=rng_seed), record
    finally:
        del MODEL_FORECASTERS["scripted"]


def _constant_band(lo, up):
    return lambda rng, d, h: (np.full(d, lo), np.full(d, up))


def test_holdouts_are_scored_in_the_forecasts_quadrature_convention():
    # Forecasts integrate to the radix under the trapezoid rule, but grid
    # rows sum to it, so a row's trapezoid-normalised version sits above
    # it at every age by half its edge masses.  Bands that hug the
    # trapezoid-normalised holdout cover every point; scored against the
    # plain-sum row, they would cover none.
    grid = make_factor_grid(n_years=30, n_ages=6, seed=4)
    w = trapezoid_weights(grid.ages)
    target = grid.deaths * (grid.radix / (grid.deaths @ w))[:, None]
    assert np.all(target * (1.0 - 1e-9) > grid.deaths)

    def hugging(series, config, horizons, levels, rng_seed):
        return [
            _ScriptedForecast(
                lower={l: target[series.n + h - 1] * (1.0 - 1e-9) for l in levels},
                upper={l: target[series.n + h - 1] * (1.0 + 1e-9) for l in levels},
            )
            for h in range(1, horizons + 1)
        ]

    plan = BacktestPlan(
        initial_window=24,
        max_horizon=3,
        levels=(0.8,),
        configs=(MethodConfig(model="scripted", components="one"),),
    )
    MODEL_FORECASTERS["scripted"] = hugging
    try:
        report = run_backtest(grid, plan)
    finally:
        del MODEL_FORECASTERS["scripted"]
    np.testing.assert_array_equal(report.rows[0].ecp_by_horizon, np.ones(3))


def test_fit_dfm_for_rejects_other_models():
    series = clr(make_factor_grid(n_years=20, n_ages=6, seed=0))
    for model in ("lc", "scripted"):
        with pytest.raises(ConfigurationError, match="dfm"):
            fit_dfm_for(series, MethodConfig(model=model))


def test_cpd_and_averages():
    # Bands that cover every age at odd horizons and none at even ones
    # give ECPs 1, 0, 1, 0: mean ECP 0.5 and mean CPD (0.2 + 0.8) / 2.
    grid = make_factor_grid(n_years=30, n_ages=6, seed=1)

    cover = _constant_band(-np.inf, np.inf)
    miss = _constant_band(-2.0, -1.0)  # deaths are positive

    def alternating(rng, d, h):
        return (cover if h % 2 else miss)(rng, d, h)

    plan = BacktestPlan(
        initial_window=24,
        max_horizon=4,
        levels=(0.8,),
        configs=(MethodConfig(model="scripted", components="one"),),
    )
    row = _run_scripted(grid, plan, alternating)[0].rows[0]
    np.testing.assert_array_equal(row.ecp_by_horizon, [1.0, 0.0, 1.0, 0.0])
    np.testing.assert_allclose(row.cpd_by_horizon, [0.2, 0.8, 0.2, 0.8], atol=1e-15)
    np.testing.assert_array_equal(row.cpd_by_horizon, np.abs(row.ecp_by_horizon - 0.8))
    assert row.ecp_bar == 0.5
    assert row.cpd_bar == pytest.approx(0.5)


def test_mean_cpd_dominates_mean_ecp_deviation():
    # mean |e_h - c| >= |mean e_h - c| on every row, with random bands
    # that cover a varying share of the holdouts.
    grid = make_factor_grid(n_years=30, n_ages=6, seed=5)
    scale = float(grid.deaths.max())

    def random_band(rng, d, h):
        lo = rng.uniform(0.0, scale, d)
        return lo, lo + rng.uniform(0.0, scale, d)

    rng = np.random.default_rng(31)
    for seed in range(20):
        plan = BacktestPlan(
            initial_window=20,
            max_horizon=int(rng.integers(1, 11)),
            levels=tuple(rng.uniform(0.05, 0.95, size=3)),
            configs=(MethodConfig(model="scripted", components="one"),),
        )
        for row in _run_scripted(grid, plan, random_band, seed)[0].rows:
            np.testing.assert_array_equal(
                row.cpd_by_horizon, np.abs(row.ecp_by_horizon - row.level)
            )
            assert row.ecp_bar == float(np.mean(row.ecp_by_horizon))
            assert row.cpd_bar == float(np.mean(row.cpd_by_horizon))
            assert row.cpd_bar >= abs(row.ecp_bar - row.level) - 1e-12


def test_backtest_window_schedule_and_counts():
    grid = make_factor_grid(n_years=30, n_ages=6, seed=1)
    plan = BacktestPlan(
        initial_window=24,
        max_horizon=5,
        levels=(0.8,),
        configs=(MethodConfig(model="scripted", components="one"),),
    )
    report, record = _run_scripted(grid, plan, _constant_band(-np.inf, np.inf))

    # Fits on windows 24..29; window w forecasts min(5, 30 - w) steps.
    assert record == [(w, min(5, 30 - w)) for w in range(24, 30)]
    row = report.rows[0]
    assert row.label == "scripted-one"
    np.testing.assert_array_equal(row.horizons, np.arange(1, 6))
    np.testing.assert_array_equal(row.window_counts, [6, 5, 4, 3, 2])
    # Infinite bounds cover everything at every horizon.
    np.testing.assert_array_equal(row.ecp_by_horizon, np.ones(5))
    assert row.ecp_bar == 1.0
    assert row.cpd_bar == pytest.approx(0.2)


def test_backtest_empty_bounds_cover_nothing():
    grid = make_factor_grid(n_years=26, n_ages=5, seed=2)
    plan = BacktestPlan(
        initial_window=22,
        max_horizon=2,
        levels=(0.8, 0.95),
        configs=(MethodConfig(model="scripted", components="one"),),
    )
    # Deaths are positive, so they always lie above these bands.
    report, _ = _run_scripted(grid, plan, _constant_band(-2.0, -1.0))
    assert len(report.rows) == 2
    for row in report.rows:
        np.testing.assert_array_equal(row.ecp_by_horizon, np.zeros(2))
        assert row.cpd_bar == pytest.approx(row.level)


def test_windows_release_their_samples_before_the_next_window():
    # Scoring reads only the bands, so a serial backtest must have let go
    # of every earlier window's bootstrap samples by the time the next
    # window starts.
    grid = make_factor_grid(n_years=30, n_ages=6, seed=1)
    earlier = []

    def sampling(series, config, horizons, levels, rng_seed):
        alive = [ref for ref in earlier if ref() is not None]
        assert not alive, f"{len(alive)} earlier sample arrays still held"
        rng = np.random.default_rng(rng_seed)
        out = []
        for h in range(1, horizons + 1):
            samples = rng.uniform(0.0, 2.0 * series.radix, (40, series.grid.size))
            lower, upper = np.quantile(samples, [0.1, 0.9], axis=0)
            out.append(
                BootstrapForecast(
                    horizon=h,
                    grid=series.grid,
                    radix=series.radix,
                    point=samples.mean(axis=0),
                    samples=samples,
                    levels=levels,
                    lower={l: lower for l in levels},
                    upper={l: upper for l in levels},
                )
            )
            earlier.append(weakref.ref(samples))
        return out

    plan = BacktestPlan(
        initial_window=24,
        max_horizon=4,
        levels=(0.8,),
        configs=(MethodConfig(model="scripted", components="one"),),
    )
    MODEL_FORECASTERS["scripted"] = sampling
    try:
        report = run_backtest(grid, plan, rng_seed=5, n_jobs=1)
    finally:
        del MODEL_FORECASTERS["scripted"]
    assert len(earlier) == sum(min(4, 30 - w) for w in range(24, 30))
    assert all(ref() is None for ref in earlier)
    np.testing.assert_array_equal(report.rows[0].window_counts, [6, 5, 4, 3])


def test_backtest_is_reproducible_and_jobs_invariant():
    grid = make_factor_grid(n_years=26, n_ages=8, seed=3)
    plan = BacktestPlan(
        initial_window=20,
        max_horizon=2,
        levels=(0.8,),
        configs=(
            MethodConfig(model="dfm", components="one", n_samples=50),
            MethodConfig(model="lc", components="one", n_samples=50),
        ),
    )
    serial = run_backtest(grid, plan, rng_seed=11)
    repeat = run_backtest(grid, plan, rng_seed=11)
    threaded = [run_backtest(grid, plan, rng_seed=11, n_jobs=j) for j in (2, 3)]
    for other in (repeat, *threaded):
        assert len(other.rows) == len(serial.rows)
        for row_a, row_b in zip(serial.rows, other.rows):
            np.testing.assert_array_equal(row_a.ecp_by_horizon, row_b.ecp_by_horizon)
            assert row_a.ecp_bar == row_b.ecp_bar
            assert row_a.cpd_bar == row_b.cpd_bar


def test_backtest_layout_validation():
    grid = make_factor_grid(n_years=30, n_ages=6, seed=4)
    with pytest.raises(ConfigurationError):
        run_backtest(grid, BacktestPlan(initial_window=25, max_horizon=6))
    with pytest.raises(ConfigurationError):
        run_backtest(
            grid,
            BacktestPlan(
                initial_window=10,
                max_horizon=8,
                configs=(MethodConfig(components="one"),),
            ),
        )
    with pytest.raises(ConfigurationError):
        run_backtest(
            grid,
            BacktestPlan(
                initial_window=25,
                max_horizon=2,
                configs=(MethodConfig(model="prophet"),),
            ),
        )
    with pytest.raises(DomainError):
        run_backtest(clr(grid), BacktestPlan(initial_window=25, max_horizon=2))


def test_backtest_rejects_fewer_than_one_job():
    grid = make_factor_grid(n_years=30, n_ages=6, seed=4)
    plan = BacktestPlan(
        initial_window=25,
        max_horizon=2,
        configs=(MethodConfig(components="one", n_samples=10),),
    )
    with pytest.raises(ConfigurationError):
        run_backtest(grid, plan, n_jobs=0)
    with pytest.raises(ConfigurationError, match="n_jobs must be an integer"):
        run_backtest(grid, plan, n_jobs=1.5)


def test_backtest_passes_the_independence_settings_to_the_fit():
    # With the residual stage left to the independence test, the lag
    # count decides in some windows whether the stage runs, which moves
    # the coverage.
    grid = make_factor_grid(60, seed=0)
    coverages = []
    for lags in (1, 5):
        method = MethodConfig(
            components="one",
            force_residual_stage=False,
            independence_lags=lags,
            independence_dim=1,
        )
        plan = BacktestPlan(initial_window=30, max_horizon=5, configs=(method,))
        coverages.append(run_backtest(grid, plan).rows[0].ecp_by_horizon)
    assert not np.array_equal(coverages[0], coverages[1])
