"""Coverage metrics and the expanding-window backtest harness."""

import dataclasses
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codaboot import (
    BacktestPlan,
    ConfigurationError,
    DomainError,
    MethodConfig,
    RankError,
    ShapeError,
    bootstrap_forecast_path,
    ecp,
    fit_dfm,
    fit_lc,
    make_factor_grid,
    run_backtest,
    series_prefix,
    trapezoid_weights,
)
from codaboot import cli, evaluation
from codaboot.bootstrap import SCORE_METHODS, BootstrapForecast, _openblas_threads
from codaboot.coda import clr
from codaboot.evaluation import MODEL_FORECASTERS, first_stage, fit_dfm_for, forecast


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


def test_ecp_counts_a_point_outside_an_inverted_band_once():
    # The first point lies above its upper bound and below its lower one,
    # which is one miss; the second point is covered.
    assert ecp([[5.0, 5.0]], [[6.0, 0.0]], [[4.0, 9.0]], 1, 1) == 0.5
    assert ecp([[5.0, 5.0]], [[6.0, 6.0]], [[4.0, 4.0]], 1, 1) == 0.0


def test_ecp_rejects_nan_bounds_and_nonfinite_holdouts():
    # A comparison with NaN is false, so a NaN would never count as a miss.
    for lower, upper in ((np.nan, np.nan), (0.0, np.nan), (np.nan, 2.0)):
        with pytest.raises(DomainError, match="NaN"):
            ecp([[1.0]], [[lower]], [[upper]], 1, 1)
    for holdout in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="holdouts must be finite"):
            ecp([[holdout]], [[0.0]], [[2.0]], 1, 1)
    # Infinite bounds still cover everything on their side.
    assert ecp([[1.0, 1.0]], [[-np.inf, 2.0]], [[np.inf, np.inf]], 1, 1) == 0.5


def test_backtest_refuses_a_forecaster_with_nan_bands():
    grid = make_factor_grid(n_years=30, n_ages=6, seed=1)
    plan = BacktestPlan(
        initial_window=24,
        max_horizon=4,
        levels=(0.8,),
        configs=(MethodConfig(model="scripted", components="one"),),
    )
    with pytest.raises(DomainError, match="NaN"):
        _run_scripted(grid, plan, _constant_band(np.nan, np.nan))


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


@pytest.mark.parametrize("name", ["independence_lags", "independence_dim"])
@pytest.mark.parametrize("value", [0, 2.5, True], ids=["zero", "fraction", "bool"])
def test_method_config_rejects_bad_independence_settings(name, value):
    # A forced fit runs no independence test, so the test's own check
    # would no longer catch these; the config does, whatever the stage.
    with pytest.raises(ConfigurationError, match=f"^{name} must be"):
        MethodConfig(**{name: value})


def _assert_same_fit(fit, other):
    for field in dataclasses.fields(fit):
        a, b = getattr(fit, field.name), getattr(other, field.name)
        if dataclasses.is_dataclass(a):
            _assert_same_fit(a, b)
        else:
            np.testing.assert_array_equal(a, b, strict=True, err_msg=field.name)


def test_only_an_unforced_fit_runs_the_independence_test(tmp_path, monkeypatch):
    # The residual-stage policy lives in evaluation: a forced fit skips the
    # test, an unforced one makes it once, and fit and diagnose report it.
    calls = []
    original = evaluation.independence_test

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "codaboot" and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)

    grid = make_factor_grid(n_years=30, n_ages=8, seed=1)
    forced = MethodConfig(components="one", n_samples=20)
    forecast(clr(grid), forced, 2, (0.8,), 0)
    run_backtest(grid, BacktestPlan(initial_window=25, max_horizon=2, configs=(forced,)))
    assert len(calls) == 0
    common = ["--synthetic", "30", "--components", "one"]
    for command in (["fit"], ["diagnose", "--kpss-permutations", "9"]):
        calls.clear()
        assert cli.main(command + common + ["--out", str(tmp_path / command[0])]) == 0
        assert len(calls) == 1, command[0]

    # Unforced, the fit is the first stage's where the test finds
    # independence and the forced fit where it finds dependence.
    branches = {True: 0, False: 0}
    for seed in range(12):
        for n_years in (30, 60):
            series = clr(make_factor_grid(n_years, seed=seed))
            for components in ("one", 2, "six"):
                for lags in (1, 5):
                    config = MethodConfig(
                        components=components, force_residual_stage=False,
                        independence_lags=lags, independence_dim=1,
                    )
                    calls.clear()
                    fit = fit_dfm_for(series, config)
                    assert len(calls) == 1
                    first, independence = first_stage(series, config)
                    expected = (
                        fit_dfm_for(series, dataclasses.replace(config, force_residual_stage=True))
                        if independence.dependent() else first
                    )
                    _assert_same_fit(fit, expected)
                    branches[independence.dependent()] += 1
    assert min(branches.values()) > 0


def test_forecast_rejects_an_unknown_model_by_name():
    series = clr(make_factor_grid(n_years=20, n_ages=6, seed=0))
    with pytest.raises(ConfigurationError, match="'x'"):
        forecast(series, MethodConfig(model="x"), 3, (0.8,), 0)


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


_SCORED_GRID = make_factor_grid(n_years=30, n_ages=6, seed=5)


@settings(max_examples=40, deadline=None)
@given(
    initial_window=st.integers(10, 27),
    data=st.data(),
    levels=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3, unique=True),
    n_jobs=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_backtest_scores_match_a_per_window_per_age_count(
    initial_window, data, levels, n_jobs, seed
):
    # Random bands (lower <= upper) around each window's own holdout, some
    # with a bound exactly on it, scored by hand one window and one age at
    # a time.
    grid = _SCORED_GRID
    n, d = grid.deaths.shape
    max_horizon = data.draw(st.integers(1, min(n - initial_window, initial_window - 3)))
    target = grid.deaths * (grid.radix / (grid.deaths @ trapezoid_weights(grid.ages)))[:, None]
    drawn = {}

    def scripted(series, config, horizons, levels, rng_seed):
        rng = np.random.default_rng(rng_seed)
        out = []
        for h in range(1, horizons + 1):
            y = target[series.n + h - 1]
            lower, upper = {}, {}
            for l in levels:
                lo = np.where(rng.random(d) < 0.2, y, y * rng.uniform(0.85, 1.05, d))
                up = np.where(rng.random(d) < 0.2, y, y * rng.uniform(0.95, 1.15, d))
                lower[l], upper[l] = lo, np.maximum(lo, up)
            drawn[(series.n, h)] = (lower, upper)
            out.append(_ScriptedForecast(lower=lower, upper=upper))
        return out

    plan = BacktestPlan(
        initial_window=initial_window,
        max_horizon=max_horizon,
        levels=tuple(levels),
        configs=(MethodConfig(model="scripted", components="one"),),
    )
    MODEL_FORECASTERS["scripted"] = scripted
    try:
        report = run_backtest(grid, plan, rng_seed=seed, n_jobs=n_jobs)
    finally:
        del MODEL_FORECASTERS["scripted"]

    for row in report.rows:
        for h in range(1, max_horizon + 1):
            windows = [w for w in range(initial_window, n) if w + h <= n]
            misses = 0
            for w in windows:
                lower, upper = drawn[(w, h)]
                for a in range(d):
                    y = target[w + h - 1, a]
                    misses += y < lower[row.level][a] or y > upper[row.level][a]
            assert row.window_counts[h - 1] == len(windows)
            assert row.ecp_by_horizon[h - 1] == 1.0 - misses / (len(windows) * d)


def test_a_serial_backtest_stops_at_the_first_window_that_raises():
    grid = make_factor_grid(n_years=30, n_ages=6, seed=1)
    calls = []

    def failing(series, config, horizons, levels, rng_seed):
        calls.append((config.components, series.n, threading.current_thread()))
        if series.n == 26:
            raise RuntimeError("window 26 failed")
        band = {l: np.zeros(series.grid.size) for l in levels}
        return [_ScriptedForecast(lower=band, upper=band)] * horizons

    plan = BacktestPlan(
        initial_window=24,
        max_horizon=3,
        levels=(0.8,),
        configs=(
            MethodConfig(model="scripted", components="one"),
            MethodConfig(model="scripted", components="six"),
        ),
    )
    MODEL_FORECASTERS["scripted"] = failing
    try:
        with pytest.raises(RuntimeError, match="window 26 failed"):
            run_backtest(grid, plan, n_jobs=1)
    finally:
        del MODEL_FORECASTERS["scripted"]
    main = threading.main_thread()
    assert calls == [("one", 24, main), ("one", 25, main), ("one", 26, main)]


@pytest.mark.skipif(
    _openblas_threads() is None,
    reason="numpy's bundled OpenBLAS exports no known thread-count symbol",
)
@pytest.mark.parametrize("n_jobs", [1, 2])
def test_backtest_windows_run_on_one_blas_thread_and_restore_the_count(n_jobs):
    set_threads, get_threads = _openblas_threads()
    grid = make_factor_grid(n_years=30, n_ages=6, seed=1)
    seen = []

    def counting(series, config, horizons, levels, rng_seed):
        seen.append(get_threads())
        if config.components == "six" and series.n == 26:
            raise RuntimeError("window 26 failed")
        band = {l: np.zeros(series.grid.size) for l in levels}
        return [_ScriptedForecast(lower=band, upper=band)] * horizons

    def plan(components):
        return BacktestPlan(
            initial_window=24,
            max_horizon=3,
            levels=(0.8,),
            configs=(MethodConfig(model="scripted", components=components),),
        )

    original = get_threads()
    MODEL_FORECASTERS["scripted"] = counting
    try:
        # A count other than the default and other than the pin, so that
        # a run which leaves the pin or resets to the default shows.
        set_threads(3)
        run_backtest(grid, plan("one"), n_jobs=n_jobs)
        assert get_threads() == 3
        with pytest.raises(RuntimeError, match="window 26 failed"):
            run_backtest(grid, plan("six"), n_jobs=n_jobs)
        assert get_threads() == 3
    finally:
        del MODEL_FORECASTERS["scripted"]
        set_threads(original)
    assert len(seen) >= 6 + 3
    assert set(seen) == {1}


@pytest.mark.skipif(
    _openblas_threads() is None,
    reason="numpy's bundled OpenBLAS exports no known thread-count symbol",
)
def test_overlapping_backtests_share_the_blas_pin():
    # Each backtest starts while the one before it runs.  The first to
    # finish must not unpin the others' windows, and the count must not
    # be left at the pin once all are done.
    set_threads, get_threads = _openblas_threads()
    grid = make_factor_grid(n_years=30, n_ages=6, seed=1)
    seen = []

    def sleeping(series, config, horizons, levels, rng_seed):
        seen.append(get_threads())
        time.sleep(0.03)
        band = {l: np.zeros(series.grid.size) for l in levels}
        return [_ScriptedForecast(lower=band, upper=band)] * horizons

    def backtest(initial_window, delay):
        time.sleep(delay)
        plan = BacktestPlan(
            initial_window=initial_window,
            max_horizon=1,
            levels=(0.8,),
            configs=(MethodConfig(model="scripted", components="one"),),
        )
        return run_backtest(grid, plan, n_jobs=1)

    original = get_threads()
    interval = sys.getswitchinterval()
    MODEL_FORECASTERS["scripted"] = sleeping
    try:
        set_threads(3)
        sys.setswitchinterval(1e-5)
        # More backtests than cores, under a short switch interval.
        with ThreadPoolExecutor(max_workers=3) as pool:
            runs = [pool.submit(backtest, 27, 0.0), pool.submit(backtest, 24, 0.02),
                    pool.submit(backtest, 26, 0.04)]
            for run in runs:
                run.result(timeout=30)
        assert get_threads() == 3
    finally:
        sys.setswitchinterval(interval)
        del MODEL_FORECASTERS["scripted"]
        set_threads(original)
    assert len(seen) == 3 + 6 + 4
    assert set(seen) == {1}


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


_TINY_PLAN = BacktestPlan(
    initial_window=25, max_horizon=2, configs=(MethodConfig(components="one", n_samples=10),)
)
_ONES = np.ones((1, 3))


@pytest.mark.parametrize(
    "name, error, call",
    [
        ("n_samples", DomainError,
         lambda grid: bootstrap_forecast_path(fit_dfm(clr(grid), 1, 1), 2, n_samples=True)),
        ("max_horizon", DomainError,
         lambda grid: bootstrap_forecast_path(fit_dfm(clr(grid), 1, 1), True)),
        ("n_components", RankError, lambda grid: fit_lc(clr(grid), True)),
        ("n_primary", DomainError, lambda grid: fit_dfm(clr(grid), True, 1)),
        ("n_jobs", ConfigurationError, lambda grid: run_backtest(grid, _TINY_PLAN, n_jobs=True)),
        ("horizon", DomainError, lambda grid: ecp(_ONES, _ONES, _ONES, True, 1)),
    ],
    ids=["n_samples", "max_horizon", "n_components", "n_primary", "n_jobs", "horizon"],
)
def test_a_bool_is_not_a_count(name, error, call):
    # bool is an int subclass, so operator.index(True) is 1: without the
    # check each call would silently run with a count of one.
    grid = make_factor_grid(n_years=30, n_ages=6, seed=4)
    with pytest.raises(error, match=f"^{name} must be an integer, got True$"):
        call(grid)


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


@pytest.mark.parametrize(
    "option",
    [{"primary_method": method} for method in SCORE_METHODS] + [{"model": "lc"}],
    # Lee-Carter replicates draw whole residual rows from the pools.
    ids=[f"dfm-{method}" for method in SCORE_METHODS] + ["lc-rows"],
)
def test_bands_only_forecasts_equal_the_kept_samples_path_bit_for_bit(option):
    series = clr(make_factor_grid(40, 31, seed=3))
    config = MethodConfig(n_samples=300, **option)
    bands_only = forecast(series, config, 5, (0.8, 0.95), 11)
    kept = forecast(series, config, 5, (0.8, 0.95), 11, keep_samples=True)
    for fc, ref in zip(bands_only, kept, strict=True):
        assert fc.samples is None
        assert ref.samples.shape == (300, 31)
        np.testing.assert_array_equal(fc.point, ref.point)
        for level in ref.levels:
            np.testing.assert_array_equal(fc.lower[level], ref.lower[level])
            np.testing.assert_array_equal(fc.upper[level], ref.upper[level])


def test_bands_only_factor_forecasts_hold_one_horizon_of_replicates():
    # A bands-only path assembles every horizon in one workspace, so its
    # traced peak barely grows with the horizon count; a path that keeps
    # its samples holds one (n_samples, D) array per horizon.
    series = clr(make_factor_grid(80, 31))
    config = MethodConfig()
    one_array = config.n_samples * 31 * 8

    def peak(horizons, keep_samples):
        tracemalloc.start()
        try:
            forecast(series, config, horizons, (0.8, 0.95), 0, keep_samples=keep_samples)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20, False) - peak(5, False) < one_array
    assert peak(20, True) - peak(5, True) >= 12 * one_array
