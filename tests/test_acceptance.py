"""Acceptance gate: one test per headline guarantee of the package.

Each test prints a single PASS or FAIL line with the measured quantity, so
a verbose run reads as a checklist.  The tolerances asserted here are the
contract; the unit suites cover the same ground in finer grain.

The real-data ordering check is skipped unless CODABOOT_REAL_LIFETABLE
points at an observed period life table (CODABOOT_REAL_SEX selects the
column on mixed files, default female).
"""

import filecmp
import os
import time

import numpy as np
import pytest

from codaboot import (
    BacktestPlan,
    CovSurface,
    LifeTableGrid,
    MethodConfig,
    bartlett_weight,
    bootstrap_forecast_path,
    build_error_pools,
    clr,
    ecp,
    fit_dfm,
    fpca,
    independence_test,
    inverse_clr,
    long_run_covariance,
    make_factor_grid,
    make_synthetic_grid,
    parse_lifetable,
    rebuild_deaths,
    run_backtest,
    trapezoid_weights,
)
from codaboot.bootstrap import (
    _PREFIX_TABLES,
    SCORE_METHODS,
    _ar_aic_batched,
    _banded_forecast,
    _check_levels,
    _fit_ar_aic,
    _forecast_ar_aic,
)
from codaboot import bootstrap
from codaboot.cli import main
from codaboot.evaluation import MODEL_FORECASTERS

RADIX = 100000.0

# Interval tolerance of the batched AR-AIC prefix fits: every band within
# this fraction of the radix of the per-prefix least-squares path.
AR_BAND_TOLERANCE = 1e-9

# Largest residual-stage pool error, in standard deviations of its score
# column, that a sound AR-AICc fit of the default pools leaves.
POOL_SCALE_BOUND = 100.0

# Interval tolerance of the factor-model assembly: every band within this
# fraction of the radix of adding each component's draws one at a time.
ASSEMBLY_BAND_TOLERANCE = 1e-9


def _verdict(capsys, name, ok, detail):
    # Bypass capture so the checklist is visible on passing runs too.
    with capsys.disabled():
        print(f"\nacceptance {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_clr_round_trip(capsys):
    # 1000 random density curves on the full age grid survive the
    # transform pair to 1e-8 relative, in under a second.
    ages = np.arange(111, dtype=float)
    w = trapezoid_weights(ages)
    rng = np.random.default_rng(0)
    raw = rng.lognormal(mean=0.0, sigma=2.0, size=(1000, ages.size))
    curves = raw * (RADIX / (raw @ w))[:, None]
    start = time.perf_counter()
    back = inverse_clr(clr(curves, ages).values, ages)
    elapsed = time.perf_counter() - start
    dev = float(np.max(np.abs(back - curves) / curves))
    ok = dev <= 1e-8 and elapsed < 1.0
    _verdict(capsys, "clr-round-trip", ok, f"max rel dev {dev:.2e}, {elapsed:.3f}s")


def test_bootstrap_radix_conservation(capsys):
    # Every sample at every horizon of a full bootstrap run integrates
    # back to the radix.
    grid = make_factor_grid(n_years=50, n_ages=31, seed=0)
    fit = fit_dfm(clr(grid), 6, 6)
    path = bootstrap_forecast_path(fit, max_horizon=20, n_samples=1000, rng_seed=0)
    w = trapezoid_weights(grid.ages.astype(float))
    dev = max(float(np.max(np.abs(fc.samples @ w - RADIX))) for fc in path)
    n = sum(fc.samples.shape[0] for fc in path)
    ok = len(path) == 20 and n == 20000 and dev <= 1e-6
    _verdict(
        capsys,
        "radix-conservation",
        ok,
        f"{n} samples, max integral dev {dev:.2e}",
    )


def test_coverage_and_covariance_oracles(capsys):
    # Empirical coverage agrees exactly with a double-loop count, and the
    # long-run covariance matches a direct lag-sum oracle to 1e-12, on 200
    # randomised instances each.
    for i in range(200):
        rng = np.random.default_rng(1000 + i)
        h_max = int(rng.integers(1, 7))
        h = int(rng.integers(1, h_max + 1))
        shape = (h_max + 1 - h, int(rng.integers(1, 6)))
        actual = rng.normal(size=shape)
        a, b = rng.normal(size=shape), rng.normal(size=shape)
        lo, up = np.minimum(a, b), np.maximum(a, b)
        # Force some exact ties onto the bounds.
        tie = rng.random(size=shape) < 0.2
        lo[tie] = actual[tie]
        hits = 0
        for r in range(shape[0]):
            for c in range(shape[1]):
                if lo[r, c] <= actual[r, c] <= up[r, c]:
                    hits += 1
        assert ecp(actual, lo, up, h, h_max) == 1.0 - (shape[0] * shape[1] - hits) / actual.size

    worst = 0.0
    for i in range(200):
        rng = np.random.default_rng(3000 + i)
        m = int(rng.integers(6, 21))
        d = int(rng.integers(2, 5))
        x = rng.normal(size=(m, d))
        grid = np.arange(d, dtype=float)
        h = float(rng.choice([1.0, 2.0, 3.5]))
        c = x - x.mean(axis=0)
        total = np.zeros((d, d))
        for lag in range(-(m - 1), m):
            wt = bartlett_weight(lag / h)
            if wt == 0.0:
                continue
            k = abs(lag)
            g = (c[k:].T @ c[: m - k]) / m
            total += wt * (g if lag >= 0 else g.T)
        total = 0.5 * (total + total.T)
        vals, vecs = np.linalg.eigh(total)
        if vals[0] < 0.0:
            total = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        got = long_run_covariance(x, bandwidth=h, grid=grid)
        worst = max(worst, float(np.max(np.abs(got.values - total))))
    ok = worst <= 1e-12
    _verdict(
        capsys,
        "coverage-and-covariance-oracles",
        ok,
        f"200+200 instances, lrc dev {worst:.2e}",
    )


def test_deviation_dominates_miscoverage(capsys):
    # Mean CPD bounds the deviation of mean ECP from nominal, on every row
    # of a generated report and on a recorded reference pair.
    grid = make_factor_grid(n_years=40, n_ages=8, seed=3)
    plan = BacktestPlan(
        initial_window=30,
        max_horizon=5,
        levels=(0.8, 0.95),
        configs=(
            MethodConfig(model="dfm", components="one", n_samples=100),
            MethodConfig(model="lc", components="one", n_samples=100),
        ),
    )
    report = run_backtest(grid, plan, rng_seed=11)
    margins = [row.cpd_bar - abs(row.ecp_bar - row.level) for row in report.rows]
    # Reference summary pair: ecp_bar 0.7327 at nominal 0.80, cpd_bar 0.0735.
    ref_margin = 0.0735 - abs(0.7327 - 0.80)
    ok = len(margins) == 4 and min(margins) >= -1e-12 and ref_margin >= 0.0
    _verdict(
        capsys,
        "deviation-dominates-miscoverage",
        ok,
        f"min row margin {min(margins):.4f}, reference margin {ref_margin:.4f}",
    )


def test_synthetic_calibration(capsys):
    # Frozen recipe: one-factor model on a one-factor world, 15 windows of
    # 31 ages each (465 interval evaluations), nominal 0.80.
    start = time.perf_counter()
    grid = make_factor_grid(n_years=80, n_ages=31, seed=42)
    plan = BacktestPlan(
        initial_window=65,
        max_horizon=1,
        levels=(0.8,),
        configs=(MethodConfig(model="dfm", components="one", n_samples=1000),),
    )
    report = run_backtest(grid, plan, rng_seed=7)
    elapsed = time.perf_counter() - start
    row = report.rows[0]
    achieved = float(row.ecp_by_horizon[0])
    evaluations = int(row.window_counts[0]) * grid.n_ages
    ok = evaluations >= 200 and 0.70 <= achieved <= 0.90 and elapsed < 300.0
    _verdict(
        capsys,
        "synthetic-calibration",
        ok,
        f"ecp {achieved:.4f} over {evaluations} evaluations, {elapsed:.1f}s",
    )


def test_synthetic_calibration_with_a_realistic_infant_share(capsys):
    # The frozen recipe above on the same one-factor world, with a fixed
    # age profile that gives age 0 about 7% of the radix, as observed
    # tables do; in clr space that only moves the mean curve.  A year's
    # plain sum then exceeds its trapezoid integral by about 3.5% of the
    # radix.  Bands are scored against holdouts in the forecasts'
    # trapezoid convention, and the same bands against the plain-sum rows
    # must read well below nominal, or the check could not see a
    # convention mismatch.
    base = make_factor_grid(n_years=80, n_ages=31, seed=42)
    infant = float(base.deaths[:, 0].mean())
    tilt = np.ones(base.n_ages)
    tilt[0] = 0.07 * (base.radix - infant) / (0.93 * infant)
    deaths = base.deaths * tilt
    deaths *= base.radix / deaths.sum(axis=1, keepdims=True)
    grid = LifeTableGrid(
        years=base.years, ages=base.ages, deaths=deaths, radix=base.radix
    )
    share = grid.deaths[:, 0] / grid.radix
    plan = BacktestPlan(
        initial_window=65,
        max_horizon=1,
        levels=(0.8,),
        configs=(MethodConfig(model="dfm", components="one", n_samples=1000),),
    )
    bands = {}
    registered = MODEL_FORECASTERS["dfm"]

    def recording(series, config, horizons, levels, rng_seed):
        out = registered(series, config, horizons, levels, rng_seed)
        bands[series.n] = (out[0].lower[0.8], out[0].upper[0.8])
        return out

    MODEL_FORECASTERS["dfm"] = recording
    try:
        report = run_backtest(grid, plan, rng_seed=7)
    finally:
        MODEL_FORECASTERS["dfm"] = registered
    achieved = float(report.rows[0].ecp_by_horizon[0])
    windows = sorted(bands)
    plain = ecp(
        grid.deaths[windows],
        np.array([bands[w][0] for w in windows]),
        np.array([bands[w][1] for w in windows]),
        1,
        len(windows),
    )
    ok = (
        0.05 <= share.min()
        and share.max() <= 0.10
        and 0.70 <= achieved <= 0.90
        and plain < 0.70
    )
    _verdict(
        capsys,
        "synthetic-calibration-infant-share",
        ok,
        f"infant share {share.min():.3f}-{share.max():.3f}, ecp {achieved:.4f},"
        f" plain-sum holdouts {plain:.4f}",
    )


def _per_prefix_ar_aic(scores, h_max):
    """The reference AR-AIC table: every prefix of every score column
    fitted alone by least squares."""
    n, k = scores.shape
    table = np.empty((k, n, h_max))
    for j in range(k):
        for i in range(n):
            table[j, i] = _forecast_ar_aic(scores[: i + 1, j], h_max)
    return table


def _ar_bands(grid):
    """Every band of a bootstrap path and of a backtest at one and two
    workers on ``grid``, with AR-AIC on the residual scores alone and on
    both score groups."""
    fit = fit_dfm(clr(grid), 6, 6)
    bands = {}
    for primary in ("random_walk_drift", "ar_aic"):
        path = bootstrap_forecast_path(
            fit, 8, n_samples=200, rng_seed=1, primary_method=primary
        )
        for fc in path:
            bands[("path", primary, fc.horizon)] = (fc.lower, fc.upper)

    plan = BacktestPlan(
        initial_window=grid.n_years - 2,
        max_horizon=2,
        configs=tuple(
            MethodConfig(n_samples=200, primary_method=primary)
            for primary in ("random_walk_drift", "ar_aic")
        ),
    )
    registered = MODEL_FORECASTERS["dfm"]

    def recording(series, config, horizons, levels, rng_seed):
        out = registered(series, config, horizons, levels, rng_seed)
        for h, fc in enumerate(out, start=1):
            key = (n_jobs, config.primary_method, series.n, h)
            bands[key] = (fc.lower, fc.upper)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(MODEL_FORECASTERS, "dfm", recording)
        for n_jobs in (1, 2):
            run_backtest(grid, plan, rng_seed=5, n_jobs=n_jobs)
    return fit, bands


def test_batched_ar_fits_keep_bands_within_the_stated_tolerance(capsys, monkeypatch):
    # The same runs with the batched AR-AIC table and with the per-prefix
    # least-squares reference: bands within AR_BAND_TOLERANCE of the radix,
    # and the same AR order wherever the batched fit kept its own.
    dev = 0.0
    n_bands = 0
    orders_same = True
    for grid in (make_factor_grid(40, 31, seed=3), make_synthetic_grid(40, seed=4)):
        fit, batched = _ar_bands(grid)
        with monkeypatch.context() as patch:
            patch.setitem(_PREFIX_TABLES, "ar_aic", _per_prefix_ar_aic)
            _, reference = _ar_bands(grid)
        assert batched.keys() == reference.keys()
        for key, (lower, upper) in batched.items():
            for level in lower:
                for ours, theirs in ((lower, reference[key][0]), (upper, reference[key][1])):
                    gap = np.max(np.abs(ours[level] - theirs[level])) / grid.radix
                    dev = max(dev, float(gap))
                    n_bands += 1
        for scores in (fit.primary_scores, fit.residual_scores):
            _, order, fallback = _ar_aic_batched(scores.T, 1)
            for j, i in zip(*np.nonzero(~fallback)):
                orders_same &= order[j, i] == _fit_ar_aic(scores[: i + 1, j])[1].size
    ok = dev <= AR_BAND_TOLERANCE and orders_same
    _verdict(
        capsys,
        "batched-ar-tolerance",
        ok,
        f"{n_bands} bands, max |dev| / radix {dev:.1e}, AR orders"
        f" {'identical' if orders_same else 'differ'}",
    )


def test_ar_aic_pools_stay_on_the_scale_of_their_scores(capsys):
    # Every default residual-stage (AR-AICc) pool error stays within
    # POOL_SCALE_BOUND standard deviations of its score column.  An order
    # that fits a short prefix's targets exactly forecasts it explosively.
    worst = []
    for grid in (
        make_synthetic_grid(100, seed=7),
        make_synthetic_grid(60, seed=3),
        make_factor_grid(80, 31, seed=0),
    ):
        fit = fit_dfm(clr(grid), 6, 6)
        pools = build_error_pools(fit, 20)
        scale = fit.residual_scores.std(axis=0)
        worst.append(max(float(np.max(np.abs(pool) / scale)) for pool in pools.residual))
    ok = max(worst) <= POOL_SCALE_BOUND
    _verdict(
        capsys,
        "ar-aic-pool-scale",
        ok,
        "worst |error| / score sd " + ", ".join(f"{r:.3g}" for r in worst),
    )


def test_lee_carter_bands_cover_the_new_years_noise(capsys):
    # Lee-Carter with one component on the two-factor world: 20 windows of
    # 31 ages at horizon 1 on each of four grids.  Bands that cover only
    # the estimation error of the trend read far below nominal here (about
    # 0.2 at 80%); bands with the score errors and residual curves of the
    # error pools read near it at both levels.
    start = time.perf_counter()
    plan = BacktestPlan(
        initial_window=80,
        max_horizon=1,
        levels=(0.8, 0.95),
        configs=(MethodConfig(model="lc", components="one", n_samples=300),),
    )
    coverage = []
    for seed in (1, 2, 3, 42):
        report = run_backtest(make_factor_grid(100, 31, seed), plan)
        coverage.append([row.ecp_by_horizon[0] for row in report.rows])
    elapsed = time.perf_counter() - start
    ecp80, ecp95 = np.mean(coverage, axis=0)
    ok = 0.75 <= ecp80 <= 0.85 and 0.92 <= ecp95 <= 0.98
    _verdict(
        capsys,
        "lee-carter-factor-world-coverage",
        ok,
        f"mean horizon-1 ecp {ecp80:.4f} at 80%, {ecp95:.4f} at 95%, {elapsed:.1f}s",
    )


def _outer_assembly(error_pool, horizon, n_samples=1000, levels=(0.8, 0.95), rng_seed=0,
                    *, workspace=None):
    """The reference assembly: the same draws as ``assemble_forecast``,
    each component's curves added to the mean curve with ``np.outer`` in
    draw order, then the resampled residual curves.  It takes the
    ``workspace`` keyword and ignores it, and always keeps its samples."""
    fit = error_pool.fit
    h, b = horizon, n_samples
    rng = np.random.default_rng(rng_seed)
    clr_point = fit.mean_curve.copy()
    clr_samples = np.tile(fit.mean_curve, (b, 1))
    for basis, errors, central in (
        (fit.primary_basis, error_pool.primary, error_pool.primary_central),
        (fit.residual_basis, error_pool.residual, error_pool.residual_central),
    ):
        for k in range(basis.n_components):
            pool = errors[h - 1][:, k]
            draws = central[h - 1, k] + pool[rng.integers(0, pool.size, b)]
            clr_point += central[h - 1, k] * basis.functions[k]
            clr_samples += np.outer(draws, basis.functions[k])
    clr_samples += fit.final_residuals[rng.integers(0, fit.n, b)]
    return _banded_forecast(fit, h, clr_point, clr_samples, _check_levels(levels), keep=True)


def _dfm_forecasts(grid):
    """Factor-model bootstrap paths on ``grid``, one per primary score
    method."""
    fit = fit_dfm(clr(grid), 6, 6)
    forecasts = {}
    for method in SCORE_METHODS:
        path = bootstrap_forecast_path(
            fit, 5, n_samples=300, rng_seed=3, primary_method=method
        )
        for fc in path:
            forecasts[(method, fc.horizon)] = fc
    return forecasts


def test_assembly_keeps_bands_within_the_stated_tolerance(capsys, monkeypatch):
    # The same paths with the one-product assembly and with every
    # component added on its own: bands within ASSEMBLY_BAND_TOLERANCE of
    # the radix and identical point forecasts.
    dev = 0.0
    n_bands = 0
    points_same = True
    for grid in (make_factor_grid(40, 31, seed=3), make_synthetic_grid(40, seed=4)):
        assembled = _dfm_forecasts(grid)
        with monkeypatch.context() as patch:
            patch.setattr(bootstrap, "assemble_forecast", _outer_assembly)
            reference = _dfm_forecasts(grid)
        assert assembled.keys() == reference.keys()
        for key, fc in assembled.items():
            ref = reference[key]
            points_same &= np.array_equal(fc.point, ref.point)
            for level in fc.levels:
                for ours, theirs in ((fc.lower, ref.lower), (fc.upper, ref.upper)):
                    gap = np.max(np.abs(ours[level] - theirs[level])) / grid.radix
                    dev = max(dev, float(gap))
                    n_bands += 1
    ok = dev <= ASSEMBLY_BAND_TOLERANCE and points_same
    _verdict(
        capsys,
        "assembly-tolerance",
        ok,
        f"{n_bands} bands, max |dev| / radix {dev:.1e}, points"
        f" {'identical' if points_same else 'differ'}",
    )


def test_real_data_interval_ordering(capsys):
    path = os.environ.get("CODABOOT_REAL_LIFETABLE")
    if not path:
        with capsys.disabled():
            print(
                "\nacceptance real-data-ordering: SKIP"
                " (set CODABOOT_REAL_LIFETABLE to run)"
            )
        pytest.skip("no real life table configured")
    sex = os.environ.get("CODABOOT_REAL_SEX", "female")
    grid = rebuild_deaths(parse_lifetable(path, sex_filter=sex))
    plan = BacktestPlan(
        initial_window=grid.n_years - 20,
        max_horizon=20,
        levels=(0.8,),
        configs=(
            MethodConfig(model="dfm", components="six", n_samples=1000),
            MethodConfig(model="lc", components="six", n_samples=1000),
        ),
    )
    report = run_backtest(grid, plan, rng_seed=0)
    by_model = {row.model: row for row in report.rows}
    dfm_bar = by_model["dfm"].ecp_bar
    lc_bar = by_model["lc"].ecp_bar
    ok = lc_bar > dfm_bar
    _verdict(
        capsys,
        "real-data-ordering",
        ok,
        f"lc ecp_bar {lc_bar:.4f} > dfm ecp_bar {dfm_bar:.4f}",
    )


def test_eigenbasis_quality(capsys):
    # Closed-form 2x2 eigenpairs to 1e-10; orthonormality and full-rank
    # reconstruction to 1e-8 on random surfaces.
    surface = CovSurface(
        grid=np.array([0.0, 1.0]),
        values=np.array([[2.0, 1.0], [1.0, 2.0]]),
        weights=np.array([1.0, 1.0]),
    )
    basis = fpca(surface, 2)
    closed = max(
        float(np.max(np.abs(basis.eigenvalues - [3.0, 1.0]))),
        float(np.max(np.abs(basis.functions[0] - np.sqrt(0.5)))),
        float(np.max(np.abs(basis.functions[1] - [np.sqrt(0.5), -np.sqrt(0.5)]))),
    )

    ortho = recon = 0.0
    for i in range(50):
        rng = np.random.default_rng(7000 + i)
        d = int(rng.integers(3, 13))
        grid = np.arange(d, dtype=float)
        b = rng.normal(size=(d, d))
        surface = CovSurface(grid=grid, values=b @ b.T, weights=trapezoid_weights(grid))
        basis = fpca(surface, d)
        gram = (basis.functions * basis.weights) @ basis.functions.T
        ortho = max(ortho, float(np.max(np.abs(gram - np.eye(d)))))
        rebuilt = (basis.functions.T * basis.eigenvalues) @ basis.functions
        recon = max(recon, float(np.max(np.abs(rebuilt - surface.values))))
    ok = closed <= 1e-10 and ortho <= 1e-8 and recon <= 1e-8
    _verdict(
        capsys,
        "eigenbasis-quality",
        ok,
        f"closed form {closed:.2e}, orthonormality {ortho:.2e}, reconstruction {recon:.2e}",
    )


def test_independence_size(capsys):
    # Rejection rate of the residual independence test on white noise sits
    # near its nominal 5% level over 500 fixed-seed simulations.
    start = time.perf_counter()
    rejections = 0
    for i in range(500):
        rng = np.random.default_rng(5000 + i)
        noise = rng.normal(size=(100, 15))
        result = independence_test(noise, lag_count=5, projection_dim=3)
        rejections += result.p_value < 0.05
    elapsed = time.perf_counter() - start
    rate = rejections / 500
    ok = 0.01 <= rate <= 0.10 and elapsed < 120.0
    _verdict(
        capsys,
        "independence-size",
        ok,
        f"rejection rate {rate:.3f} over 500 simulations, {elapsed:.1f}s",
    )


def test_cli_reproducibility(capsys, tmp_path):
    # Same flags and seed give byte-identical outputs, as does moving from
    # one worker to two.
    flags = [
        "backtest",
        "--synthetic", "26",
        "--synthetic-seed", "1",
        "--initial-window", "20",
        "--max-horizon", "2",
        "--replications", "40",
        "--levels", "80",
        "--seed", "3",
        "--components", "one",
    ]
    dirs = {name: tmp_path / name for name in ("a", "b", "j2")}
    assert main(flags + ["--out", str(dirs["a"])]) == 0
    assert main(flags + ["--out", str(dirs["b"])]) == 0
    assert main(flags + ["--jobs", "2", "--out", str(dirs["j2"])]) == 0
    names = sorted(p.name for p in dirs["a"].iterdir())
    same = all(
        filecmp.cmp(dirs["a"] / n, dirs[other] / n, shallow=False)
        for other in ("b", "j2")
        for n in names
    )
    ok = same and "summary.csv" in names and "config.json" in names
    _verdict(
        capsys,
        "cli-reproducibility",
        ok,
        f"{len(names)} files identical across reruns and worker counts",
    )


def test_window_schedule(capsys):
    # n = 100 with initial window 80: horizon h is forecast from exactly
    # 21 - h windows, for h = 1..20.
    grid = make_factor_grid(n_years=100, n_ages=12, seed=5)
    record = []

    def stub(series, config, horizons, levels, rng_seed):
        record.append((series.n, horizons))
        d = series.grid.size

        class Cover:
            lower = {0.8: np.full(d, -np.inf)}
            upper = {0.8: np.full(d, np.inf)}

        return [Cover() for _ in range(horizons)]

    MODEL_FORECASTERS["scripted"] = stub
    try:
        plan = BacktestPlan(
            initial_window=80,
            max_horizon=20,
            levels=(0.8,),
            configs=(MethodConfig(model="scripted", components="one"),),
        )
        report = run_backtest(grid, plan, rng_seed=0)
    finally:
        del MODEL_FORECASTERS["scripted"]

    row = report.rows[0]
    counts_ok = np.array_equal(row.window_counts, 21 - np.arange(1, 21))
    schedule_ok = record == [(w, min(20, 100 - w)) for w in range(80, 100)]
    ok = counts_ok and schedule_ok
    _verdict(
        capsys,
        "window-schedule",
        ok,
        f"counts {row.window_counts[0]}..{row.window_counts[-1]} over 20 horizons",
    )
