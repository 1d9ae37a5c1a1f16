"""Seeded synthetic grids used by demos and calibration tests."""

import numpy as np
import pytest

from codaboot import DomainError, clr, make_factor_grid, make_synthetic_grid


def test_synthetic_grid_is_a_valid_lifetable():
    grid = make_synthetic_grid(20, seed=5)
    assert grid.n_years == 20
    assert grid.n_ages == 111
    assert grid.years.tolist() == list(range(1950, 1970))
    np.testing.assert_allclose(grid.deaths.sum(axis=1), 100000.0, atol=1e-6)
    assert np.all(grid.deaths > 0.0)


def test_synthetic_grid_is_seed_deterministic():
    one = make_synthetic_grid(10, seed=3)
    two = make_synthetic_grid(10, seed=3)
    np.testing.assert_array_equal(one.deaths, two.deaths)
    other = make_synthetic_grid(10, seed=4)
    assert not np.array_equal(one.deaths, other.deaths)


def test_synthetic_modal_age_drifts_upward():
    grid = make_synthetic_grid(50, seed=0)
    adult = grid.ages >= 10  # skip the infant spike
    first = grid.ages[adult][np.argmax(grid.deaths[0, adult])]
    last = grid.ages[adult][np.argmax(grid.deaths[-1, adult])]
    assert last > first


def test_synthetic_grid_rejects_tiny_inputs():
    with pytest.raises(DomainError):
        make_synthetic_grid(1)


def test_synthetic_grid_rejects_a_fractional_year_count():
    with pytest.raises(DomainError, match="n_years must be an integer"):
        make_synthetic_grid(12.0)
    np.testing.assert_array_equal(
        make_synthetic_grid(np.int64(3)).deaths, make_synthetic_grid(3).deaths
    )


def test_factor_grid_shape_and_determinism():
    grid = make_factor_grid(n_years=15, n_ages=9, seed=2, start_year=1800)
    assert grid.n_years == 15
    assert grid.n_ages == 9
    assert grid.years[0] == 1800
    np.testing.assert_allclose(grid.deaths.sum(axis=1), 100000.0, atol=1e-6)
    again = make_factor_grid(n_years=15, n_ages=9, seed=2, start_year=1800)
    np.testing.assert_array_equal(grid.deaths, again.deaths)


def test_factor_grid_carries_an_integrated_factor():
    # The leading clr factor is a random walk by construction, so the
    # differenced series should have much smaller partial sums than the
    # raw one.
    grid = make_factor_grid(n_years=60, n_ages=15, seed=7)
    series = clr(grid)
    raw = series.values - series.values.mean(axis=0)
    partial_raw = float(np.sum(np.cumsum(raw, axis=0) ** 2))
    diffed = np.diff(series.values, axis=0)
    diffed -= diffed.mean(axis=0)
    partial_diff = float(np.sum(np.cumsum(diffed, axis=0) ** 2))
    assert partial_raw > 5.0 * partial_diff


def test_factor_grid_rejects_tiny_inputs():
    with pytest.raises(DomainError):
        make_factor_grid(n_years=5)
    with pytest.raises(DomainError):
        make_factor_grid(n_years=20, n_ages=2)


def test_factor_grid_rejects_fractional_counts():
    with pytest.raises(DomainError, match="n_years must be an integer"):
        make_factor_grid(n_years=20.5)
    with pytest.raises(DomainError, match="n_ages must be an integer"):
        make_factor_grid(n_years=20, n_ages=6.0)
    grid = make_factor_grid(n_years=np.int64(12), n_ages=np.int32(5))
    assert (grid.n_years, grid.n_ages) == (12, 5)
