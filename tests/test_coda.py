"""The clr transform, its inverse and the series container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from codaboot import (
    ClrSeries,
    DomainError,
    ShapeError,
    clr,
    inverse_clr,
    trapezoid_weights,
)
from codaboot.lifetable import DEFAULT_RADIX, LifeTableGrid


def test_trapezoid_weights_unit_grid():
    w = trapezoid_weights(np.arange(111))
    expected = np.ones(111)
    expected[0] = expected[-1] = 0.5
    np.testing.assert_array_equal(w, expected)
    assert w.sum() == 110.0


def test_trapezoid_weights_nonuniform_hand_case():
    # Grid 0, 1, 3: endpoint halves of the adjacent gaps, interior half-span.
    np.testing.assert_array_equal(trapezoid_weights([0.0, 1.0, 3.0]), [0.5, 1.5, 1.0])


def test_trapezoid_weights_sum_to_span():
    rng = np.random.default_rng(5)
    for _ in range(100):
        grid = np.sort(rng.uniform(0.0, 50.0, size=rng.integers(2, 40)))
        if np.any(np.diff(grid) <= 0.0):
            continue
        w = trapezoid_weights(grid)
        assert w.sum() == pytest.approx(grid[-1] - grid[0], rel=1e-12)


def test_trapezoid_weights_rejects_bad_grids():
    with pytest.raises(ShapeError):
        trapezoid_weights([1.0])
    with pytest.raises(DomainError):
        trapezoid_weights([0.0, 1.0, 1.0])


def test_trapezoid_weights_rejects_non_finite_points():
    # A comparison with NaN is false, so the increasing check alone lets
    # a NaN through to NaN weights.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="finite"):
            trapezoid_weights([0.0, bad, 2.0])
    with pytest.raises(DomainError, match="finite"):
        trapezoid_weights([0.0, 1.0, np.inf])


@pytest.mark.parametrize("radix", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_inverse_clr_rejects_a_radix_that_is_not_finite_and_positive(radix):
    with pytest.raises(DomainError, match="radix must be finite and positive"):
        inverse_clr(np.zeros(5), np.arange(5.0), radix=radix)


def test_inverse_clr_rejects_a_grid_with_a_nan():
    with pytest.raises(DomainError, match="finite"):
        inverse_clr(np.zeros(3), [0.0, np.nan, 2.0])


@pytest.mark.parametrize("radix", [np.nan, np.inf, 0.0, -5.0])
def test_series_rejects_a_radix_that_is_not_finite_and_positive(radix):
    grid = np.arange(4.0)
    with pytest.raises(DomainError, match="radix must be finite and positive"):
        ClrSeries(years=np.arange(2), grid=grid, values=np.zeros((2, 4)), radix=radix)
    with pytest.raises(DomainError, match="radix must be finite and positive"):
        clr(np.ones((2, 4)), ages=grid, radix=radix)


def _random_density(rng, grid, radix=DEFAULT_RADIX):
    w = trapezoid_weights(grid)
    raw = rng.lognormal(mean=0.0, sigma=1.5, size=grid.size)
    return raw * radix / (raw @ w)


def test_clr_curves_integrate_to_zero():
    rng = np.random.default_rng(2)
    grid = np.arange(111.0)
    values = np.vstack([_random_density(rng, grid) for _ in range(20)])
    series = clr(values, ages=grid)
    w = series.weights
    assert np.max(np.abs(series.values @ w)) < 1e-10


def test_round_trip_is_identity_on_quadrature_normalised_curves():
    rng = np.random.default_rng(4)
    grid = np.arange(111.0)
    values = np.vstack([_random_density(rng, grid) for _ in range(50)])
    series = clr(values, ages=grid)
    back = inverse_clr(series.values, grid, radix=series.radix)
    np.testing.assert_allclose(back, values, rtol=1e-10)


def test_clr_is_scale_invariant_per_row():
    rng = np.random.default_rng(6)
    grid = np.linspace(0.0, 30.0, 16)
    values = np.vstack([_random_density(rng, grid) for _ in range(5)])
    scales = rng.uniform(0.5, 20.0, size=5)
    plain = clr(values, ages=grid)
    scaled = clr(values * scales[:, None], ages=grid)
    np.testing.assert_allclose(scaled.values, plain.values, rtol=0, atol=1e-10)


def test_inverse_clr_is_shift_invariant():
    rng = np.random.default_rng(8)
    grid = np.arange(40.0)
    curve = rng.normal(size=40)
    curve -= (curve @ trapezoid_weights(grid)) / 39.0
    one = inverse_clr(curve, grid)
    two = inverse_clr(curve + 123.0, grid)
    np.testing.assert_allclose(one, two, rtol=1e-12)


def test_inverse_clr_of_zero_curve_is_flat():
    grid = np.arange(111.0)
    flat = inverse_clr(np.zeros(111), grid, radix=100000.0)
    np.testing.assert_allclose(flat, np.full(111, 100000.0 / 110.0), rtol=1e-12)


def test_inverse_clr_survives_huge_magnitudes():
    grid = np.arange(10.0)
    curve = np.linspace(-800.0, 800.0, 10)
    out = inverse_clr(curve, grid)
    assert np.all(np.isfinite(out))
    assert out @ trapezoid_weights(grid) == pytest.approx(DEFAULT_RADIX, rel=1e-12)


def test_inverse_clr_handles_single_and_stacked_curves():
    grid = np.arange(5.0)
    single = inverse_clr(np.zeros(5), grid)
    stacked = inverse_clr(np.zeros((3, 5)), grid)
    assert single.shape == (5,)
    assert stacked.shape == (3, 5)
    np.testing.assert_array_equal(stacked[0], single)


def _inverse_clr_reference(x, grid, radix):
    shifted = np.exp(x - x.max(axis=1, keepdims=True))
    return shifted * (radix / (shifted @ trapezoid_weights(grid)))[:, None]


def test_inverse_clr_matches_its_formula_bit_for_bit():
    rng = np.random.default_rng(12)
    uneven = np.cumsum(rng.uniform(0.05, 5.0, size=111))
    for grid in (np.arange(111.0), uneven):
        for scale in (1.0, 30.0, 400.0):
            stack = rng.normal(scale=scale, size=(1000, 111))
            np.testing.assert_array_equal(
                inverse_clr(stack, grid, 1000.0),
                _inverse_clr_reference(stack, grid, 1000.0),
            )
            single = inverse_clr(stack[3], grid, 1000.0)
            assert single.shape == (111,)
            np.testing.assert_array_equal(
                single, _inverse_clr_reference(stack[3:4], grid, 1000.0)[0]
            )


def test_inverse_clr_leaves_its_input_unchanged():
    rng = np.random.default_rng(13)
    grid = np.arange(20.0)
    stack = rng.normal(scale=5.0, size=(50, 20))
    kept = stack.copy()
    inverse_clr(stack, grid)
    inverse_clr(stack[0], grid)
    np.testing.assert_array_equal(stack, kept)
    stack.setflags(write=False)
    np.testing.assert_array_equal(
        inverse_clr(stack, grid), _inverse_clr_reference(kept, grid, DEFAULT_RADIX)
    )
    np.testing.assert_array_equal(stack, kept)


def test_inverse_clr_into_out_equals_the_out_of_place_result_bit_for_bit():
    rng = np.random.default_rng(14)
    uneven = np.cumsum(rng.uniform(0.05, 5.0, size=31))
    for grid in (np.arange(31.0), uneven):
        stack = rng.normal(scale=30.0, size=(200, 31))
        expected = inverse_clr(stack, grid, 1000.0)
        out = np.empty_like(stack)
        assert inverse_clr(stack, grid, 1000.0, out=out) is out
        np.testing.assert_array_equal(out, expected)
        in_place = stack.copy()
        assert inverse_clr(in_place, grid, 1000.0, out=in_place) is in_place
        np.testing.assert_array_equal(in_place, expected)
        curve = stack[5].copy()
        single = np.empty(31)
        np.testing.assert_array_equal(inverse_clr(curve, grid, 1000.0, out=single), expected[5])
        np.testing.assert_array_equal(single, expected[5])
        inverse_clr(curve, grid, 1000.0, out=curve)
        np.testing.assert_array_equal(curve, expected[5])


@pytest.mark.parametrize(
    "out",
    [np.empty((3, 4)), np.empty((2, 5)), np.empty(4), np.empty((2, 4), dtype=np.float32),
     np.zeros((2, 4), dtype=int), np.zeros((2, 4)).tolist()],
    ids=["rows", "points", "one-curve", "float32", "int", "list"],
)
def test_inverse_clr_rejects_a_mismatched_out(out):
    with pytest.raises(ShapeError, match=r"out must be a float array of shape \(2, 4\)"):
        inverse_clr(np.zeros((2, 4)), np.arange(4.0), out=out)


def test_inverse_clr_rejects_non_finite_curves_given_an_out():
    grid = np.arange(4.0)
    curves = np.array([[0.0, np.nan, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    for target in (np.empty((2, 4)), curves):
        with pytest.raises(DomainError, match="curves must be finite"):
            inverse_clr(curves, grid, out=target)
    assert np.isnan(curves[0, 1])
    with pytest.raises(DomainError):
        inverse_clr(np.array([0.0, np.inf, 0.0, 0.0]), grid, out=np.empty(4))


def test_clr_accepts_lifetable_grid():
    rng = np.random.default_rng(10)
    deaths = rng.lognormal(sigma=1.0, size=(4, 111))
    deaths *= 100000.0 / deaths.sum(axis=1, keepdims=True)
    table = LifeTableGrid(
        years=np.arange(1950, 1954), ages=np.arange(111), deaths=deaths, radix=100000.0
    )
    from_grid = clr(table)
    from_values = clr(deaths, ages=np.arange(111.0), years=table.years)
    np.testing.assert_array_equal(from_grid.values, from_values.values)
    assert from_grid.radix == 100000.0


def test_clr_requires_ages_for_bare_arrays():
    with pytest.raises(ShapeError):
        clr(np.ones((2, 5)))


def test_clr_rejects_nonpositive_curves():
    grid = np.arange(4.0)
    with pytest.raises(DomainError):
        clr(np.array([[1.0, 2.0, 0.0, 1.0]]), ages=grid)
    with pytest.raises(DomainError):
        clr(np.array([[1.0, 2.0, -1.0, 1.0]]), ages=grid)


def test_inverse_clr_shape_and_domain_errors():
    grid = np.arange(4.0)
    with pytest.raises(ShapeError):
        inverse_clr(np.zeros(5), grid)
    with pytest.raises(DomainError):
        inverse_clr(np.array([0.0, np.inf, 0.0, 0.0]), grid)
    with pytest.raises(DomainError):
        inverse_clr(np.zeros(4), grid, radix=-1.0)


def test_series_container_validates_centering_and_shapes():
    grid = np.arange(6.0)
    w = trapezoid_weights(grid)
    values = np.random.default_rng(1).normal(size=(3, 6))
    values -= np.outer(values @ w / w.sum(), np.ones(6))
    series = ClrSeries(years=np.arange(3), grid=grid, values=values)
    assert series.n == 3
    with pytest.raises(DomainError):
        ClrSeries(years=np.arange(3), grid=grid, values=values + 1.0)
    with pytest.raises(ShapeError):
        ClrSeries(years=np.arange(4), grid=grid, values=values)
    with pytest.raises(DomainError):
        ClrSeries(years=np.array([1, 1, 2]), grid=grid, values=values)


def test_round_trip_from_grid_rows_rescales_only():
    # Grid rows are plain sums of the radix; the transform forgets the row
    # scale, so the way back lands on the quadrature-normalised version.
    rng = np.random.default_rng(12)
    deaths = rng.lognormal(sigma=0.8, size=(3, 50))
    deaths *= 1000.0 / deaths.sum(axis=1, keepdims=True)
    grid = np.arange(50.0)
    w = trapezoid_weights(grid)
    series = clr(deaths, ages=grid, radix=1000.0)
    back = inverse_clr(series.values, grid, radix=1000.0)
    expected = deaths * (1000.0 / (deaths @ w))[:, None]
    np.testing.assert_allclose(back, expected, rtol=1e-10)


@st.composite
def _uneven_grid_and_logs(draw):
    """A strictly increasing grid with uneven spacing and one row of
    values per curve on it, in ``[-10, 10]``."""
    d = draw(st.integers(2, 40))
    gaps = draw(arrays(np.float64, d - 1, elements=st.floats(0.05, 5.0)))
    start = draw(st.floats(-50.0, 50.0))
    grid = start + np.concatenate([[0.0], np.cumsum(gaps)])
    m = draw(st.integers(1, 4))
    logs = draw(arrays(np.float64, (m, d), elements=st.floats(-10.0, 10.0)))
    return grid, logs


@settings(max_examples=80, deadline=None)
@given(case=_uneven_grid_and_logs(), radix=st.floats(1.0, 1e6))
def test_round_trip_rescales_to_the_trapezoid_integral(case, radix):
    grid, logs = case
    deaths = np.exp(logs)
    back = inverse_clr(clr(deaths, ages=grid).values, grid, radix)
    expected = deaths * (radix / (deaths @ trapezoid_weights(grid)))[:, None]
    np.testing.assert_allclose(back, expected, rtol=1e-12, atol=0)


@settings(max_examples=80, deadline=None)
@given(case=_uneven_grid_and_logs())
def test_clr_inverts_inverse_clr_on_zero_integral_curves(case):
    grid, raw = case
    w = trapezoid_weights(grid)
    curves = raw - ((raw @ w) / (grid[-1] - grid[0]))[:, None]
    again = clr(inverse_clr(curves, grid), ages=grid).values
    scale = max(1.0, float(np.abs(raw).max()))
    np.testing.assert_allclose(again, curves, rtol=0, atol=1e-12 * scale)
