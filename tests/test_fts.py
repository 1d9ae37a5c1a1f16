"""Covariance surfaces, eigendecomposition and score projection."""

import numpy as np
import pytest

from codaboot import (
    CovSurface,
    DomainError,
    EigenBasis,
    InsufficientDataError,
    RankError,
    ShapeError,
    bartlett_weight,
    clr,
    difference_series,
    fpca,
    long_run_covariance,
    plugin_bandwidth,
    project_scores,
    trapezoid_weights,
)


def _autocov_oracle(values, lag):
    # Definition written as explicit loops, divisor m throughout.
    m, d = values.shape
    mean = values.mean(axis=0)
    k = abs(lag)
    out = np.zeros((d, d))
    for s in range(m - k):
        out += np.outer(values[s] - mean, values[s + k] - mean)
    out /= m
    return out.T if lag < 0 else out


def _lrc_oracle(values, h):
    total = np.zeros((values.shape[1],) * 2)
    for lag in range(-(values.shape[0] - 1), values.shape[0]):
        weight = bartlett_weight(lag / h)
        if weight > 0.0:
            total += weight * _autocov_oracle(values, lag)
    return (total + total.T) / 2.0


@pytest.mark.parametrize(
    "x, expected",
    [(0.0, 1.0), (0.5, 0.5), (-0.5, 0.5), (1.0, 0.0), (1.5, 0.0), (-2.0, 0.0)],
)
def test_bartlett_weight(x, expected):
    assert bartlett_weight(x) == expected


@pytest.mark.parametrize("m, expected", [(4, 2.0), (8, 2.0), (27, 3.0), (64, 4.0), (1000, 10.0)])
def test_plugin_bandwidth_cube_root_rule(m, expected):
    values = np.random.default_rng(m).normal(size=(m, 3))
    assert plugin_bandwidth(values) == expected


def test_plugin_bandwidth_needs_four_curves():
    with pytest.raises(InsufficientDataError):
        plugin_bandwidth(np.zeros((3, 2)))


def test_long_run_covariance_bandwidth_one_is_lag_zero():
    values = np.random.default_rng(2).normal(size=(10, 4))
    got = long_run_covariance(values, bandwidth=1.0)
    np.testing.assert_allclose(
        got.values, _autocov_oracle(values, 0), rtol=0, atol=1e-12
    )


def test_long_run_covariance_matches_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(6, 20))
        d = int(rng.integers(2, 5))
        values = rng.normal(size=(m, d))
        for h in (1.0, 2.0, 3.5, 6.0):
            got = long_run_covariance(values, bandwidth=h)
            np.testing.assert_allclose(
                got.values, _lrc_oracle(values, h), rtol=0, atol=1e-10
            )


def test_long_run_covariance_recovers_every_lag_of_the_autocov_oracle():
    # With L(h) the surface at integer bandwidth h, h L(h) weights lag l by
    # h - |l|, so its second difference in h isolates
    # gamma_l + gamma_{-l}: every lag, with divisor m, against the loop.
    rng = np.random.default_rng(3)
    for _ in range(30):
        m = int(rng.integers(3, 12))
        d = int(rng.integers(2, 6))
        values = rng.normal(size=(m, d))
        scaled = [np.zeros((d, d))] + [
            h * long_run_covariance(values, bandwidth=float(h)).values
            for h in range(1, m + 1)
        ]
        np.testing.assert_allclose(
            scaled[1], _autocov_oracle(values, 0), rtol=0, atol=1e-12
        )
        for lag in range(1, m):
            got = scaled[lag + 1] - 2.0 * scaled[lag] + scaled[lag - 1]
            expected = _autocov_oracle(values, lag) + _autocov_oracle(values, -lag)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)


def test_long_run_covariance_is_exactly_symmetric():
    rng = np.random.default_rng(9)
    for h in (1.0, 2.0, 3.5, 8.0):
        surface = long_run_covariance(rng.normal(size=(8, 4)), bandwidth=h).values
        np.testing.assert_array_equal(surface, surface.T)


def test_long_run_covariance_accepts_series_container():
    rng = np.random.default_rng(1)
    grid = np.arange(6.0)
    raw = rng.lognormal(size=(7, 6))
    series = clr(raw, ages=grid)
    from_series = long_run_covariance(series)
    from_values = long_run_covariance(series.values, grid=grid)
    np.testing.assert_array_equal(from_series.values, from_values.values)
    np.testing.assert_array_equal(from_series.grid, grid)
    np.testing.assert_array_equal(from_series.weights, from_values.weights)


def test_long_run_covariance_uses_plugin_bandwidth_by_default():
    values = np.random.default_rng(11).normal(size=(27, 3))
    got = long_run_covariance(values)
    np.testing.assert_allclose(
        got.values, _lrc_oracle(values, 3.0), rtol=0, atol=1e-10
    )


def test_long_run_covariance_is_positive_semidefinite():
    rng = np.random.default_rng(13)
    for _ in range(25):
        values = rng.standard_t(df=3, size=(rng.integers(8, 30), rng.integers(2, 6)))
        surface = long_run_covariance(values, bandwidth=rng.uniform(1.0, 5.0))
        eigvals = np.linalg.eigvalsh(surface.values)
        assert eigvals.min() >= -1e-10 * max(1.0, eigvals.max())


def test_long_run_covariance_rejects_bad_bandwidth():
    values = np.zeros((6, 2))
    with pytest.raises(DomainError):
        long_run_covariance(values, bandwidth=0.0)
    with pytest.raises(InsufficientDataError):
        long_run_covariance(values[:1])


def test_fpca_two_by_two_closed_form():
    # [[2, 1], [1, 2]] with unit weights: pairs (3, (1,1)/sqrt 2) and
    # (1, (1,-1)/sqrt 2).
    grid = np.array([0.0, 2.0])
    surface = CovSurface(
        grid=grid, values=np.array([[2.0, 1.0], [1.0, 2.0]]), weights=trapezoid_weights(grid)
    )
    basis = fpca(surface, 2)
    np.testing.assert_allclose(basis.eigenvalues, [3.0, 1.0], rtol=0, atol=1e-10)
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(basis.functions[0], [s, s], rtol=0, atol=1e-10)
    np.testing.assert_allclose(basis.functions[1], [s, -s], rtol=0, atol=1e-10)


def _orthonormal_functions(rng, grid, count):
    w = trapezoid_weights(grid)
    funcs = []
    for _ in range(count):
        f = rng.normal(size=grid.size)
        for g in funcs:
            f -= (f * w) @ g * g
        f /= np.sqrt((f * w) @ f)
        funcs.append(f)
    return np.array(funcs)


def test_fpca_recovers_planted_spectrum():
    rng = np.random.default_rng(17)
    grid = np.linspace(0.0, 20.0, 9)
    f = _orthonormal_functions(rng, grid, 2)
    surface = CovSurface(
        grid=grid,
        values=5.0 * np.outer(f[0], f[0]) + 2.0 * np.outer(f[1], f[1]),
        weights=trapezoid_weights(grid),
    )
    basis = fpca(surface, 2)
    np.testing.assert_allclose(basis.eigenvalues, [5.0, 2.0], rtol=1e-10)
    w = trapezoid_weights(grid)
    for k in range(2):
        alignment = abs((basis.functions[k] * w) @ f[k])
        assert alignment == pytest.approx(1.0, abs=1e-8)


def test_fpca_full_rank_reconstruction_and_orthonormality():
    rng = np.random.default_rng(19)
    grid = np.arange(12.0)
    w = trapezoid_weights(grid)
    a = rng.normal(size=(12, 12))
    surface = CovSurface(grid=grid, values=a @ a.T, weights=w)
    basis = fpca(surface, 12)
    gram = (basis.functions * w) @ basis.functions.T
    assert np.max(np.abs(gram - np.eye(12))) < 1e-8
    rebuilt = (basis.functions.T * basis.eigenvalues) @ basis.functions
    np.testing.assert_allclose(rebuilt, surface.values, rtol=0, atol=1e-8)


def test_fpca_sign_is_deterministic():
    rng = np.random.default_rng(23)
    grid = np.arange(8.0)
    a = rng.normal(size=(8, 8))
    surface = CovSurface(grid=grid, values=a @ a.T, weights=trapezoid_weights(grid))
    one = fpca(surface, 4)
    two = fpca(surface, 4)
    np.testing.assert_array_equal(one.functions, two.functions)
    peaks = [f[np.argmax(np.abs(f))] for f in one.functions]
    assert all(p > 0.0 for p in peaks)


def test_fpca_rejects_asymmetric_surface_and_bad_rank():
    grid = np.array([0.0, 1.0])
    w = trapezoid_weights(grid)
    with pytest.raises(DomainError):
        fpca(CovSurface(grid=grid, values=np.array([[1.0, 2.0], [0.0, 1.0]]), weights=w), 1)
    good = CovSurface(grid=grid, values=np.eye(2), weights=w)
    with pytest.raises(RankError):
        fpca(good, 0)
    with pytest.raises(RankError):
        fpca(good, 3)


def test_fpca_rejects_a_fractional_count():
    grid = np.array([0.0, 1.0, 2.0])
    good = CovSurface(grid=grid, values=np.eye(3), weights=trapezoid_weights(grid))
    for count in (1.5, 2.0, np.float64(2.0)):
        with pytest.raises(RankError, match="n_components must be an integer"):
            fpca(good, count)
    assert fpca(good, np.int64(2)).n_components == 2


def test_eigenbasis_validation():
    grid = np.array([0.0, 1.0])
    w = trapezoid_weights(grid)
    s = 1.0 / np.sqrt(w[0] + w[1])
    ortho = np.array([[s, s], [s * np.sqrt(w[1] / w[0]), -s * np.sqrt(w[0] / w[1])]])
    EigenBasis(eigenvalues=np.array([2.0, 1.0]), functions=ortho, grid=grid, weights=w)
    with pytest.raises(DomainError):
        EigenBasis(eigenvalues=np.array([1.0, 2.0]), functions=ortho, grid=grid, weights=w)
    with pytest.raises(DomainError):
        EigenBasis(eigenvalues=np.array([2.0, -1.0]), functions=ortho, grid=grid, weights=w)
    with pytest.raises(DomainError):
        EigenBasis(
            eigenvalues=np.array([2.0, 1.0]), functions=ortho * 2.0, grid=grid, weights=w
        )
    with pytest.raises(ShapeError):
        EigenBasis(eigenvalues=np.array([2.0]), functions=ortho, grid=grid, weights=w)


def test_empty_eigenbasis_is_allowed():
    grid = np.arange(4.0)
    basis = EigenBasis(
        eigenvalues=np.empty(0),
        functions=np.empty((0, 4)),
        grid=grid,
        weights=trapezoid_weights(grid),
    )
    assert basis.n_components == 0


def test_project_scores_matches_loop_oracle():
    rng = np.random.default_rng(29)
    grid = np.linspace(0.0, 10.0, 7)
    w = trapezoid_weights(grid)
    funcs = _orthonormal_functions(rng, grid, 3)
    basis = EigenBasis(
        eigenvalues=np.array([3.0, 2.0, 1.0]), functions=funcs, grid=grid, weights=w
    )
    values = rng.normal(size=(6, 7))
    center = rng.normal(size=7)
    scores = project_scores(values - center, basis)
    for t in range(6):
        for k in range(3):
            expected = float(((values[t] - center) * w) @ funcs[k])
            assert scores[t, k] == pytest.approx(expected, abs=1e-12)


def test_project_scores_validates_grids_and_center():
    grid = np.arange(5.0)
    w = trapezoid_weights(grid)
    funcs = _orthonormal_functions(np.random.default_rng(0), grid, 1)
    basis = EigenBasis(eigenvalues=np.array([1.0]), functions=funcs, grid=grid, weights=w)
    with pytest.raises(ShapeError):
        project_scores(np.zeros((2, 4)), basis)
    with pytest.raises(ShapeError):
        project_scores(np.zeros((2, 6)), basis)
    assert project_scores(np.zeros((2, 5)), basis).shape == (2, 1)


def test_difference_series():
    rng = np.random.default_rng(31)
    grid = np.arange(8.0)
    raw = rng.lognormal(size=(5, 8))
    series = clr(raw, ages=grid, years=np.arange(2000, 2005))
    diffed = difference_series(series)
    assert diffed.n == 4
    np.testing.assert_array_equal(diffed.years, np.arange(2001, 2005))
    np.testing.assert_allclose(
        diffed.values, np.diff(series.values, axis=0), rtol=0, atol=0
    )
    with pytest.raises(InsufficientDataError):
        difference_series(clr(raw[:1], ages=grid))
