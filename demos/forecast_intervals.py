"""Bootstrap pointwise prediction intervals for future death curves.

Forecast uncertainty is propagated by resampling score forecast errors
(collected from expanding-window refits) and residual curves, pushing
each perturbed forecast back through the inverse clr.  Every sampled
curve is therefore a valid death distribution in its own right.
"""

import numpy as np

from codaboot import bootstrap_forecast_path, clr, fit_dfm, make_factor_grid, trapezoid_weights

grid = make_factor_grid(n_years=70, n_ages=31, seed=12)
fit = fit_dfm(clr(grid), 6, 6)

path = bootstrap_forecast_path(fit, max_horizon=10, n_samples=1000, rng_seed=1)

w = trapezoid_weights(path[0].grid)
conserved = max(np.max(np.abs(fc.samples @ w - fc.radix)) for fc in path)
print(f"radix conservation across {len(path)} horizons: {conserved:.2e}\n")

one = path[0]
picks = [0, 8, 15, 22, 30]
print("one step ahead, selected ages:")
print("age   point      80% interval            95% interval")
for j in picks:
    print(
        f"{int(one.grid[j]):3d} {one.point[j]:8.1f}"
        f"  [{one.lower[0.8][j]:8.1f}, {one.upper[0.8][j]:8.1f}]"
        f"  [{one.lower[0.95][j]:8.1f}, {one.upper[0.95][j]:8.1f}]"
    )

# Bands widen with horizon as forecast error pools fatten.
widths = [float(np.mean(fc.upper[0.8] - fc.lower[0.8])) for fc in path]
print("\nmean 80% band width by horizon:")
print("  " + " ".join(f"{v:.1f}" for v in widths))
