"""Diagnose a clr series and fit the two-stage dynamic factor model.

The raw series trends, so the factor basis is estimated from the
long-run covariance of its differences; projecting the levels onto that
basis gives integrated scores that carry the trend.  A second stage
mops up whatever serial dependence the first stage leaves behind.
"""

import numpy as np

from codaboot import (
    MethodConfig,
    clr,
    difference_series,
    first_stage,
    fit_dfm_for,
    functional_kpss_pvalue,
    make_factor_grid,
)

grid = make_factor_grid(n_years=70, n_ages=31, seed=12)
series = clr(grid)

stat_raw, p_raw = functional_kpss_pvalue(series, n_permutations=199, seed=0)
stat_diff, p_diff = functional_kpss_pvalue(
    difference_series(series), n_permutations=199, seed=0
)
print(f"trend stationarity: raw stat {stat_raw:.3f} (p {p_raw:.3f}), "
      f"differenced stat {stat_diff:.3f} (p {p_diff:.3f})")

# Six components per stage; the residual stage runs only when the test
# on the first-stage residuals finds serial dependence.
config = MethodConfig(components="six", force_residual_stage=False)
fit = fit_dfm_for(series, config)
independence = first_stage(series, config)[1]

share = fit.primary_basis.eigenvalues / fit.primary_basis.eigenvalues.sum()
print(f"primary eigenvalue shares: {np.round(share, 3)}")
print(f"long-run covariance bandwidth: {fit.bandwidth:g}")
print(
    f"first-stage residual independence: p {independence.p_value:.3f}"
    f" (projection dim {independence.projection_dim})"
)
print(f"residual stage ran: {fit.n_residual > 0}")

# Adding residuals back makes the decomposition exact by construction;
# what the model itself explains is everything but final_residuals.
rebuilt = fit.reconstruction()
print(f"decomposition identity: {np.max(np.abs(rebuilt - series.values)):.2e}")
print(f"unexplained after both stages: {np.max(np.abs(fit.final_residuals)):.2e}")
