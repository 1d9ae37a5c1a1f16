"""Bootstrap prediction intervals for the age distribution of life-table deaths."""

from .bootstrap import (
    SCORE_METHODS,
    BootstrapForecast,
    ErrorPool,
    assemble_forecast,
    bootstrap_forecast_path,
    build_error_pools,
)
from .coda import ClrSeries, clr, inverse_clr, trapezoid_weights
from .dfm import DfmFit, component_counts, fit_dfm
from .errors import (
    CodabootError,
    CompletenessError,
    ConfigurationError,
    DegenerateInputError,
    DomainError,
    InsufficientDataError,
    ParseError,
    PoolError,
    RankError,
    SchemaError,
    ShapeError,
)
from .fts import (
    CovSurface,
    EigenBasis,
    IndependenceResult,
    bartlett_weight,
    difference_series,
    fpca,
    functional_kpss_pvalue,
    independence_test,
    long_run_covariance,
    plugin_bandwidth,
    project_scores,
)
from .evaluation import (
    BacktestPlan,
    BacktestReport,
    BacktestRow,
    MethodConfig,
    ecp,
    first_stage,
    fit_dfm_for,
    run_backtest,
    series_prefix,
)
from .leecarter import fit_lc, lc_bootstrap_path
from .lifetable import (
    LifeTableColumns,
    LifeTableGrid,
    gini_coefficient,
    parse_lifetable,
    rebuild_deaths,
)
from .synthetic import make_factor_grid, make_synthetic_grid

__version__ = "0.1.0"
