"""Command-line front end.

Six subcommands cover the pipeline: ``ingest`` rebuilds and dumps the
death-count grid, ``gini`` summarises its concentration by year,
``diagnose`` runs the stationarity and independence checks, ``fit``
exports the factor decomposition, ``forecast`` writes bootstrap interval
forecasts, and ``backtest`` runs the expanding-window evaluation.  Every
run writes a ``config.json`` with the fully resolved settings next to its
outputs; passing that file back through ``--config`` reproduces the run
byte for byte.

Exit codes: 0 on success, 1 on a data or configuration error (reported as
one ``error kind=...`` line on stderr), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .coda import clr
from .bootstrap import SCORE_METHODS, _check_levels
from .errors import CodabootError, ConfigurationError
from .evaluation import (
    BacktestPlan,
    MethodConfig,
    fit_dfm_for,
    forecast_dfm,
    forecast_lc,
    run_backtest,
)
from .fts import difference_series, functional_kpss_pvalue
from .leecarter import RESAMPLE_MODES
from .lifetable import gini_coefficient, parse_lifetable, rebuild_deaths
from .synthetic import make_synthetic_grid

SUBCOMMANDS = ("ingest", "diagnose", "fit", "forecast", "backtest", "gini")


@dataclasses.dataclass
class RunConfig:
    """Fully resolved settings of one CLI run."""

    subcommand: str
    input: str | None = None
    synthetic: int | None = None
    synthetic_seed: int = 0
    sex: str | None = None
    out: str = "."
    model: str = "dfm"
    components: str = "six"
    initial_window: int | None = None
    max_horizon: int = 20
    replications: int = 1000
    levels: tuple = (0.8, 0.95)
    seed: int = 0
    method: str = "random_walk_drift"
    lc_resample: str = "entries"
    bandwidth: float | None = None
    force_residual_stage: bool = True
    lags: int = 5
    dim: int = 3
    kpss_permutations: int = 199
    dump_samples: bool = False
    jobs: int = 1

    def to_json(self):
        data = dataclasses.asdict(self)
        data["levels"] = list(self.levels)
        # Worker count and output directory place the run without changing
        # its results; keeping them out of the emitted config makes configs
        # of identical computations compare byte for byte.
        del data["jobs"]
        del data["out"]
        return json.dumps(data, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        if "subcommand" not in data:
            raise ConfigurationError("config file must name its subcommand")
        data["levels"] = tuple(float(l) for l in data.get("levels", (0.8, 0.95)))
        return cls(**data)


def _method_config(config):
    """The one conversion of run settings into the method they describe."""
    return MethodConfig(
        model=config.model,
        components=config.components,
        n_samples=config.replications,
        primary_method=config.method,
        bandwidth=config.bandwidth,
        force_residual_stage=config.force_residual_stage,
        independence_lags=config.lags,
        independence_dim=config.dim,
        lc_resample=config.lc_resample,
    )


# The option that sets each model setting.  The factor model reads its
# score method only when it forecasts, and Lee-Carter runs only there:
# fit and diagnose reject it before they do any work.
_MODEL_OPTIONS = {
    "method": "--method",
    "bandwidth": "--bandwidth",
    "force_residual_stage": "--no-force-residual-stage",
    "lags": "--lags",
    "dim": "--dim",
    "lc_resample": "--lc-resample",
}
_FORECASTING = ("forecast", "backtest")


def _check_model_options(config):
    """Reject model settings that the run would silently ignore."""
    if config.subcommand not in _FORECASTING + ("diagnose", "fit"):
        return
    forecasting = config.subcommand in _FORECASTING
    if config.model != "dfm" and not forecasting:
        raise ConfigurationError(
            f"{config.subcommand} runs the factor model only, got model"
            f" {config.model!r}"
        )
    if config.model == "lc":
        used = {"lc_resample"} if forecasting else set()
    else:
        used = {"bandwidth", "force_residual_stage", "lags", "dim"}
        if forecasting:
            used.add("method")
    defaults = RunConfig(subcommand=config.subcommand)
    ignored = [
        option
        for name, option in _MODEL_OPTIONS.items()
        if name not in used and getattr(config, name) != getattr(defaults, name)
    ]
    if ignored:
        raise ConfigurationError(
            f"{config.subcommand} with model {config.model!r} does not read"
            f" {', '.join(ignored)}"
        )


def _parse_levels(text):
    levels = []
    for token in text.split(","):
        token = token.strip()
        if token:
            try:
                value = float(token)
            except ValueError:
                raise ConfigurationError(f"level {token!r} is not a number") from None
            levels.append(value / 100.0 if value > 1.0 else value)
    return _check_levels(levels)


def _format(value):
    return f"{value:.10g}"


def _level_tag(level):
    return f"{level * 100:g}".replace(".", "p")


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")


def _load_grid(config):
    if config.synthetic is not None:
        return make_synthetic_grid(config.synthetic, seed=config.synthetic_seed)
    table = parse_lifetable(config.input, sex_filter=config.sex)
    return rebuild_deaths(table)


def _write_config(config):
    os.makedirs(config.out, exist_ok=True)
    with open(os.path.join(config.out, "config.json"), "w", encoding="utf-8") as handle:
        handle.write(config.to_json())


def _cmd_ingest(config):
    grid = _load_grid(config)
    header = ["year"] + [f"age_{a}" for a in grid.ages]
    rows = [
        [str(year)] + [f"{v:.6f}" for v in grid.deaths[i]]
        for i, year in enumerate(grid.years)
    ]
    _write_config(config)
    _write_csv(os.path.join(config.out, "grid.csv"), header, rows)
    print(f"wrote grid.csv with {grid.n_years} years x {grid.n_ages} ages")
    return 0


def _cmd_gini(config):
    grid = _load_grid(config)
    rows = [
        [str(year), _format(gini_coefficient(grid.deaths[i]))]
        for i, year in enumerate(grid.years)
    ]
    _write_config(config)
    _write_csv(os.path.join(config.out, "gini.csv"), ["year", "gini"], rows)
    print(f"wrote gini.csv for {grid.n_years} years")
    return 0


def _cmd_diagnose(config):
    grid = _load_grid(config)
    series = clr(grid)
    rows = []
    for name, tested in (("raw", series), ("differenced", difference_series(series))):
        stat, pval = functional_kpss_pvalue(
            tested, n_permutations=config.kpss_permutations, seed=config.seed
        )
        decision = "trend-nonstationary" if pval <= 0.05 else "trend-stationary"
        rows.append([f"stationarity_{name}", _format(stat), _format(pval), decision])

    method = dataclasses.replace(_method_config(config), force_residual_stage=False)
    outcome = fit_dfm_for(series, method).independence
    if outcome.degenerate:
        decision = "degenerate"
    elif outcome.dependent():
        decision = "dependent"
    else:
        decision = "independent"
    rows.append(
        [
            "residual_independence",
            _format(outcome.statistic),
            _format(outcome.p_value),
            decision,
        ]
    )

    _write_config(config)
    _write_csv(
        os.path.join(config.out, "diagnostics.csv"),
        ["name", "statistic", "p_value", "decision"],
        rows,
    )
    print("wrote diagnostics.csv")
    return 0


def _cmd_fit(config):
    grid = _load_grid(config)
    fitted = fit_dfm_for(clr(grid), _method_config(config))
    _write_config(config)
    out = config.out

    ages = [str(a) for a in grid.ages]
    _write_csv(
        os.path.join(out, "mean_curve.csv"),
        ["age", "value"],
        [[a, _format(v)] for a, v in zip(ages, fitted.mean_curve)],
    )

    def dump_basis(name, basis):
        header = ["age"] + [f"component_{k + 1}" for k in range(basis.n_components)]
        rows = [
            [ages[i]] + [_format(basis.functions[k, i]) for k in range(basis.n_components)]
            for i in range(grid.n_ages)
        ]
        _write_csv(os.path.join(out, name), header, rows)

    def dump_scores(name, scores):
        header = ["year"] + [f"component_{k + 1}" for k in range(scores.shape[1])]
        rows = [
            [str(year)] + [_format(v) for v in scores[i]]
            for i, year in enumerate(grid.years)
        ]
        _write_csv(os.path.join(out, name), header, rows)

    dump_basis("primary_basis.csv", fitted.primary_basis)
    dump_scores("primary_scores.csv", fitted.primary_scores)
    dump_basis("residual_basis.csv", fitted.residual_basis)
    dump_scores("residual_scores.csv", fitted.residual_scores)
    _write_csv(
        os.path.join(out, "final_residuals.csv"),
        ["year"] + [f"age_{a}" for a in grid.ages],
        [
            [str(year)] + [_format(v) for v in fitted.final_residuals[i]]
            for i, year in enumerate(grid.years)
        ],
    )

    summary = []
    for k, value in enumerate(fitted.primary_basis.eigenvalues):
        summary.append(["primary", str(k + 1), _format(value)])
    for k, value in enumerate(fitted.residual_basis.eigenvalues):
        summary.append(["residual", str(k + 1), _format(value)])
    summary.append(
        [
            "independence_p_value",
            "",
            _format(fitted.independence.p_value),
        ]
    )
    summary.append(["residual_stage_ran", "", str(fitted.residual_stage_ran).lower()])
    _write_csv(
        os.path.join(out, "fit_summary.csv"), ["name", "index", "value"], summary
    )
    print(
        f"fit {fitted.n_primary} primary + {fitted.n_residual} residual components"
        f" on {grid.n_years} years"
    )
    return 0


def _cmd_forecast(config):
    grid = _load_grid(config)
    if config.model == "dfm":
        forecaster = forecast_dfm
    elif config.model == "lc":
        forecaster = forecast_lc
    else:
        raise ConfigurationError(f"model must be 'dfm' or 'lc', got {config.model!r}")
    forecasts = forecaster(
        clr(grid), _method_config(config), config.max_horizon, config.levels, config.seed
    )
    _write_config(config)

    for forecast in forecasts:
        header = ["age", "point"]
        for level in config.levels:
            tag = _level_tag(level)
            header += [f"lower_{tag}", f"upper_{tag}"]
        rows = []
        for i, age in enumerate(grid.ages):
            row = [str(age), _format(forecast.point[i])]
            for level in config.levels:
                row.append(_format(forecast.lower[level][i]))
                row.append(_format(forecast.upper[level][i]))
            rows.append(row)
        name = f"forecast_h{forecast.horizon:02d}.csv"
        _write_csv(os.path.join(config.out, name), header, rows)
        if config.dump_samples:
            sample_header = ["age"] + [
                f"sample_{b + 1}" for b in range(forecast.samples.shape[0])
            ]
            sample_rows = [
                [str(age)] + [_format(v) for v in forecast.samples[:, i]]
                for i, age in enumerate(grid.ages)
            ]
            _write_csv(
                os.path.join(config.out, f"samples_h{forecast.horizon:02d}.csv"),
                sample_header,
                sample_rows,
            )
    print(
        f"wrote {len(forecasts)} horizon files with {config.replications} replicates each"
    )
    return 0


def _cmd_backtest(config):
    grid = _load_grid(config)
    initial = config.initial_window
    if initial is None:
        initial = grid.n_years - config.max_horizon
    plan = BacktestPlan(
        initial_window=initial,
        max_horizon=config.max_horizon,
        levels=config.levels,
        configs=(_method_config(config),),
    )
    report = run_backtest(grid, plan, rng_seed=config.seed, n_jobs=config.jobs)
    _write_config(config)

    summary_rows = []
    for row in report.rows:
        tag = _level_tag(row.level)
        name = f"horizons_{row.label}_{tag}.csv"
        _write_csv(
            os.path.join(config.out, name),
            ["horizon", "windows", "ecp", "cpd"],
            [
                [
                    str(int(row.horizons[i])),
                    str(int(row.window_counts[i])),
                    _format(row.ecp_by_horizon[i]),
                    _format(row.cpd_by_horizon[i]),
                ]
                for i in range(row.horizons.size)
            ],
        )
        summary_rows.append(
            [
                row.label,
                row.model,
                row.components,
                _format(row.level),
                _format(row.ecp_bar),
                _format(row.cpd_bar),
            ]
        )
    _write_csv(
        os.path.join(config.out, "summary.csv"),
        ["label", "model", "components", "level", "ecp_bar", "cpd_bar"],
        summary_rows,
    )
    print(f"wrote summary.csv with {len(report.rows)} rows")
    return 0


_RUNNERS = {
    "ingest": _cmd_ingest,
    "gini": _cmd_gini,
    "diagnose": _cmd_diagnose,
    "fit": _cmd_fit,
    "forecast": _cmd_forecast,
    "backtest": _cmd_backtest,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="codaboot",
        description="Bootstrap interval forecasts of life-table death counts.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    sub.required = True

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="rerun from an emitted config.json")
    common.add_argument("--input", help="life-table file (columnar or CSV of year,age,qx)")
    common.add_argument(
        "--synthetic", type=int, metavar="N", help="use N years of synthetic data instead"
    )
    common.add_argument("--synthetic-seed", type=int, default=0)
    common.add_argument(
        "--sex", choices=("female", "male", "total"), help="filter when a Sex column exists"
    )
    common.add_argument("--out", default=".", help="output directory (default: .)")
    common.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", choices=("dfm", "lc"), default="dfm")
    model.add_argument(
        "--components",
        default="six",
        help="'one', 'six' or an explicit count per stage (default: six)",
    )
    model.add_argument("--bandwidth", type=float, help="override the plug-in bandwidth")
    model.add_argument(
        "--no-force-residual-stage",
        dest="force_residual_stage",
        action="store_false",
        help="let the independence test decide whether the residual stage runs",
    )
    model.add_argument("--method", choices=SCORE_METHODS, default="random_walk_drift")
    model.add_argument("--lc-resample", choices=RESAMPLE_MODES, default="entries")
    model.add_argument("--lags", type=int, default=5, help="independence-test lags")
    model.add_argument(
        "--dim", type=int, default=3, help="independence-test projection dimension"
    )

    sub.add_parser("ingest", parents=[common], help="rebuild and dump the grid")
    sub.add_parser("gini", parents=[common], help="per-year concentration of deaths")

    diag = sub.add_parser(
        "diagnose", parents=[common, model], help="stationarity and independence checks"
    )
    diag.add_argument(
        "--kpss-permutations",
        type=int,
        default=199,
        help="permutations behind the stationarity p-value",
    )

    sub.add_parser("fit", parents=[common, model], help="export the decomposition")

    fc = sub.add_parser(
        "forecast", parents=[common, model], help="bootstrap interval forecasts"
    )
    fc.add_argument("--horizon-max", type=int, default=20, dest="max_horizon")
    fc.add_argument("--replications", type=int, default=1000)
    fc.add_argument("--levels", default="80,95", help="comma-separated percentages")
    fc.add_argument(
        "--dump-samples", action="store_true", help="also write every bootstrap curve"
    )

    bt = sub.add_parser(
        "backtest", parents=[common, model], help="expanding-window evaluation"
    )
    bt.add_argument(
        "--initial-window",
        type=int,
        help="first training length (default: years - max horizon)",
    )
    bt.add_argument("--max-horizon", type=int, default=20)
    bt.add_argument("--replications", type=int, default=1000)
    bt.add_argument("--levels", default="80,95", help="comma-separated percentages")
    bt.add_argument(
        "--jobs",
        type=int,
        help="worker threads over windows (default: 1); each window keeps only"
        " its bands, so memory does not grow with the number of windows."
        " Windows run on one thread of numpy's bundled OpenBLAS, when found,"
        " so outputs depend on neither --jobs nor OPENBLAS_NUM_THREADS",
    )
    return parser


def _config_from_args(args, parser):
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = RunConfig.from_json(handle.read())
        if config.subcommand != args.subcommand:
            raise ConfigurationError(
                f"config file is for {config.subcommand!r},"
                f" but {args.subcommand!r} was invoked"
            )
        # Placement always comes from the command line, never the config.
        config = dataclasses.replace(config, out=args.out)
        if getattr(args, "jobs", None) is not None:
            config = dataclasses.replace(config, jobs=args.jobs)
        return config

    if args.input is None and args.synthetic is None:
        parser.error("one of --input or --synthetic is required")
    if args.input is not None and args.synthetic is not None:
        parser.error("--input and --synthetic are mutually exclusive")

    values = vars(args)
    fields = {
        field.name: values[field.name]
        for field in dataclasses.fields(RunConfig)
        if values.get(field.name) is not None
    }
    if "levels" in fields:
        fields["levels"] = _parse_levels(fields["levels"])
    return RunConfig(**fields)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args, parser)
        _check_model_options(config)
        if config.subcommand not in _RUNNERS:
            raise ConfigurationError(f"unknown subcommand {config.subcommand!r}")
        return _RUNNERS[config.subcommand](config)
    except (CodabootError, OSError) as error:
        print(f"error kind={type(error).__name__}: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
