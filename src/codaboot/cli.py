"""Command-line front end.

Six subcommands cover the pipeline: ``ingest`` rebuilds and dumps the
death-count grid, ``gini`` summarises its concentration by year,
``diagnose`` runs the stationarity and independence checks, ``fit``
exports the factor decomposition, ``forecast`` writes bootstrap interval
forecasts, and ``backtest`` runs the expanding-window evaluation.  Every
run writes a ``config.json`` with the fully resolved settings next to its
outputs; passing that file back through ``--config`` reproduces the run
byte for byte.

Each subcommand computes its tables from the loaded grid and returns them
with a one-line message.  :func:`main` alone holds the run policy: it
checks the settings against what the run reads, pins BLAS to one thread
and writes files, every CSV cell through :func:`_cell`.

One table records the settings each subcommand reads, and its parser
offers exactly those options; any other option is a usage error.  A
source or model option that the chosen source or model does not read, any
unread field of a ``--config`` file, and a file naming ``out`` or ``jobs``
(which only the command line sets) are configuration errors.

Exit codes: 0 on success, 1 on a data or configuration error (reported as
one ``error kind=...`` line on stderr), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing

import numpy as np

from .coda import clr
from .bootstrap import SCORE_METHODS, _check_levels, _one_blas_thread
from .errors import CodabootError, ConfigurationError
from .evaluation import (
    BacktestPlan,
    MethodConfig,
    first_stage,
    fit_dfm_for,
    forecast,
    run_backtest,
)
from .fts import difference_series, functional_kpss_pvalue
from .lifetable import gini_coefficient, parse_lifetable, rebuild_deaths
from .synthetic import make_synthetic_grid


# The fields that place a run without changing its results.  Only the
# command line sets them, and the emitted config leaves them out, so configs
# of identical computations compare byte for byte.
_PLACEMENT = ("out", "jobs")


@dataclasses.dataclass
class RunConfig:
    """Fully resolved settings of one CLI run; the only home of their defaults."""

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
    levels: tuple[float, ...] = (0.8, 0.95)
    seed: int = 0
    method: str = "random_walk_drift"
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
        for name in _PLACEMENT:
            del data[name]
        return json.dumps(data, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"config file is not valid JSON: {error}") from None
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"config file must hold a JSON object, got {type(data).__name__}"
            )
        # Configs written before Lee-Carter was banded from the error pools
        # record its residual resampling mode.  The default, "entries", is
        # dropped; a config that chose another mode asked for bands that no
        # longer exist, so it fails.
        removed = data.pop("lc_resample", "entries")
        if removed != "entries":
            raise ConfigurationError(
                f"config field 'lc_resample' was removed; only 'entries' still loads,"
                f" got {removed!r}"
            )
        hints = typing.get_type_hints(cls)
        unknown = set(data) - set(hints)
        if unknown:
            raise ConfigurationError(f"unknown config fields: {sorted(unknown)}")
        placed = [name for name in _PLACEMENT if name in data]
        if placed:
            raise ConfigurationError(
                f"config file names {', '.join(placed)}, which only the command line sets"
            )
        if "subcommand" not in data:
            raise ConfigurationError("config file must name its subcommand")
        for name, value in data.items():
            if not _json_fits(value, hints[name]):
                raise ConfigurationError(
                    f"config field {name!r} must be {cls.__annotations__[name]},"
                    f" got {value!r}"
                )
        if "levels" in data:
            data["levels"] = _check_levels(data["levels"])
        return cls(**data)


def _json_fits(value, hint):
    """Whether a decoded JSON value fits a field's annotation: a float field
    takes any JSON number, null fits only an optional field, and a boolean
    is never a number."""
    if typing.get_origin(hint) is tuple:
        return isinstance(value, list) and all(_json_fits(v, float) for v in value)
    kinds = typing.get_args(hint) or (hint,)
    if float in kinds:
        kinds += (int,)
    return isinstance(value, kinds) and isinstance(value, bool) == (bool in kinds)


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
    )


def _option(subcommand, name):
    """The command-line option that sets a :class:`RunConfig` field."""
    if name == "force_residual_stage":
        return "--no-force-residual-stage"
    if name == "max_horizon" and subcommand == "forecast":
        return "--horizon-max"
    return "--" + name.replace("_", "-")


# The RunConfig fields each subcommand reads besides ``subcommand``, ``out``
# and its source; forecast and backtest also read those of their model, the
# factor model its lags and dim only when its residual stage is not forced.
# Each subcommand's parser offers exactly these options, spelled by _option.
_FORECAST_READS = ("seed", "model", "components", "max_horizon", "replications", "levels")
_READS = {
    "ingest": (),
    "gini": (),
    "diagnose": ("seed", "components", "bandwidth", "lags", "dim", "kpss_permutations"),
    "fit": ("components", "bandwidth", "force_residual_stage", "lags", "dim"),
    "forecast": _FORECAST_READS + ("dump_samples",),
    "backtest": _FORECAST_READS + ("initial_window", "jobs"),
}
_MODEL_READS = {
    "dfm": ("method", "bandwidth", "force_residual_stage", "lags", "dim"),
    "lc": (),
}

# The argparse keywords of each field's option.  An option left out sets
# nothing, so RunConfig supplies every default.
_OPTIONS = {
    "input": {"help": "life-table file (columnar or CSV of year,age,qx)"},
    "synthetic": {"type": int, "metavar": "N", "help": "use N years of synthetic data instead"},
    "synthetic_seed": {"type": int},
    "sex": {"choices": ("female", "male", "total"), "help": "filter when a Sex column exists"},
    "out": {"help": "output directory (default: .)"},
    "model": {"choices": tuple(_MODEL_READS)},
    "components": {"help": "'one', 'six' or an explicit count per stage (default: six)"},
    "initial_window": {
        "type": int,
        "help": "first training length (default: years - max horizon)",
    },
    "max_horizon": {"type": int},
    "replications": {"type": int},
    "levels": {"help": "comma-separated percentages"},
    "seed": {"type": int, "help": "random seed (default: 0)"},
    "method": {"choices": SCORE_METHODS},
    "bandwidth": {"type": float, "help": "override the plug-in bandwidth"},
    "force_residual_stage": {
        "action": "store_false",
        "help": "let the independence test decide whether the residual stage runs",
    },
    "lags": {"type": int, "help": "independence-test lags"},
    "dim": {"type": int, "help": "independence-test projection dimension"},
    "kpss_permutations": {"type": int, "help": "permutations behind the stationarity p-value"},
    "dump_samples": {"action": "store_true", "help": "also write every bootstrap curve"},
    "jobs": {
        "type": int,
        "help": "worker threads over windows (default: 1); each window keeps only"
        " its bands, so memory does not grow with the number of windows."
        " Windows run on one thread of numpy's bundled OpenBLAS, when found,"
        " so outputs depend on neither --jobs nor OPENBLAS_NUM_THREADS",
    },
}


# The counts that must be at least 1.  The initial window's minimum
# belongs to BacktestPlan, which names it.
_COUNTS = ("replications", "max_horizon", "jobs", "kpss_permutations", "lags", "dim")


def _check_options(config):
    """Reject a run without exactly one source, an unread field away from
    its default, a negative seed, a count below 1, a level that its column
    tag does not name, and levels that share a column tag."""
    sources = [name for name in ("input", "synthetic") if getattr(config, name) is not None]
    if len(sources) != 1:
        given = " and ".join("--" + name for name in sources) or "neither"
        raise ConfigurationError(
            f"{config.subcommand} needs exactly one of --input and --synthetic, got {given}"
        )
    # A life table takes a sex filter, and the generator a seed.
    extra = "sex" if config.synthetic is None else "synthetic_seed"
    reads = {"subcommand", "out", *sources, extra, *_READS[config.subcommand]}
    run = f"{config.subcommand} with --{sources[0]}"
    if "model" in reads:
        if config.model not in _MODEL_READS:
            models = " or ".join(map(repr, _MODEL_READS))
            raise ConfigurationError(f"model must be {models}, got {config.model!r}")
        reads.update(_MODEL_READS[config.model])
        run += f" and model {config.model!r}"
        if config.model == "dfm" and config.force_residual_stage:
            # A forced residual stage runs without the independence test,
            # so the test's settings change no output.
            reads -= {"lags", "dim"}
            run += " and a forced residual stage"
    defaults = RunConfig(subcommand=config.subcommand)
    unread = [
        _option(config.subcommand, field.name)
        for field in dataclasses.fields(RunConfig)
        if field.name not in reads
        and getattr(config, field.name) != getattr(defaults, field.name)
    ]
    if unread:
        raise ConfigurationError(f"{run} does not read {', '.join(unread)}")
    for name in ("seed", "synthetic_seed"):
        if getattr(config, name) < 0:
            raise ConfigurationError(f"{_option(config.subcommand, name)} must be non-negative")
    for name in _COUNTS:
        value = getattr(config, name)
        if name in reads and value < 1:
            option = _option(config.subcommand, name)
            raise ConfigurationError(f"{option} must be at least 1, got {value}")
    if len({_level_tag(level) for level in config.levels}) < len(config.levels):
        raise ConfigurationError(f"levels {list(config.levels)} share a column tag")
    for level in config.levels:
        # The tag rounds the percentage to six significant digits; it names
        # the level when that drops nothing but the float's own rounding.
        if f"{level * 100:g}" != f"{level * 100:.15g}":
            raise ConfigurationError(
                f"level {level * 100:.15g} would be tagged {_level_tag(level)};"
                " give levels to at most six significant digits"
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


def _level_tag(level):
    return f"{level * 100:g}".replace(".", "p")


def _cell(value):
    """The one text form of a CSV cell: a string as given, an integer in
    full, and a float to ten significant digits."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return f"{value:.10g}"


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(map(_cell, row)) + "\n")


def _labelled(labels, rows):
    """Rows that each start with a label; as lazy as ``rows`` is."""
    return ([label, *row] for label, row in zip(labels, rows))


def _load_grid(config):
    if config.synthetic is not None:
        return make_synthetic_grid(config.synthetic, seed=config.synthetic_seed)
    table = parse_lifetable(config.input, sex_filter=config.sex)
    return rebuild_deaths(table)


# Every command maps ``(config, grid)`` to ``(tables, message)``: a list of
# ``(file name, header, rows)`` and the line printed once they are written.


def _cmd_ingest(config, grid):
    """rebuild and dump the grid"""
    header = ["year"] + [f"age_{a}" for a in grid.ages.tolist()]
    deaths = ([f"{v:.6f}" for v in row] for row in grid.deaths.tolist())
    tables = [("grid.csv", header, _labelled(grid.years.tolist(), deaths))]
    return tables, f"wrote grid.csv with {grid.n_years} years x {grid.n_ages} ages"


def _cmd_gini(config, grid):
    """per-year concentration of deaths"""
    years = grid.years.tolist()
    rows = [(year, gini_coefficient(d)) for year, d in zip(years, grid.deaths)]
    return [("gini.csv", ["year", "gini"], rows)], f"wrote gini.csv for {len(years)} years"


def _cmd_diagnose(config, grid):
    """stationarity and independence checks"""
    series = clr(grid)
    rows = []
    for name, tested in (("raw", series), ("differenced", difference_series(series))):
        stat, pval = functional_kpss_pvalue(
            tested, n_permutations=config.kpss_permutations, seed=config.seed
        )
        decision = "trend-nonstationary" if pval <= 0.05 else "trend-stationary"
        rows.append([f"stationarity_{name}", stat, pval, decision])

    # The row reads the test on the first-stage residuals, so only the
    # first stage is fitted.
    outcome = first_stage(series, _method_config(config))[1]
    decision = "dependent" if outcome.dependent() else "independent"
    decision = "degenerate" if outcome.degenerate else decision
    rows.append(["residual_independence", outcome.statistic, outcome.p_value, decision])
    header = ["name", "statistic", "p_value", "decision"]
    return [("diagnostics.csv", header, rows)], "wrote diagnostics.csv"


def _cmd_fit(config, grid):
    """export the decomposition"""
    series, method = clr(grid), _method_config(config)
    fitted = fit_dfm_for(series, method)
    ages, years = grid.ages.tolist(), grid.years.tolist()
    tables = [("mean_curve.csv", ["age", "value"], zip(ages, fitted.mean_curve.tolist()))]
    summary = []
    for stage, basis, scores in (
        ("primary", fitted.primary_basis, fitted.primary_scores),
        ("residual", fitted.residual_basis, fitted.residual_scores),
    ):
        components = [f"component_{k + 1}" for k in range(basis.n_components)]
        rows = _labelled(ages, basis.functions.T.tolist())
        tables.append((f"{stage}_basis.csv", ["age"] + components, rows))
        rows = _labelled(years, scores.tolist())
        tables.append((f"{stage}_scores.csv", ["year"] + components, rows))
        summary += [(stage, k + 1, v) for k, v in enumerate(basis.eigenvalues.tolist())]
    # A forced fit runs no test, so the first stage's is made here.
    summary.append(("independence_p_value", "", first_stage(series, method)[1].p_value))
    summary.append(("residual_stage_ran", "", str(fitted.n_residual > 0).lower()))
    residuals = _labelled(years, fitted.final_residuals.tolist())
    tables.append(("final_residuals.csv", ["year"] + [f"age_{a}" for a in ages], residuals))
    tables.append(("fit_summary.csv", ["name", "index", "value"], summary))
    message = (
        f"fit {fitted.n_primary} primary + {fitted.n_residual} residual components"
        f" on {grid.n_years} years"
    )
    return tables, message


def _cmd_forecast(config, grid):
    """bootstrap interval forecasts"""
    # Not through MODEL_FORECASTERS, which holds the backtest's per-window calls.
    forecasts = forecast(
        clr(grid), _method_config(config), config.max_horizon, config.levels, config.seed,
        keep_samples=config.dump_samples,
    )
    ages = grid.ages.tolist()
    header = ["age", "point"]
    for level in config.levels:
        header += [f"lower_{_level_tag(level)}", f"upper_{_level_tag(level)}"]
    tables = []
    for fc in forecasts:
        columns = [fc.point]
        for level in config.levels:
            columns += [fc.lower[level], fc.upper[level]]
        columns = np.column_stack(columns)
        rows = _labelled(ages, columns.tolist())
        tables.append((f"forecast_h{fc.horizon:02d}.csv", header, rows))
        if config.dump_samples:
            samples = fc.samples
            sample_header = ["age"] + [f"sample_{b + 1}" for b in range(samples.shape[0])]
            # Converted one age at a time, as written, to hold no more
            # Python floats than one row.
            rows = _labelled(ages, map(np.ndarray.tolist, samples.T))
            tables.append((f"samples_h{fc.horizon:02d}.csv", sample_header, rows))
    replicates = f"{config.replications} replicates each"
    return tables, f"wrote {len(forecasts)} horizon files with {replicates}"


def _cmd_backtest(config, grid):
    """expanding-window evaluation"""
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
    tables = []
    for row in report.rows:
        columns = (row.horizons, row.window_counts, row.ecp_by_horizon, row.cpd_by_horizon)
        rows = zip(*(column.tolist() for column in columns))
        name = f"horizons_{row.label}_{_level_tag(row.level)}.csv"
        tables.append((name, ["horizon", "windows", "ecp", "cpd"], rows))
    summary = [
        (row.label, row.model, row.components, row.level, row.ecp_bar, row.cpd_bar)
        for row in report.rows
    ]
    header = ["label", "model", "components", "level", "ecp_bar", "cpd_bar"]
    tables.append(("summary.csv", header, summary))
    return tables, f"wrote summary.csv with {len(report.rows)} rows"


_COMMANDS = {
    "ingest": _cmd_ingest,
    "gini": _cmd_gini,
    "diagnose": _cmd_diagnose,
    "fit": _cmd_fit,
    "forecast": _cmd_forecast,
    "backtest": _cmd_backtest,
}


def _build_parser():
    """One subparser per command, offering exactly the options its run reads."""
    parser = argparse.ArgumentParser(
        prog="codaboot",
        description="Bootstrap interval forecasts of life-table death counts.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    sub.required = True
    for name, command in _COMMANDS.items():
        options = sub.add_parser(name, help=command.__doc__, argument_default=argparse.SUPPRESS)
        options.set_defaults(usage_error=options.error)
        options.add_argument("--config", help="rerun from an emitted config.json")
        source = options.add_mutually_exclusive_group()
        fields = ["out", "synthetic_seed", "sex", *_READS[name]]
        if "model" in fields:
            fields += [field for reads in _MODEL_READS.values() for field in reads]
        for field in dict.fromkeys(["input", "synthetic", *fields]):
            group = source if field in ("input", "synthetic") else options
            group.add_argument(_option(name, field), dest=field, **_OPTIONS[field])
    return parser


def _config_from_args(args):
    fields = [field.name for field in dataclasses.fields(RunConfig)]
    given = {name: getattr(args, name) for name in fields if hasattr(args, name)}
    if hasattr(args, "config"):
        # Placement comes from the command line alone, and every other
        # setting from the config alone.
        allowed = ("subcommand", *_PLACEMENT)
        unread = [_option(args.subcommand, name) for name in given if name not in allowed]
        if unread:
            raise ConfigurationError(
                f"--config takes no options but --out and --jobs, got {', '.join(unread)}"
            )
        with open(args.config, "r", encoding="utf-8") as handle:
            config = RunConfig.from_json(handle.read())
        if config.subcommand != args.subcommand:
            raise ConfigurationError(
                f"config file is for {config.subcommand!r},"
                f" but {args.subcommand!r} was invoked"
            )
        placement = {name: given[name] for name in _PLACEMENT if name in given}
        return dataclasses.replace(config, **placement)

    if "input" not in given and "synthetic" not in given:
        args.usage_error("one of --input or --synthetic is required")
    if "levels" in given:
        given["levels"] = _parse_levels(given["levels"])
    return RunConfig(**given)


def main(argv=None):
    args, unoffered = _build_parser().parse_known_args(argv)
    if unoffered:
        args.usage_error(f"unrecognized arguments: {' '.join(unoffered)}")
    try:
        config = _config_from_args(args)
        _check_options(config)
        # Every command computes on one BLAS thread, so its bytes do not
        # depend on OPENBLAS_NUM_THREADS.
        with _one_blas_thread():
            tables, message = _COMMANDS[config.subcommand](config, _load_grid(config))
        os.makedirs(config.out, exist_ok=True)
        with open(os.path.join(config.out, "config.json"), "w", encoding="utf-8") as handle:
            handle.write(config.to_json())
        for name, header, rows in tables:
            _write_csv(os.path.join(config.out, name), header, rows)
        print(message)
        return 0
    except (CodabootError, OSError) as error:
        print(f"error kind={type(error).__name__}: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
