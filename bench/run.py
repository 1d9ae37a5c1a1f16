"""Benchmark of the codaboot command line.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Each workload is one CLI command run on a life table that this script
writes from ``--seed`` (see ``lifegen.py``); the program only reads the
file.  Every sample is a fresh interpreter (``worker.py``), because CLI
users pay the import and BLAS warm-up on every call.  Samples repeat
until ``--seconds`` would be exceeded, and every sample's outputs are
checked (``checks.py``) and must be byte-identical to the first
sample's.

``--trace 0`` reports the end-to-end metrics: the median call time
``wall_s``, import time ``setup_s`` (at least five imports per run) and
``peak_rss_mb``, plus ``fail_ratio`` and, on ``backtest-dfm``,
``cpd_mean``.  ``--trace 1`` alternates untraced and traced samples and
reports the per-layer metrics from spans recorded around the calls into
each codaboot module (``spans.py``) and from timed imports; on
``backtest-dfm`` it adds one traced ``--jobs 1`` sample for
``evaluation.parallel_speedup``.  ``--smoke`` shrinks every workload so
that a run takes seconds; its numbers are not comparable with full runs.

The script prints one line per metric with its unit and sample count,
writes ``.bench_build/BENCH_<workload>_seed<N>[_trace].json`` with the
samples, input digest, output digest and machine record, and ends with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy

import checks
import lifegen
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
WORKER = os.path.join(HERE, "worker.py")

# Every run stays well inside the 180 s a benchmark run may take.
RUN_LIMIT_S = 170.0
SETUP_IMPORTS = 5
# Recorded, not set: CLI users run with the default BLAS threading and pay
# its start-up in the first fit of every call.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_FORECAST = ["forecast", "--horizon-max", "20", "--replications", "1000", "--levels", "80,95"]
_SMOKE_FORECAST = ["forecast", "--horizon-max", "5", "--replications", "50", "--levels", "80,95"]

# name -> (years, CLI arguments, smoke years, smoke CLI arguments)
WORKLOADS = {
    # One fit on a long series: the ETS error pools (quadratic in years),
    # per-horizon central refits and quantiles dominate.
    "forecast-dfm-long": (
        220, _FORECAST + ["--model", "dfm", "--method", "ets_like"],
        40, _SMOKE_FORECAST + ["--model", "dfm", "--method", "ets_like"],
    ),
    # The Lee-Carter replicate loop (an SVD and k ETS fits per replicate);
    # error pools, fit_dfm and KPSS are bypassed.
    "forecast-lc": (
        100, _FORECAST + ["--model", "lc", "--components", "six"],
        40, _SMOKE_FORECAST + ["--model", "lc", "--components", "six"],
    ),
    # 20 windows of fit + AR pools + assembly on two threads, then scoring;
    # every sample stays resident, so this is also the memory workload.
    "backtest-dfm": (
        100, ["backtest", "--model", "dfm", "--initial-window", "80",
              "--max-horizon", "20", "--jobs", "2"],
        40, ["backtest", "--model", "dfm", "--initial-window", "30",
             "--max-horizon", "5", "--replications", "50", "--jobs", "2"],
    ),
    # KPSS permutations dominate; no bootstrap.
    "diagnose": (
        100, ["diagnose", "--kpss-permutations", "999"],
        40, ["diagnose", "--kpss-permutations", "19"],
    ),
}


def declared_metrics():
    """``(end_to_end, per_layer)``: metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return tuple(
        {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    )


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return handle.read().split()[:3]
    except OSError:
        return None


def environment():
    """What numbers from this run may be compared against."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {
        "nproc": cores,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_configuration": blas.get("openblas configuration"),
        "blas_threads_env": {key: os.environ.get(key) for key in BLAS_THREAD_VARS},
    }


class Runner:
    """Runs and checks the samples of one benchmark run."""

    def __init__(self, cli_args, input_path, work_dir, deadline):
        self.cli_args = cli_args
        self.input_path = input_path
        self.work_dir = work_dir
        self.deadline = deadline
        self.reference_digest = None
        self.samples = []

    def _spawn(self, cli_args, trace):
        result_path = os.path.join(self.work_dir, "result.json")
        if os.path.exists(result_path):
            os.remove(result_path)
        command = [sys.executable, WORKER, SRC, result_path] + (["--trace"] if trace else [])
        command += ["--"] + cli_args
        timeout = max(1.0, self.deadline - time.perf_counter())
        try:
            proc = subprocess.run(
                command, cwd=self.work_dir, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s"
        if proc.returncode != 0 or not os.path.exists(result_path):
            return None, f"worker exited {proc.returncode}: {proc.stderr[-500:]}"
        with open(result_path, encoding="utf-8") as handle:
            return json.load(handle), None

    def import_only(self):
        """One import-time measurement without a CLI call."""
        result, error = self._spawn([], trace=False)
        if error:
            raise RuntimeError(f"import probe failed: {error}")
        return result["setup_s"]

    def sample(self, trace=False, jobs=None):
        """One checked CLI call; returns its record (also kept in ``samples``)."""
        cli_args = list(self.cli_args)
        if jobs is not None:
            cli_args[cli_args.index("--jobs") + 1] = str(jobs)
        out_dir = tempfile.mkdtemp(prefix="out-", dir=self.work_dir)
        record = {"trace": trace, "jobs": jobs, "problems": []}
        try:
            result, error = self._spawn(
                cli_args + ["--input", self.input_path, "--out", out_dir], trace
            )
            if error:
                record["problems"].append(error)
            else:
                record.update(result)
                if result["exit_code"] != 0:
                    record["problems"].append(f"exit code {result['exit_code']}")
                record["problems"] += checks.check_outputs(out_dir, cli_args)
            if not record["problems"]:
                record["digest"], record["bytes"] = checks.output_digest(out_dir)
                if self.reference_digest is None:
                    self.reference_digest = record["digest"]
                elif record["digest"] != self.reference_digest:
                    record["problems"].append("output bytes differ from the first sample")
                if cli_args[0] == "backtest":
                    record["cpd_mean"] = checks.cpd_mean(out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        record["ok"] = not record["problems"]
        self.samples.append(record)
        return record


def _repeat(seconds, step):
    """Call ``step`` until another call would end past ``seconds``."""
    start = time.perf_counter()
    rounds = 0
    while True:
        step()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(runner, seconds):
    _repeat(seconds, runner.sample)
    good = [s for s in runner.samples if s["ok"]]
    setups = [s["setup_s"] for s in good]
    while good and len(setups) < SETUP_IMPORTS:
        setups.append(runner.import_only())
    metrics = {
        "wall_s": (_median([s["wall_s"] for s in good]), len(good)),
        "setup_s": (_median(setups), len(setups)),
        "peak_rss_mb": (_median([s["peak_rss_mb"] for s in good]), len(good)),
    }
    return metrics, []


def per_layer(runner, seconds):
    def pair():
        runner.sample()
        runner.sample(trace=True)

    if "--jobs" in runner.cli_args:
        runner.sample(trace=True, jobs=1)
    _repeat(seconds, pair)

    good = [s for s in runner.samples if s["ok"]]
    traced = [s for s in good if s["trace"] and s["jobs"] is None]
    plain = [s for s in good if not s["trace"]]
    layers = []
    for sample in traced:
        values = spans.layer_metrics(sample["spans"], sample["wall_s"])
        values["import.codaboot_s"] = sample["imports"].get("codaboot", 0.0)
        values["import.scipy_stats_s"] = sample["imports"].get("scipy.stats", 0.0)
        values["cli.bytes_written"] = sample["bytes"]
        layers.append(values)
    problems = []
    metrics = {}
    for name in layers[0] if layers else ():
        values = [layer[name] for layer in layers]
        if isinstance(values[0], int) and len(set(values)) > 1:
            problems.append(f"{name} differs between traced samples: {values}")
        metrics[name] = (_median(values), len(values))

    traced_wall = _median([s["wall_s"] for s in traced])
    metrics["trace.overhead_s"] = (
        traced_wall - _median([s["wall_s"] for s in plain]),
        min(len(traced), len(plain)),
    )
    single = [s for s in good if s["jobs"] == 1]
    metrics["evaluation.parallel_speedup"] = (
        single[0]["wall_s"] / traced_wall if single and traced_wall else 0.0,
        len(single),
    )
    return metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "codaboot", "cli.py")):
        print(f"error: codaboot sources not found under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    end_to_end_units, per_layer_units = declared_metrics()
    declared = per_layer_units if args.trace else end_to_end_units
    units = {**end_to_end_units, **per_layer_units}
    years, cli_args, smoke_years, smoke_args = WORKLOADS[args.workload]
    if args.smoke:
        years, cli_args = smoke_years, smoke_args
    os.makedirs(BUILD, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD)
    load_before = _loadavg()
    env = environment()
    try:
        input_path = os.path.join(work_dir, "lifetable.txt")
        input_sha = lifegen.write_life_table(input_path, years, args.seed)
        runner = Runner(cli_args, input_path, work_dir, started + RUN_LIMIT_S)
        # Unmeasured: compiles bytecode in a fresh checkout, warms the file cache.
        runner.import_only()
        if args.trace:
            metrics, problems = per_layer(runner, args.seconds)
        else:
            metrics, problems = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(runner.samples)
    failed = sum(not s["ok"] for s in runner.samples)
    cpds = [s["cpd_mean"] for s in runner.samples if "cpd_mean" in s]
    metrics["fail_ratio"] = (failed / attempted, attempted)
    if cpds or args.trace:
        metrics["cpd_mean"] = (_median(cpds), len(cpds))

    for sample in runner.samples:
        for problem in sample["problems"]:
            print(f"FAIL sample: {problem}", file=sys.stderr)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    load_after = _loadavg()
    if load_before and env["nproc"] and float(load_before[0]) > env["nproc"]:
        print(f"note: load average {load_before[0]} exceeds {env['nproc']} cores;"
              " these numbers are not comparable with an idle run", file=sys.stderr)

    correct = failed == 0 and not problems and attempted > 0
    label = f"{args.workload}_seed{args.seed}" + ("_trace" if args.trace else "")
    label += "_smoke" if args.smoke else ""
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "command": ["codaboot"] + cli_args + ["--input", "<table>", "--out", "<dir>"],
        "input": {"years": years, "ages": lifegen.TERMINAL_AGE + 1, "sha256": input_sha},
        "output_sha256": runner.reference_digest,
        "environment": dict(env, loadavg_before=load_before, loadavg_after=load_after),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name], "samples": n}
            for name, (value, n) in metrics.items()
        },
        "samples": [{k: v for k, v in s.items() if k != "spans"} for s in runner.samples],
        "spans": next(
            (s["spans"] for s in reversed(runner.samples) if s.get("spans")), None
        ),
    }
    bench_path = os.path.join(BUILD, f"BENCH_{label}.json")
    with open(bench_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    for name, entry in report["metrics"].items():
        print(f"{name:34s} {entry['value']:14.6g} {entry['unit']:6s} (n={entry['samples']})")
    print(f"output sha256 {runner.reference_digest}  input sha256 {input_sha}")
    print(f"wrote {os.path.relpath(bench_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in report["metrics"].items()
            if name in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
