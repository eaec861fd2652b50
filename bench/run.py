"""Benchmark of the arccover command line.

Run from the root of a checkout:

    python3 bench/run.py --workload trial-1e7 --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25     # every workload, one table

One run calls `cli.main` once untimed to warm up, then calls it again and
again for `--seconds` (at least three times) in this process.  With
`--trace 0` it times set-up in a fresh interpreter after each call and
reports the end-to-end metrics; with `--trace 1` it skips set-up,
alternates untraced and traced calls until the cell percentiles have
enough samples, and reports the per-layer metrics of the traced ones.
Every call's output files must be byte-identical to the first call's and,
for seed 0, match the sha256 digests in `reference.json`.

The first line of standard output holds the environment; the last is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
See BENCHMARK.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import numpy

import layers
from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

MIN_CALLS = 3
SETUP_REPEATS = 21

# The arguments of each workload for a seed, and the target and length rule
# its set-up builds.  BENCHMARK.md gives the reason for each workload.
WORKLOADS = {
    "trial-1e7": (
        lambda seed: ["trial", "--target", "circle", "--lengths", "logn:0.5",
                      "--n-max", "10000000", "--seed", str(seed)],
        lambda seed: ("circle", "logn:0.5")),
    "scan-cantor": (
        lambda seed: ["scan", "--target", "cantor:0.3333333333:14", "--c", "0.3:2.1:0.3",
                      "--trials", "20", "--n-max", "100000", "--jobs", "2",
                      "--seed0", str(20 * seed)],
        lambda seed: ("cantor:0.3333333333:14", "logn:0.3")),
    "dims-1e6": (
        lambda seed: ["dims", "--c", "0.5", "--n-max", "1000000", "--seeds", "20",
                      "--jobs", "2", "--seed0", str(20 * seed)],
        lambda seed: ("circle", "logn:0.5")),
    "series-1e7": (
        lambda seed: ["series", "--lengths", _series_rule(seed), "--n", "10000000"],
        lambda seed: ("", _series_rule(seed))),
}

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"), ("ok_frac", "frac"))

# Set-up in a fresh interpreter: import the package and build the target and
# the length rule of the workload.
_SETUP_CODE = """\
import sys
import arccover.cli
from arccover import parse_lengths, parse_target
target, lengths = sys.argv[1:3]
if target:
    parse_target(target)
parse_lengths(lengths)
"""


def _series_rule(seed: int) -> str:
    # seed 0 is the c = 1 boundary case; other seeds move c inside [1, 2)
    return f"logn:{1 + (seed % 1000) / 1000:g}"


def _load_program():
    """Import arccover from this checkout's sources, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "arccover", "__init__.py")):
        sys.exit(f"bench: no arccover sources under {SRC}; run from a checkout")
    sys.path.insert(0, SRC)
    return [importlib.import_module(name) for name in layers.MODULES]


# ---------------------------------------------------------------------------
# one call of the command line


def _digests(prefix: str) -> dict:
    folder, stem = os.path.split(prefix)
    out = {}
    for entry in sorted(os.listdir(folder)):
        if entry.startswith(stem + "."):
            with open(os.path.join(folder, entry), "rb") as f:
                out[entry[len(stem):]] = hashlib.sha256(f.read()).hexdigest()
    return out


def _failed_cells(prefix: str) -> dict:
    try:
        with open(prefix + ".json") as f:
            payload = json.load(f)
    except (OSError, json.JSONDecodeError):
        return {}
    return payload.get("scan", {}).get("failed", {})


def invoke(argv: list, prefix: str) -> dict:
    """Call `cli.main` once; return its wall and CPU time, exit code,
    output digests and size, and the scan cells it reported as failed."""
    cli = sys.modules["arccover.cli"]
    folder = os.path.dirname(prefix)
    shutil.rmtree(folder, ignore_errors=True)
    os.makedirs(folder)
    own0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        try:
            code = cli.main(argv + ["--out", prefix])
        except SystemExit as exc:  # argparse refusing the arguments
            code = exc.code
        wall = perf_counter() - t0
    own1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = sum(b.ru_utime - a.ru_utime + b.ru_stime - a.ru_stime
              for a, b in ((own0, own1), (kids0, kids1)))
    return {
        "wall": wall,
        "cpu": cpu,
        "code": code,
        "digests": _digests(prefix),
        "bytes": sum(os.path.getsize(os.path.join(folder, e)) for e in os.listdir(folder)),
        "failed_cells": _failed_cells(prefix),
    }


def problems(call: dict, first: dict | None, reference: dict | None) -> list:
    """Why a call counts as failed; empty when it is correct."""
    found = []
    if call["code"] != 0:
        found.append(f"exit code {call['code']}")
    if call["failed_cells"]:
        found.append(f"scan cells failed: {sorted(call['failed_cells'])}")
    if first is not None and call["digests"] != first["digests"]:
        found.append("outputs differ from the run's first call")
    if reference is not None and call["digests"] != reference:
        found.append(f"outputs differ from reference digests: {call['digests']}")
    return found


def traced_call(argv: list, prefix: str, modules: list, spool: str) -> tuple:
    """One call with every layer wrapped; returns the call and its layer values."""
    tracer = Tracer(spool, layers.COUNTERS)
    tracer.install(modules, layers.PRIVATE)
    try:
        call = invoke(argv, prefix)
    finally:
        tracer.uninstall()
    spans, counts, pool = tracer.collect()
    values, cells = layers.invocation_values(spans, counts, pool, os.getpid())
    values["cli.output_bytes"] = call["bytes"]
    return call, (values, cells), tracer.names


# ---------------------------------------------------------------------------
# set-up time, environment


def setup_time(target: str, lengths: str) -> float | None:
    """Seconds for a fresh interpreter to import arccover and build the
    workload's target and length rule; None if it fails."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = perf_counter()
    done = subprocess.run([sys.executable, "-c", _SETUP_CODE, target, lengths],
                          env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    elapsed = perf_counter() - t0
    if done.returncode != 0:
        print(f"failure: set-up exited {done.returncode}", file=sys.stderr)
        return None
    return elapsed


def _git_commit() -> str:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "start_method": multiprocessing.get_start_method(),
    }


def _reference_digests(workload: str, seed: int) -> dict | None:
    """Digests recorded for seed 0, when they apply to this numpy."""
    if seed != 0:
        return None
    with open(REFERENCE) as f:
        ref = json.load(f)
    if ref["numpy"] != numpy.__version__:
        # the outputs embed the numpy version, so their bytes cannot match
        print(f"note: reference digests were recorded with numpy {ref['numpy']}; "
              f"this is numpy {numpy.__version__}: checking determinism only",
              file=sys.stderr)
        return None
    return ref["digests"][workload]


# ---------------------------------------------------------------------------
# one run


def _spread(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} median={median:.4g} q3={q3:.4g}"


def _cells(layer_samples: list) -> int:
    return sum(len(cells) for _, cells in layer_samples)


def run(modules: list, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    argv_for, setup_for = WORKLOADS[workload]
    argv = argv_for(seed)
    reference = _reference_digests(workload, seed)
    work_dir = os.path.join(OUT_DIR, workload)
    prefix = os.path.join(work_dir, "out", "out")
    spool = os.path.join(work_dir, "spool")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(spool)

    attempted = failed = 0
    first = None
    plain, traced, setups, layer_samples, traced_names = [], [], [], [], set()
    deadline = None
    while (deadline is None or perf_counter() < deadline or len(plain) < MIN_CALLS
           or (trace and (len(traced) < MIN_CALLS or 0 < _cells(layer_samples) < layers.P90_CELLS))):
        use_tracer = trace and first is not None and len(plain) > len(traced)
        if use_tracer:
            call, sample, traced_names = traced_call(argv, prefix, modules, spool)
            layer_samples.append(sample)
        else:
            call = invoke(argv, prefix)
        attempted += 1
        found = problems(call, first, reference)
        if found:
            failed += 1
            print(f"failure: {'; '.join(found)}", file=sys.stderr)
        if first is None:  # the warm-up call: checked, not timed
            first = call
            start = perf_counter()
            deadline = start + seconds
            print(f"outputs: {json.dumps(call['digests'], sort_keys=True)}")
            continue
        (traced if use_tracer else plain).append(call)
        if not trace:
            # set-up runs between timed calls, never beside one, and its
            # samples spread over the same window: at least one per call,
            # and SETUP_REPEATS by the deadline
            due = max(len(setups) + 1,
                      math.ceil(SETUP_REPEATS * min(1.0, (perf_counter() - start) / seconds)))
            while len(setups) < due:
                setups.append(setup_time(*setup_for(seed)))

    walls = [c["wall"] for c in plain]
    attempted += len(setups)
    failed += setups.count(None)
    setups = [t for t in setups if t is not None]
    if not setups and not trace:
        sys.exit("bench: set-up failed on every attempt")
    if trace:
        traced_walls = [c["wall"] for c in traced]
        metrics = layers.summarize(layer_samples, traced_names)
        metrics["cli.output_bytes"] = first["bytes"]
        metrics["trace_overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        units = {name: unit for name, unit, _, _ in layers.PER_LAYER}
        # every declared metric is reported; one that could not be measured
        # reads 0 and is named here
        absent = [name for name in units if name not in metrics]
        if absent:
            print(f"absent per-layer metrics (reported as 0): {', '.join(absent)}")
        metrics = {name: metrics.get(name, 0) for name in units}
        print(f"wall_s untraced {_spread(walls)}; traced {_spread(traced_walls)}")
    else:
        # set-up interpreters are children too, but smaller than this process
        peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(c["cpu"] for c in plain),
            "peak_rss_mb": peak_kb / 1024.0,
            "setup_s": statistics.median(setups),
            "ok_frac": 1.0 - failed / attempted,
        }
        units = dict(END_TO_END)
        print(f"wall_s {_spread(walls)}; setup_s {_spread(setups)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own interpreter, so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            sys.exit(f"bench: workload {workload} exited {done.returncode}")
        print(lines[0])  # the environment
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
            print(f"{workload:12} {name:30} {metric['value']:>14.6g} {metric['unit']}")
    return merged


def _seed(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 2 ** 32:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**32), got {seed}")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        modules = _load_program()
        print(json.dumps({"env": environment(args.workload, args.seed)}))
        result = run(modules, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
