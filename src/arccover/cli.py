"""Command line front end.

Commands: trial, scan, dims, series, schedule.  Values resolve as CLI
flags over config-file fields over defaults; the defaults table types each
field, flag text and config value alike.  The configuration as it ran is
echoed into every output file with the tool version and the PRNG identity,
so any published number replays bit-exactly.  Exit codes: 0 success, 2
for a ConfigError (every refused input, printed as `error: <field>: ...`),
1 for any other exception (printed with its type name).

Numeric CSV fields use 17 significant digits, which round-trips 64-bit
floats exactly.  The scan command additionally writes a self-contained
SVG plot (no external assets) of the coverage fraction against c, with
vertical rules at the two analytic thresholds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import astuple, fields

import numpy as np

from . import __version__
from .analyze import ScanRow, phase_scan, uncovered_dimension_experiment
from .lengths import _rare_block_terms, both_series, choose_schedule, parse_lengths
from .errors import ConfigError
from .simulate import PRNG_NAME, PRNG_VERSION, TrialConfig, run_trial
from .targets import parse_target

_FLOAT_FMT = "%.17g"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _FLOAT_FMT % float(value)
    return str(value)


def _json_default(obj):
    """json's fallback for numpy arrays and scalars: their Python values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write(resolved: dict, key: str, payload: dict, columns=None, rows=None,
           svg: str | None = None) -> str:
    """Write a command's outputs and return their path prefix `out`: with
    `columns`, `<out>.csv` (the banner as `#` lines over the table of
    `rows`); then `<out>.json`, the banner with `payload` under `key`; then,
    given its text, `<out>.svg`.  The banner echoes the configuration with
    the tool version, the PRNG identity and the seed, if the command has one."""
    # `out` and `jobs` are execution details: results are independent of
    # them, and leaving them out keeps outputs byte-identical across
    # worker counts and output locations
    banner = {"tool": "arccover", "version": __version__, "prng": PRNG_NAME,
              "prng_version": PRNG_VERSION,
              "config": {k: v for k, v in resolved.items() if k not in ("out", "jobs")}}
    seed = resolved.get("seed", resolved.get("seed0"))
    if seed is not None:
        banner["seed"] = seed
    out = resolved["out"]
    if columns is not None:
        lines = [f"# {k}: " + (json.dumps(v, sort_keys=True) if k == "config" else str(v))
                 for k, v in sorted(banner.items())]
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        with open(out + ".csv", "w") as f:
            f.write("\n".join(lines) + "\n")
    with open(out + ".json", "w") as f:
        json.dump({**banner, key: payload}, f, indent=2, sort_keys=True, default=_json_default)
        f.write("\n")
    if svg is not None:
        with open(out + ".svg", "w") as f:
            f.write(svg)
    return out


# ---------------------------------------------------------------------------
# SVG plot (hand rolled: byte-deterministic, no plotting dependency)

_SVG_W, _SVG_H = 640, 440
_ML, _MR, _MT, _MB = 62, 20, 34, 48


def _scan_svg(scan) -> str:
    cs = [r.c for r in scan.rows]
    c_lo, c_hi = min(cs), max(cs)
    if c_lo == c_hi:
        # one c: an axis of width 1 centred on it keeps the frame's width
        # (two float steps past 2**52, where c +- 0.5 rounds back to c)
        half = max(0.5, math.ulp(c_lo))
        c_lo, c_hi = c_lo - half, c_hi + half

    def xy(c, frac):
        return (_ML + (c - c_lo) / (c_hi - c_lo) * (_SVG_W - _ML - _MR),
                _SVG_H - _MB - frac * (_SVG_H - _MT - _MB))

    points = [xy(r.c, r.eventually_covered_fraction) for r in scan.rows]
    rules = []
    if scan.dim_H is not None:
        rules.append((scan.dim_H, "dim_H", "#b40426"))
    rules.append((scan.cover_threshold, "dim_B+1", "#3b4cc0"))
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_ML}" y="20">eventually-covered fraction vs c  '
        f'[{scan.target_description}, n_max={scan.n_max}, {scan.trials_per_c} trials/c]</text>',
    ]
    # axes
    x0, y0 = xy(c_lo, 0.0)
    x1, y1 = xy(c_hi, 1.0)
    out.append(f'<rect x="{x0:.2f}" y="{y1:.2f}" width="{x1 - x0:.2f}" '
               f'height="{y0 - y1:.2f}" fill="none" stroke="#888"/>')
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        _, ty = xy(c_lo, tick)
        out.append(f'<line x1="{x0 - 4:.2f}" y1="{ty:.2f}" x2="{x0:.2f}" y2="{ty:.2f}" stroke="#888"/>')
        out.append(f'<text x="{x0 - 8:.2f}" y="{ty + 4:.2f}" text-anchor="end">{tick:g}</text>')
    for c in cs:
        tx, _ = xy(c, 0.0)
        out.append(f'<line x1="{tx:.2f}" y1="{y0:.2f}" x2="{tx:.2f}" y2="{y0 + 4:.2f}" stroke="#888"/>')
        out.append(f'<text x="{tx:.2f}" y="{y0 + 18:.2f}" text-anchor="middle">{c:g}</text>')
    out.append(f'<text x="{(x0 + x1) / 2:.2f}" y="{_SVG_H - 10}" text-anchor="middle">c  '
               f'(arc length rule: c ln n / n)</text>')
    for value, label, color in rules:
        if c_lo <= value <= c_hi:
            rx, _ = xy(value, 0.0)
            out.append(f'<line x1="{rx:.2f}" y1="{y1:.2f}" x2="{rx:.2f}" y2="{y0:.2f}" '
                       f'stroke="{color}" stroke-dasharray="5,4"/>')
            out.append(f'<text x="{rx + 3:.2f}" y="{y1 + 14:.2f}" fill="{color}">{label}={value:.4g}</text>')
    if len(points) > 1:
        pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in points)
        out.append(f'<polyline points="{pts}" fill="none" stroke="#222" stroke-width="1.5"/>')
    for px, py in points:
        out.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="#222"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# configuration resolution

_COMMON_DEFAULTS = {
    "checkpoint_ratio": TrialConfig.checkpoint_ratio,
    "first_checkpoint": TrialConfig.n_first_checkpoint,
}

# One table per command: each key is a config field and, with dashes, a
# flag of that command whose type is the type of its default (`None`, for
# jobs, stands for an int that falls back to ARCCOVER_JOBS), and of its
# config-file value.  `out` comes first, so help lists it after --config.
_DEFAULTS = {
    "trial": {"out": "arccover_trial", "target": "circle", "lengths": "logn:1",
              "n_max": 10 ** 5, "seed": 0, **_COMMON_DEFAULTS},
    "scan": {"out": "arccover_scan", "target": "circle", "c": "0.25:3.0:0.25",
             "trials": 20, "n_max": 10 ** 5, "seed0": 0, "tail_checkpoints": 5,
             **_COMMON_DEFAULTS, "jobs": None},
    "dims": {"out": "arccover_dims", "target": "circle", "c": 0.5,
             "n_max": 10 ** 6, "seeds": 20, "seed0": 0, "tail_checkpoints": 1,
             **_COMMON_DEFAULTS, "jobs": None},
    "series": {"out": "arccover_series", "lengths": "logn:1", "beta": 0.0,
               "d": 0.5, "n": 10 ** 6},
    "schedule": {"out": "arccover_schedule", "lengths": "logn:1", "alpha": 0.9,
                 "k": 6},
}

# help for the flags whose name does not say enough; a (command, key) entry
# applies to that command only
_FLAG_HELP = {
    "out": "output path prefix",
    "seeds": "number of seeds (seed0, seed0+1, ...)",
    ("scan", "c"): "grid lo:hi:step or comma list",
}


def _kind(default) -> type:
    return int if default is None else type(default)


def _read(key: str, value, default):
    """A config-file or environment value read as its flag would read it: a
    text field takes a string, a numeric string parses like flag text, and
    a number must keep its value in the field's type, so 2000.0 fills an
    int field and 2000.9, true or NaN do not."""
    kind = _kind(default)
    if kind is str:
        # scan's c grid may also be a list or a number; _parse_c_grid reads it
        if isinstance(value, str) or key == "c":
            return value
        raise ConfigError(key, f"must be a string, got {value!r}")
    try:
        if isinstance(value, str) or type(value) in (int, float) and kind(value) == value:
            return kind(value)
    except (ValueError, OverflowError):
        pass
    noun = "an integer" if kind is int else "a number"
    raise ConfigError(key, f"must be {noun}, got {value!r}")


def _load_config(path: str | None, command: str) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path!r}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config", "top level must be a JSON object")
    version = data.pop("version", 1)
    # true == 1 in Python, so a bool is refused by its type
    if isinstance(version, bool) or version != 1:
        raise ConfigError("version", f"unsupported config version {version!r}")
    cfg_cmd = data.pop("command", None)
    if cfg_cmd is not None and cfg_cmd != command:
        raise ConfigError("command", f"config is for {cfg_cmd!r}, invoked {command!r}")
    unknown = set(data) - set(_DEFAULTS[command])
    if unknown:
        raise ConfigError("config", f"unknown fields for {command}: {sorted(unknown)}")
    return data


def _resolve(args: argparse.Namespace, command: str) -> dict:
    file_cfg = _load_config(args.config, command)
    resolved = {}
    for key, default in _DEFAULTS[command].items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            resolved[key] = flag_val
        elif key in file_cfg:
            resolved[key] = _read(key, file_cfg[key], default)
        else:
            resolved[key] = default
    for key in ("n_max", "trials", "seeds", "n", "k"):  # the fields that must be >= 1
        if key in resolved and resolved[key] < 1:
            raise ConfigError(key, f"must be >= 1, got {resolved[key]}")
    folder = os.path.dirname(resolved["out"]) or "."
    if not os.path.isdir(folder):
        # refused now, not after the command has done its work
        raise ConfigError("out", f"{folder!r} is not an existing directory")
    if "jobs" in resolved and resolved["jobs"] is None:
        resolved["jobs"] = _read("ARCCOVER_JOBS", os.environ.get("ARCCOVER_JOBS") or "1", None)
    resolved["command"] = command
    return resolved


# Most values a lo:hi:step c grid may hold; checked before the grid is built.
MAX_C_VALUES = 10_000


def _parse_c_grid(spec) -> list:
    def number(p):
        try:
            # float(True) is 1.0, but a config's c list holds numbers
            x = math.nan if isinstance(p, bool) else float(p)
        except (TypeError, ValueError):
            x = math.nan
        if not math.isfinite(x):
            raise ConfigError("c", f"not a finite number: {p!r}")
        return x

    if isinstance(spec, (list, tuple)):
        return [number(c) for c in spec]
    spec = str(spec)
    if "," in spec or ":" not in spec:
        return [number(p) for p in spec.split(",") if p != ""]
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError("c", f"expected lo:hi:step or comma list, got {spec!r}")
    lo, hi, step = (number(p) for p in parts)
    if step <= 0 or hi < lo:
        raise ConfigError("c", f"bad grid {spec!r}")
    steps = (hi - lo) / step
    count = int(round(steps)) + 1 if math.isfinite(steps) else math.inf
    if count > MAX_C_VALUES:
        raise ConfigError("c", f"grid {spec!r} gives more than {MAX_C_VALUES} values")
    return [lo + i * step for i in range(count)]


def _trial_config(resolved: dict, seed_key: str, target, lengths) -> TrialConfig:
    """The trial and scan settings; callers parse the target and then the
    lengths or the c grid first, so errors are reported in that order."""
    return TrialConfig(seed=resolved[seed_key], lengths=lengths, target=target,
                       n_max=resolved["n_max"], checkpoint_ratio=resolved["checkpoint_ratio"],
                       n_first_checkpoint=resolved["first_checkpoint"])


# ---------------------------------------------------------------------------
# commands


def _cmd_trial(resolved: dict) -> int:
    """run one seeded trial, write trace CSV + summary JSON"""
    target = parse_target(resolved["target"])
    lengths = parse_lengths(resolved["lengths"])
    trace = run_trial(_trial_config(resolved, "seed", target, lengths))
    out = _write(resolved, "summary", {
        "eventually_covered": trace.eventually_covered,
        "last_failure_n": trace.last_failure_n,
        "n_tail_start": trace.n_tail_start,
        "n_checkpoints": int(trace.checkpoints.size),
        "final_uncovered_measure": float(trace.uncovered_measure[-1]),
        "final_piece_count": int(trace.piece_count[-1]),
    }, columns=["n", "ell_n", "covered", "uncovered_measure", "piece_count"],
        rows=zip(trace.checkpoints, trace.ells, trace.covered, trace.uncovered_measure,
                 trace.piece_count))
    print(f"trial seed={trace.seed}: eventually_covered={trace.eventually_covered} "
          f"last_failure_n={trace.last_failure_n} -> {out}.csv, {out}.json")
    return 0


def _cmd_scan(resolved: dict) -> int:
    """coverage-fraction scan over c, with SVG plot"""
    target = parse_target(resolved["target"])
    c_grid = _parse_c_grid(resolved["c"])
    base = _trial_config(resolved, "seed0", target, None)
    scan = phase_scan(c_grid, base, resolved["trials"], jobs=resolved["jobs"],
                      tail_checkpoints=resolved["tail_checkpoints"])
    out = _write(resolved, "scan", scan.to_dict(),
                 columns=[f.name for f in fields(ScanRow)], rows=map(astuple, scan.rows),
                 svg=_scan_svg(scan))
    for c, msg in scan.failed.items():
        print(f"warning: c={c:g} skipped: {msg}", file=sys.stderr)
    print(f"scan {len(scan.rows)} c-values x {scan.trials_per_c} trials: "
          f"c*={scan.c_star} -> {out}.csv, {out}.json, {out}.svg")
    return 0


def _cmd_dims(resolved: dict) -> int:
    """box-dimension estimates of the tail uncovered set"""
    target = parse_target(resolved["target"])
    seed0 = resolved["seed0"]
    scan = uncovered_dimension_experiment(
        resolved["c"], resolved["n_max"], range(seed0, seed0 + resolved["seeds"]),
        target=target,
        tail_checkpoints=resolved["tail_checkpoints"],
        checkpoint_ratio=resolved["checkpoint_ratio"],
        n_first_checkpoint=resolved["first_checkpoint"],
        jobs=resolved["jobs"])
    out = _write(resolved, "dims", {
        "c": scan.c,
        "n_max": scan.n_max,
        "analytic_floor": scan.analytic_floor,
        "floor_vacuous": scan.floor_vacuous,
        "mean_slope": scan.mean_slope,
        "n_degenerate": scan.n_degenerate,
        "scales": scan.estimates[0].scales,
        "counts_per_seed": [e.counts for e in scan.estimates],
    }, columns=["seed", "slope", "r_squared", "degenerate"],
        rows=[(s, e.slope, e.r_squared, e.degenerate)
              for s, e in zip(scan.seeds, scan.estimates)])
    print(f"dims c={scan.c}: mean slope {scan.mean_slope:.4f} "
          f"(floor {scan.analytic_floor}, vacuous={scan.floor_vacuous}) "
          f"-> {out}.csv, {out}.json")
    return 0


def _slope(slope: float) -> str:
    """A term slope for stdout: 3 decimals below 1e6 in magnitude, else 6
    significant digits, so a huge slope stays one short number (the JSON
    holds it exactly)."""
    return f"{slope:.3f}" if abs(slope) < 1e6 else f"{slope:.6g}"


def _cmd_series(resolved: dict) -> int:
    """covering-series and Shepp-series diagnostics"""
    lengths = parse_lengths(resolved["lengths"])
    cov, shepp = both_series(lengths, resolved["beta"], resolved["d"], resolved["n"])
    results = {"covering": cov, "shepp": shepp}
    out = _write(resolved, "series", {
        name: {
            "verdict": res.verdict,
            "tail_fraction": res.tail_fraction,
            "term_slope": res.term_slope,
            "n_terms": res.n_terms,
            "note": "verdict is a finite-sample heuristic, not a proof",
        } for name, res in results.items()
    }, columns=["series", "n", "partial_sum", "log_partial_sum"],
        rows=[(name, *row) for name, res in results.items()
              for row in zip(res.checkpoints, res.partial_sums, res.log_partial_sums)])
    print(f"covering series: {cov.verdict} (tail fraction {cov.tail_fraction:.3g}, "
          f"term slope {_slope(cov.term_slope)})")
    print(f"shepp series:    {shepp.verdict} (tail fraction {shepp.tail_fraction:.3g}, "
          f"term slope {_slope(shepp.term_slope)})")
    print(f"-> {out}.csv, {out}.json")
    return 0


def _cmd_schedule(resolved: dict) -> int:
    """greedy block schedule construction + check"""
    lengths = parse_lengths(resolved["lengths"])
    alpha = resolved["alpha"]
    sched = choose_schedule(lengths, alpha, resolved["k"])
    terms = _rare_block_terms(lengths, sched, alpha)
    total = float(np.sum(terms))
    out = _write(resolved, "schedule", {
        "indices": list(sched.indices),
        "alpha": alpha,
        "rare_block_terms": terms,
        "rare_block_sum": total,
    })
    print(f"schedule: {sched.indices}")
    print(f"sum_k n_(k-1) * ell(n_k)^alpha = {total:.6g} (alpha={alpha:g}) -> {out}.json")
    return 0


_COMMANDS = {
    "trial": _cmd_trial,
    "scan": _cmd_scan,
    "dims": _cmd_dims,
    "series": _cmd_series,
    "schedule": _cmd_schedule,
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="arccover",
        description="Random covering of the circle by arcs of shrinking length")
    top.add_argument("--version", action="version", version=f"arccover {__version__}")
    sub = top.add_subparsers(dest="command", required=True)
    for command, run in _COMMANDS.items():
        p = sub.add_parser(command, help=run.__doc__)
        p.add_argument("--config", help="JSON config file (flags override it)")
        for key, default in _DEFAULTS[command].items():
            p.add_argument("--" + key.replace("_", "-"),
                           type=_kind(default),
                           help=_FLAG_HELP.get((command, key), _FLAG_HELP.get(key)))
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        resolved = _resolve(args, args.command)
        return _COMMANDS[args.command](resolved)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
