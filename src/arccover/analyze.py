"""Statistics over trials: phase scans and box-dimension estimates.

The phase scan sweeps the constant c in ell(n) = c ln(n)/n and measures
the empirical probability that the target is eventually covered, next to
the two analytic thresholds: no covering below the target's Hausdorff
dimension, covering above its upper box dimension plus one.  The band in
between is reported as "theorem-silent": the scan still shows fractions
there but asserts nothing.  Every c uses the same seeds, so the unit of
work is one seed swept over the whole c grid: the scan reads only each
trial's verdicts and tail union, which simulate._verdicts gives for all
c from one pass over the seed's centers.  A dimension estimate reads
only the tail union, from simulate._tail_union.

Both experiments run independent seeds over one shared configuration
(_map_seeds): inline, or in a process pool of at most one worker per
seed and per usable CPU, whose workers receive the shared inputs, target
and length rules included, once each through the pool initializer, so
each message carries only a seed.  Each experiment first checks its own
inputs, the scale guard included, which depends on c but not on the
seed; then _map_seeds checks, once, in the parent, before any cell runs
or any pool starts, what every cell shares: the tail window, the lowest
and highest seed, `jobs`, and the memory of the trials that run at once,
one per worker (simulate._check_memory).  The cells' results come back
in seed order, inline and from the pool alike.  The pool is taken to
fill the cores, so its workers run the kernel on one thread
(simulate._threads_allowed).

Box-counting dimension is used as a numerical proxy for Hausdorff
dimension.  Box >= Hausdorff always, so an estimate clearly BELOW the
analytic floor dim_H - delta is a red flag, while an estimate above it is
merely consistent.  The slope is fitted through the origin (the model is
ln N = d * ln(1/eps), i.e. N = eps^-d): with an intercept the fit would
measure only the increment of ln N across the window, which for a finite
union of tiny pieces saturates and says nothing about the scaling law.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .lengths import LogOverN
from .errors import ConfigError, check_integer, fields_equal
from .simulate import (TrialConfig, _check_memory, _pass_bytes, _tail_union, _usable_cpus,
                       _verdicts, checkpoint_grid)
from .targets import TargetSet, make_circle
from .torus import IntervalUnion, _in_closed, measure

_SNAP = 1e-9  # cell-index snap, in units of one cell
_FINEST = 2.0 ** -62  # the finest countable scale: cell indices of [0, 1] fit int64
_Z = 1.96  # the normal quantile of the 95% Wilson interval


def occupied_cell_count(u: IntervalUnion, eps: float) -> int:
    """Number of grid cells [j*eps, (j+1)*eps) meeting the closed set u.

    Cell indices are snapped by 1e-9 of a cell so that endpoints sitting
    on a cell boundary up to float rounding do not spill into a spurious
    neighbor cell.
    """
    if not (_FINEST <= eps < 1.0):
        raise ValueError(f"scale must be in [2**-62, 1), got {eps}")
    j0 = np.floor(u.los / eps + _SNAP).astype(np.int64)
    j1 = np.floor(u.his / eps - _SNAP).astype(np.int64)
    j1 = np.maximum(j1, j0)  # a piece always occupies at least one cell
    prev = np.concatenate(([-1], j1[:-1]))
    contrib = j1 - np.maximum(j0, prev + 1) + 1
    total = int(np.clip(contrib, 0, None).sum())
    if u.points.size:
        # a point adds its cell unless a piece occupies it
        pc = np.unique(np.floor(u.points / eps + _SNAP).astype(np.int64))
        total += int(np.count_nonzero(~_in_closed(j0, j1, pc)))
    return total


@dataclass(frozen=True)
class DimensionEstimate:
    """Box counts over a decreasing scale ladder and the fitted exponent."""

    scales: np.ndarray
    counts: np.ndarray
    slope: float
    r_squared: float
    degenerate: bool = False

    __eq__ = fields_equal

    def __post_init__(self):
        if np.any(np.diff(self.scales) >= 0):
            raise ValueError("scales must be strictly decreasing")
        if np.any(np.diff(self.counts) < 0):
            raise ValueError("box counts must be non-decreasing as the scale shrinks")


def box_dimension(u: IntervalUnion, scales) -> DimensionEstimate:
    """Grid box-counting estimate of the dimension of u.

    Fits ln N = slope * ln(1/eps) by least squares through the origin;
    r_squared is the uncentered coefficient for that model.  An empty set
    yields slope 0 flagged degenerate rather than an error.  Use nested
    scales (each a multiple of the next) so counts are provably monotone.
    """
    eps = np.asarray(sorted(set(float(s) for s in scales), reverse=True))
    if eps.size < 3:
        raise ValueError(f"need at least 3 distinct scales, got {eps.size}")
    if np.any(eps <= 0.0) or np.any(eps >= 1.0):
        raise ValueError("scales must lie in (0, 1)")
    if u.is_empty():
        return DimensionEstimate(scales=eps, counts=np.zeros(eps.size, dtype=np.int64),
                                 slope=0.0, r_squared=0.0, degenerate=True)
    counts = np.array([occupied_cell_count(u, e) for e in eps], dtype=np.int64)
    x = np.log(1.0 / eps)
    y = np.log(counts.astype(np.float64))
    slope = float(np.dot(x, y) / np.dot(x, x))
    ss_res = float(np.sum((y - slope * x) ** 2))
    ss_tot = float(np.sum(y ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DimensionEstimate(scales=eps, counts=counts, slope=slope, r_squared=r2)


def nested_scales(eps_fine: float, eps_coarse: float) -> np.ndarray:
    """Decreasing ladder eps_fine * 2**k staying <= eps_coarse.

    Anchored at the fine end, which is the informative resolution of the
    window.  Halving keeps the grids nested, so box counts cannot wobble
    downward between consecutive scales.
    """
    if not (0.0 < eps_fine < eps_coarse < 1.0):
        raise ValueError("need 0 < eps_fine < eps_coarse < 1")
    k_max = int(math.floor(math.log(eps_coarse / eps_fine) / math.log(2)))
    if k_max < 2:
        raise ValueError("scale window too narrow for 3 nested scales")
    return eps_fine * np.power(2.0, np.arange(k_max, -1, -1))


def wilson_interval(successes: int, trials: int) -> tuple:
    """95% Wilson score interval for a binomial fraction."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1.0 + _Z * _Z / trials
    center = (p + _Z * _Z / (2 * trials)) / denom
    half = _Z * math.sqrt(p * (1 - p) / trials + _Z * _Z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class ScanRow:
    c: float
    trials: int
    eventually_covered_fraction: float
    wilson_low: float
    wilson_high: float
    mean_last_failure_n: float | None
    mean_tail_uncovered_measure: float
    regime: str


@dataclass(frozen=True)
class ScanResult:
    """Phase-scan output: per-c coverage statistics plus full provenance.

    `failed` maps c-values whose trials could not run (e.g. a scale-guard
    violation at small c) to the error message; `rows` holds the cells
    that completed, so a partially valid scan still yields its results.
    """

    rows: tuple
    failed: dict
    target_description: str
    dim_H: float | None
    dim_B_upper: float
    cover_threshold: float  # dim_B_upper + 1
    n_max: int
    seed0: int
    trials_per_c: int
    checkpoint_ratio: float
    n_first_checkpoint: int
    tail_checkpoints: int
    c_star: float | None
    c_star_uncertainty: float | None
    monotone_fractions: bool

    def to_dict(self) -> dict:
        out = asdict(self)
        out["target"] = out.pop("target_description")
        out["checkpoints"] = checkpoint_grid(self.n_first_checkpoint, self.checkpoint_ratio,
                                             self.n_max).tolist()
        return out


def classify_regime(c: float, target: TargetSet) -> str:
    """Which side of the analytic thresholds a given c falls on."""
    if c > target.dim_B_upper + 1.0:
        return "cover"
    if target.dim_H is not None and c < target.dim_H:
        return "no-cover"
    return "theorem-silent"


# An experiment's shared inputs in a pool worker, set once by _init_worker
# so that each message carries only a seed.
_context = None


def _init_worker(context):
    global _context
    _context = context


def _map_seeds(cell, seeds, base_cfg: TrialConfig, tail, jobs, shared, need) -> list:
    """[cell(seed, (base_cfg, tail, shared)) for seed in seeds], seeds
    ascending, after checking, in this order, the window, the lowest and
    highest seed, `jobs` and the memory, at need() bytes per cell
    (simulate._pass_bytes): inline for one worker, else in a pool of
    min(jobs, len(seeds), usable CPUs) worker processes, which receive the
    context once each."""
    base_cfg.check_window(tail, 1)
    for seed in (seeds[0], seeds[-1]):
        replace(base_cfg, seed=seed)  # refuses a seed outside [0, 2**64)
    check_integer("jobs", jobs)
    if jobs < 1:
        raise ConfigError("jobs", f"must be >= 1, got {jobs}")
    workers = min(jobs, len(seeds), _usable_cpus())
    _check_memory(base_cfg.n_max, need(), workers)
    context = (base_cfg, int(tail), shared)
    if workers <= 1:
        return [cell(seed, context) for seed in seeds]
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(context,)) as pool:
        return list(pool.map(cell, seeds))


def _scan_cell(seed, context=None):
    """One seed's trials for every rule of the scan: per rule, in grid
    order, (covered, last_failure_n, tail measure)."""
    base_cfg, tail, rules = _context if context is None else context
    return [(covered, last_failure, measure(tail_union))
            for covered, last_failure, tail_union
            in _verdicts(replace(base_cfg, seed=seed), rules, tail)]


def phase_scan(c_grid, base_cfg: TrialConfig, trials_per_c: int, *,
               jobs: int = 1, tail_checkpoints: int = 5) -> ScanResult:
    """Coverage-probability curve over c for lengths logn:c.

    Runs trials_per_c trials per c with seeds base_cfg.seed + 0, 1, ...;
    base_cfg supplies the target, horizon and checkpoint grid (its
    `lengths` is not read).  Every c uses the same seeds, so the unit
    of work is one seed, swept over the whole c grid.  The grid, `trials`
    and the scale guard of each c are checked here, in that order: a c the
    guard refuses goes into `failed` and is not swept.  Then _map_seeds
    checks the window, the seed range, `jobs` and the memory, once, before
    any cell runs.  Seeds are independent, so they can run in any number of
    worker processes, which receive the target once each; their results
    come back in seed order, which makes the output independent of `jobs`.
    """
    cs = [float(c) for c in c_grid]
    if (len(cs) == 0 or any(b <= a for a, b in zip(cs, cs[1:]))
            or not all(0 < c < math.inf for c in cs)):
        raise ConfigError("c", f"grid must be finite, positive and strictly increasing, "
                          f"got {cs}")
    check_integer("trials", trials_per_c)
    if trials_per_c < 1:
        raise ConfigError("trials", f"must be >= 1, got {trials_per_c}")
    seed0 = int(base_cfg.seed)
    target = base_cfg.target
    failed = {}
    rules = []
    for c in cs:
        rule = LogOverN(c)
        try:
            # the pre-fractal scale guard, which depends on c through
            # ell(n_max): reported per c so the scan can emit partial results
            target.check_horizon(rule.ell(base_cfg.n_max))
        except ConfigError as exc:
            failed[c] = str(exc)
        else:
            rules.append(rule)
    if not rules:
        raise ConfigError("c", f"every scan cell failed; first error: "
                          f"{next(iter(failed.values()))}")
    ok_cs = [rule.c for rule in rules]

    # every seed's _verdicts reads the target's lookup: built once here,
    # it is inherited by the pool's workers, forked below
    target._lookup
    # _verdicts runs one pass at the shortest lengths, rules[0]'s
    per_seed = _map_seeds(_scan_cell, range(seed0, seed0 + trials_per_c), base_cfg,
                          tail_checkpoints, jobs, rules, lambda: _pass_bytes(base_cfg, rules[0]))
    rows = []
    for i, c in enumerate(ok_cs):
        cov, fails, tails = zip(*(cell[i] for cell in per_seed))
        fails = [n for n in fails if n is not None]
        lo, hi = wilson_interval(sum(cov), trials_per_c)
        rows.append(ScanRow(
            c=c,
            trials=trials_per_c,
            eventually_covered_fraction=sum(cov) / trials_per_c,
            wilson_low=lo,
            wilson_high=hi,
            mean_last_failure_n=float(np.mean(fails)) if fails else None,
            mean_tail_uncovered_measure=float(np.mean(tails)),
            regime=classify_regime(c, target),
        ))

    fracs = np.array([r.eventually_covered_fraction for r in rows])
    c_star = c_star_unc = None
    if len(ok_cs) >= 2:
        jumps = np.diff(fracs)
        if np.any(jumps != 0.0):
            j = int(np.argmax(jumps))
            c_star = 0.5 * (ok_cs[j] + ok_cs[j + 1])
            c_star_unc = ok_cs[j + 1] - ok_cs[j]
    return ScanResult(
        rows=tuple(rows),
        failed=failed,
        target_description=target.description,
        dim_H=target.dim_H,
        dim_B_upper=target.dim_B_upper,
        cover_threshold=target.dim_B_upper + 1.0,
        n_max=base_cfg.n_max,
        seed0=seed0,
        trials_per_c=trials_per_c,
        checkpoint_ratio=base_cfg.checkpoint_ratio,
        n_first_checkpoint=base_cfg.n_first_checkpoint,
        tail_checkpoints=int(tail_checkpoints),
        c_star=c_star,
        c_star_uncertainty=c_star_unc,
        monotone_fractions=bool(np.all(np.diff(fracs) >= 0.0)),
    )


@dataclass(frozen=True)
class DimensionScan:
    """Per-seed dimension estimates of the tail uncovered set."""

    c: float
    n_max: int
    seeds: tuple
    estimates: tuple
    analytic_floor: float | None  # dim_H(target) - c, when dim_H is known
    floor_vacuous: bool
    mean_slope: float
    n_degenerate: int


def _dims_cell(seed, context=None):
    """One seed's box counts of its tail union, whose pass starts at the
    tail window and decides coverage nowhere."""
    base_cfg, tail, scales = _context if context is None else context
    return box_dimension(_tail_union(replace(base_cfg, seed=seed), tail), scales)


def uncovered_dimension_experiment(c: float, n_max: int, seeds, *,
                                   target: TargetSet | None = None,
                                   tail_checkpoints: int = 1,
                                   checkpoint_ratio: float = TrialConfig.checkpoint_ratio,
                                   n_first_checkpoint: int = TrialConfig.n_first_checkpoint,
                                   jobs: int = 1) -> DimensionScan:
    """Box-dimension estimates of what stays uncovered at the horizon.

    Scales span [ell(n_max), sqrt(ell(n_max))]: below ell(n_max) each
    uncovered piece resolves into an interval (slope drifts to 1), above
    the square root the counts saturate.  The analytic floor dim_H - c is
    reported for comparison; when it is <= 0 the bound is vacuous and the
    experiment is exploratory only.  Seeds with nothing uncovered in the
    tail window produce degenerate slope-0 estimates, not errors.  The
    window must hold between 1 and all of the checkpoints.  c, n_max,
    ell(n_max) >= 2**-62, the scale guard, the seeds and the scale ladder
    are checked here, in that order; then _map_seeds checks the window,
    the seed range, `jobs` and the memory, once, before any cell runs.
    The estimates come back in the order of the sorted seeds.
    """
    if not 0.0 < c < math.inf:
        raise ConfigError("c", f"must be finite and > 0, got {c}")
    if target is None:
        target = make_circle()
    rule = LogOverN(c)
    base = TrialConfig(seed=0, lengths=rule, target=target, n_max=n_max,
                       checkpoint_ratio=checkpoint_ratio,
                       n_first_checkpoint=n_first_checkpoint)
    # read past ell's own check, which refuses a length that underflows
    # to 0 as `lengths`: here it is c that is too small
    eps_fine = float(rule._ell(np.array([float(base.n_max)]))[0])
    if not eps_fine >= _FINEST:
        raise ConfigError("c", f"ell(n_max) = {eps_fine:.3g} is below the finest countable "
                          f"scale 2**-62 = {_FINEST:.3g}; raise c or lower n_max")
    target.check_horizon(eps_fine)
    seeds = list(seeds)
    for seed in seeds:
        check_integer("seeds", seed)
    seeds = sorted(int(s) for s in seeds)
    if not seeds:
        raise ConfigError("seeds", "must hold at least one seed, got none")
    try:
        scales = nested_scales(eps_fine, math.sqrt(eps_fine))
    except ValueError as exc:
        raise ConfigError("n_max", f"{exc} between ell(n_max) = {eps_fine:.3g} and "
                          "its square root; increase n_max") from exc
    # _tail_union's pass starts at the tail window
    estimates = tuple(_map_seeds(
        _dims_cell, seeds, base, tail_checkpoints, jobs, scales,
        lambda: _pass_bytes(base, rule, base.checkpoints().size - tail_checkpoints)))
    floor = None if target.dim_H is None else target.dim_H - c
    return DimensionScan(
        c=float(c),
        n_max=base.n_max,
        seeds=tuple(seeds),
        estimates=estimates,
        analytic_floor=floor,
        floor_vacuous=(floor is None or floor <= 0.0),
        mean_slope=float(np.mean([e.slope for e in estimates])),
        n_degenerate=sum(1 for e in estimates if e.degenerate),
    )
