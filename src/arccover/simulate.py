"""Seeded trials of the shrinking-radius random covering process.

One trial drops i.i.d. uniform centers w_1, w_2, ... on the circle and,
at geometrically spaced checkpoints n, asks whether the target is inside
E_n = union of the n arcs of CURRENT half-width ell(n)/2 centered at
w_1..w_n.  Because the radius shrinks with n, E_n is not nested in n: a
point covered at one checkpoint can be exposed later.  "Eventually
covered" therefore means covered at every checkpoint from a tail-start
index (default: the checkpoint nearest sqrt(n_max)) up to the horizon,
and is an irreducible finite-horizon proxy for the almost-sure event,
which quantifies over all n beyond some N.  The checkpoint grid is part
of the trace so results are interpretable on the grid they were checked
on.  Checking every n of the tail window instead is open work: it need
not cost Theta(n_max^2), because every uncovered moment between two
checkpoints shows in a few candidate gaps of the earlier one.

Coverage at a checkpoint is decided exactly through the sorted-gap
characterization: with the n centers sorted, a circular gap g between
consecutive centers leaves the middle piece of length g - ell uncovered
iff g > ell.  This equals complement(arcs_to_union(...)) piece for piece
(same float arithmetic), but costs O(n) per checkpoint.

The kernel keeps the sorted prefix in the centers array itself: at each
checkpoint it sorts the fresh slice centers[prev:n] in place and re-sorts
centers[:n] with numpy's stable sort (timsort), which finds the two sorted
runs and merges them in linear time, so the prefix is the view centers[:n]
and no checkpoint reallocates it.  Gap extraction first picks candidate
gaps with a cheap test on the spacings that is provably a superset of the
exact predicate, then runs the exact predicate on the candidates only (see
uncovered_at).  The cheap test walks the prefix in blocks of _BLOCK gaps
through a spacing buffer and a mask that are allocated once per trial, so
no checkpoint allocates a temporary as long as the prefix.

run_trial is the one entry point for a trial: it returns the
per-checkpoint trace and, on request, the union of the residues over the
last few checkpoints.  Behind it the kernel is a sweep over length rules
that share one seed, target and checkpoint grid, as the rules of a phase
scan do: the prefix is sampled and merged once, and one blocked pass per
checkpoint picks the candidate gaps for the shortest length, so a scan
pays the O(n) work once per seed, not once per (c, seed).  A single trial
is the one-rule sweep.

Each checkpoint then does two separate things.  It decides coverage for
all rules in one batched pass over the shared candidates (_uncovered):
the uncovered pieces of every rule, one row per rule, are tested against
the target by binary search, and no interval union is built.  And it
builds residues, target minus E_n as an IntervalUnion, only where an
output reads them: at every checkpoint for run_trial, whose trace has the
uncovered measure and piece count of each, and in the tail window alone
for the cells of a phase scan or a dimension estimate, which read only the
verdicts or the tail union.  The decision equals the emptiness of the
residue bit for bit.  The target is
intersected with the gaps, not the other way round: intersect
binary-searches each piece of its first operand in the second, and the
gaps are few while a deep pre-fractal has thousands of pieces.  The result
is the same bit for bit.

Randomness comes from numpy's counter-based Philox generator, one stream
per 64-bit seed, so trials are reproducible, prefix-stable (the first m
draws do not depend on how many are requested) and embarrassingly
parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lengths import LengthSequence
from .targets import TargetSet
from .torus import EMPTY, MERGE_EPS, IntervalUnion, intersect, measure, union

PRNG_NAME = "numpy.random.Philox"
PRNG_VERSION = np.__version__


class ConfigError(ValueError):
    """Invalid experiment configuration; `field` names the offender."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name
        self.message = message

    def __reduce__(self):
        # rebuilt from both arguments, so it survives the trip back from a
        # pool worker
        return type(self), (self.field, self.message)


def sample_centers(seed: int, n: int) -> np.ndarray:
    """The first n uniform centers of the stream keyed by `seed`.

    Deterministic, and prefix-stable: sample_centers(seed, m) is a prefix
    of sample_centers(seed, n) for m <= n.
    """
    if not (0 <= int(seed) < 2 ** 64):
        raise ConfigError("seed", f"must be a 64-bit unsigned integer, got {seed}")
    if n < 1:
        raise ConfigError("n", f"must be >= 1, got {n}")
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    return gen.random(int(n))


def checkpoint_grid(n_first: int, ratio: float, n_max: int) -> np.ndarray:
    """Geometric checkpoint grid from n_first to n_max inclusive."""
    grid = [n_first]
    cur = n_first
    while cur < n_max:
        cur = min(max(cur + 1, int(round(cur * ratio))), n_max)
        grid.append(cur)
    return np.asarray(grid, dtype=np.int64)


def max_circular_gap(centers: np.ndarray) -> float:
    """Largest spacing between circularly consecutive centers."""
    cs = np.sort(np.asarray(centers, dtype=np.float64))
    wrap = cs[0] + 1.0 - cs[-1]
    if cs.size == 1:
        return float(wrap)
    return float(max(np.max(np.diff(cs)), wrap))


# Prefilter margin of uncovered_at; see the proof there.
SLACK = 1e-12

# Gaps per block of the prefilter: its spacing buffer and mask stay small
# however long the prefix grows.
_BLOCK = 1 << 16


def _gap_candidates(cs, thr, buf, mask) -> np.ndarray:
    """Indices i with fl(cs[i+1] - cs[i]) > thr, ascending.

    The same indices, from the same float64 subtraction and comparison, as
    a one-shot flatnonzero over all spacings, but found in blocks of
    buf.size gaps through the scratch arrays `buf` (float64) and `mask`
    (bool, at least as long), so no temporary grows with cs.
    """
    n_gaps = cs.size - 1
    step = buf.size
    hits = []
    for s in range(0, n_gaps, step):
        e = min(s + step, n_gaps)
        k = e - s
        np.subtract(cs[s + 1:e + 1], cs[s:e], out=buf[:k])
        np.greater(buf[:k], thr, out=mask[:k])
        idx = np.flatnonzero(mask[:k])
        if idx.size:
            hits.append(idx + s)
    if not hits:
        return np.empty(0, dtype=np.intp)
    return np.concatenate(hits)


def uncovered_at(centers_sorted, ell: float, candidates=None) -> IntervalUnion:
    """Complement of the union of arcs of length `ell` at the given centers.

    Centers must be sorted ascending.  Exactly mirrors the arithmetic of
    complement(arcs_to_union(...)) so the two routes agree bitwise away
    from merge-tolerance ties.

    The inner gap (a, b) = (cs[i], cs[i+1]) is uncovered iff the exact
    predicate fl(b - r) > fl(fl(a + r) + MERGE_EPS) holds.  Few gaps pass
    it, so it runs only on the candidates of the cheap test
    fl(b - a) > fl(ell - SLACK) instead of on all n - 1 gaps.  The cheap
    test runs in blocks of _BLOCK gaps through buffers allocated per call
    here, and once per trial in the kernel.

    `candidates`, if given, replaces the cheap test: the indices i of all
    gaps that pass it for some length up to `ell`.  Rounding is monotone,
    so they include every gap that passes it at `ell`, and the exact
    predicate picks the same gaps from them.
    """
    cs = np.asarray(centers_sorted, dtype=np.float64)
    if cs.size < 1:
        raise ValueError("uncovered_at needs at least one center")
    if not (0.0 < ell < 1.0):
        raise ValueError(f"arc length must be in (0, 1), got {ell}")
    r = 0.5 * ell
    # The candidate test is a superset of the exact predicate.  Every value
    # involved has magnitude at most 1.5, so each float operation is off by
    # at most u = 2.2e-16, and r = ell / 2 is exact.  If the exact predicate
    # holds, then b - r + u > a + r + MERGE_EPS - 2u, so b - a > ell +
    # MERGE_EPS - 3u and fl(b - a) > ell + MERGE_EPS - 4u > ell - SLACK + u
    # >= fl(ell - SLACK), because SLACK + MERGE_EPS far exceeds 5u.  So a
    # skipped gap fails the exact predicate, and a kept one gets the same
    # arithmetic as when the predicate ran on every gap.
    if candidates is None:
        k = min(_BLOCK, cs.size)
        candidates = _gap_candidates(cs, ell - SLACK, np.empty(k),
                                     np.empty(k, dtype=bool))
    ends = cs[candidates] + r
    starts = cs[candidates + 1] - r
    keep = starts > ends + MERGE_EPS
    pre = post = ()
    if (cs[0] + 1.0 - cs[-1]) - ell > MERGE_EPS:
        pre, post = _seam_pieces(cs[0], cs[-1], r)
    return IntervalUnion._from_sorted(np.concatenate([pre[:1], ends[keep], post[:1]]),
                                      np.concatenate([pre[1:], starts[keep], post[1:]]))


def _seam_pieces(first, last, r) -> tuple:
    """The uncovered pieces (lo, hi) of an open wrap gap from center `last`
    to center `first` under arcs of half-length r, split at the seam: the
    piece at 0 and the piece at 1 of [0, 1], each () when there is none.
    """
    l = first - r
    h = last + r
    if l < 0.0:
        return (), (h, l + 1.0)
    if h > 1.0:
        return (h - 1.0, l), ()
    return (0.0, l) if l > 0.0 else (), (h, 1.0) if h < 1.0 else ()


def _meets(target, lo, hi) -> np.ndarray:
    """Which pieces (lo, hi) meet the canonical target, as intersect sees
    it: some target interval ends after the piece starts and starts
    before it ends, or a target point lies strictly inside the piece.
    Every piece meets the whole circle (`target` None)."""
    if target is None:
        return np.ones(lo.size, dtype=bool)
    hit = (np.searchsorted(target.his, lo, side="right")
           < np.searchsorted(target.los, hi, side="left"))
    if target.points.size:
        hit |= (np.searchsorted(target.points, lo, side="right")
                < np.searchsorted(target.points, hi, side="left"))
    return hit


def _uncovered(cs, ells, cand, target) -> np.ndarray:
    """Per length in `ells`: do the arcs of that length at the sorted
    centers `cs` leave part of `target` uncovered?

    Entry j is `not intersect(uncovered_at(cs, ells[j], cand), target)
    .is_empty()` bit for bit, and `not uncovered_at(...).is_empty()` when
    `target` is None (the whole circle), but neither union is built: the
    pieces come from the float64 operations of uncovered_at and go
    straight to _meets.  The inner pieces go a row per length, in chunks
    of about _BLOCK, so memory stays flat however many lengths there are.
    """
    out = np.zeros(ells.size, dtype=bool)
    first, last = float(cs[0]), float(cs[-1])
    seam = [(j, piece) for j, ell in enumerate(ells.tolist())
            if (first + 1.0 - last) - ell > MERGE_EPS
            for piece in _seam_pieces(first, last, 0.5 * ell) if piece]
    if seam:
        rule, pieces = zip(*seam)
        out[np.array(rule)[_meets(target, *np.array(pieces).T)]] = True
    if cand.size:
        a, b = cs[cand], cs[cand + 1]
        rows = max(1, _BLOCK // cand.size)
        for s in range(0, ells.size, rows):
            r = 0.5 * ells[s:s + rows, None]
            lo, hi = a + r, b - r
            keep = hi > lo + MERGE_EPS
            if target is None:
                out[s:s + rows] |= keep.any(axis=1)
                continue
            flat = np.flatnonzero(keep)
            rule = s + flat // cand.size
            out[rule[_meets(target, lo.ravel()[flat], hi.ravel()[flat])]] = True
    return out


@dataclass(frozen=True)
class TrialConfig:
    """Everything one trial needs; identical configs give identical traces."""

    seed: int
    lengths: LengthSequence | None
    target: TargetSet
    n_max: int
    checkpoint_ratio: float = 1.1
    n_first_checkpoint: int = 64
    n_tail_start: int | None = None  # default: nearest checkpoint to sqrt(n_max)

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ConfigError("seed", f"must be a 64-bit unsigned integer, got {self.seed}")
        if self.n_first_checkpoint < 1:
            raise ConfigError("n_first_checkpoint", f"must be >= 1, got {self.n_first_checkpoint}")
        if self.n_max < self.n_first_checkpoint:
            raise ConfigError("n_max", f"must be >= n_first_checkpoint, got "
                              f"{self.n_max} < {self.n_first_checkpoint}")
        if not self.checkpoint_ratio > 1.0:
            raise ConfigError("checkpoint_ratio", f"must be > 1, got {self.checkpoint_ratio}")
        if self.n_tail_start is not None and not (
                self.n_first_checkpoint <= self.n_tail_start <= self.n_max):
            raise ConfigError("n_tail_start", "must lie between n_first_checkpoint and n_max")

    def checkpoints(self) -> np.ndarray:
        return checkpoint_grid(self.n_first_checkpoint, self.checkpoint_ratio, self.n_max)

    def validate_scales(self) -> None:
        """Pre-fractal guard: the horizon arc length must stay well above
        the target's finest constructed scale."""
        if self.lengths is None:
            raise ConfigError("lengths", "no length sequence configured")
        if self.target.finest_scale > 0.0:
            ell_end = float(self.lengths.ell(self.n_max))
            bound = 10.0 * self.target.finest_scale
            if ell_end <= bound:
                raise ConfigError(
                    "target",
                    f"pre-fractal too coarse for this horizon: ell(n_max)="
                    f"{ell_end:.3g} <= 10 * finest_scale = {bound:.3g}; "
                    "reduce n_max or increase depth")


@dataclass(frozen=True)
class CoverageTrace:
    """Per-checkpoint record of one trial plus tail summary.

    `tail_uncovered` unites the target's uncovered residues over the last
    checkpoints of the window run_trial was asked for, EMPTY for none.
    With a window of 1 it is exactly (target minus E_{n_max}).  The union
    grows with the window, and is a one-sided finite-horizon approximation
    (from below) of the never-eventually-covered set, which the process
    only defines through all n at once.
    """

    seed: int
    n_max: int
    checkpoints: np.ndarray
    ells: np.ndarray
    covered: np.ndarray
    uncovered_measure: np.ndarray
    piece_count: np.ndarray
    n_tail_start: int
    last_failure_n: int | None
    eventually_covered: bool
    tail_uncovered: IntervalUnion

    def __eq__(self, other):
        if not isinstance(other, CoverageTrace):
            return NotImplemented
        return (self.seed == other.seed and self.n_max == other.n_max
                and np.array_equal(self.checkpoints, other.checkpoints)
                and np.array_equal(self.ells, other.ells)
                and np.array_equal(self.covered, other.covered)
                and np.array_equal(self.uncovered_measure, other.uncovered_measure)
                and np.array_equal(self.piece_count, other.piece_count)
                and self.n_tail_start == other.n_tail_start
                and self.last_failure_n == other.last_failure_n
                and self.eventually_covered == other.eventually_covered
                and self.tail_uncovered == other.tail_uncovered)


@dataclass(frozen=True)
class TailOutcome:
    """The verdicts of a trial without its per-checkpoint columns: what a
    phase scan or a dimension estimate reads, so the sweep builds residues
    for the tail window only.  The fields mean what they mean in
    CoverageTrace."""

    last_failure_n: int | None
    eventually_covered: bool
    tail_uncovered: IntervalUnion


def run_trial(cfg: TrialConfig, tail_checkpoints: int = 0) -> CoverageTrace:
    """Run one trial; the trace's tail_uncovered unites the residues of the
    last `tail_checkpoints` checkpoints (0 for none)."""
    n_checkpoints = cfg.checkpoints().size
    if not (0 <= tail_checkpoints <= n_checkpoints):
        raise ConfigError("tail_checkpoints",
                          f"must be in [0, {n_checkpoints}], got {tail_checkpoints}")
    (result,) = _sweep([cfg], tail_checkpoints)
    if isinstance(result, ConfigError):
        raise result
    return result


def _sweep(cfgs, tail_checkpoints: int, trace: bool = True) -> list:
    """The trials of one seed under several length rules, in one pass.

    The configs differ only in `lengths`: they share the seed, the target
    and the checkpoint grid, so the centers are sampled and the sorted
    prefix is merged once, and every checkpoint decides coverage for all
    rules at once.  Returns, per config, the ConfigError its scale guard
    raised or, if it ran, its trace; with `trace` false, a TailOutcome
    instead, which needs the residues of the last `tail_checkpoints`
    checkpoints only.  Either way tail_uncovered unites those residues.
    """
    cfg0 = cfgs[0]
    shared = replace(cfg0, lengths=None)
    if any(replace(cfg, lengths=None) != shared for cfg in cfgs):
        raise ValueError("swept configs may differ only in lengths")
    results = [None] * len(cfgs)
    live = []
    for k, cfg in enumerate(cfgs):
        try:
            cfg.validate_scales()
        except ConfigError as exc:
            results[k] = exc
        else:
            live.append(k)
    if not live:
        return results

    grid = cfg0.checkpoints()
    ells = np.array([np.atleast_1d(cfgs[k].lengths.ell(grid.astype(np.float64)))
                     for k in live])
    shortest = ells.min(axis=0)
    centers = sample_centers(cfg0.seed, cfg0.n_max)

    t_approx = None if cfg0.target.kind == "circle" else cfg0.target.approx
    covered = np.empty(ells.shape, dtype=bool)
    unc_measure = np.zeros(ells.shape, dtype=np.float64)
    pieces = np.zeros(ells.shape, dtype=np.int64)
    tail_residues = [[] for _ in live]
    # residues only where an output reads them: the trace's per-checkpoint
    # columns, or else the tail window alone
    tail_start = grid.size - tail_checkpoints
    first_residue = 0 if trace else tail_start

    # scratch of the blocked prefilter, shared by every checkpoint
    buf = np.empty(min(_BLOCK, cfg0.n_max))
    mask = np.empty(buf.size, dtype=bool)
    # sample_centers returns a fresh array, so it becomes the sorted prefix
    prev = int(grid[0])
    centers[:prev].sort()
    for i, n in enumerate(grid):
        n = int(n)
        if n > prev:
            centers[prev:n].sort()
            # timsort merges the two sorted runs in linear time
            centers[:n].sort(kind="stable")
            prev = n
        # one pass over the prefix finds the gap candidates of every rule
        cs = centers[:n]
        cand = _gap_candidates(cs, shortest[i] - SLACK, buf, mask)
        covered[:, i] = ~_uncovered(cs, ells[:, i], cand, t_approx)
        if i >= first_residue:
            for j in range(len(live)):
                gaps = uncovered_at(cs, float(ells[j, i]), cand)
                # the gaps go first: intersect costs O(|gaps| log |target|)
                resid = gaps if t_approx is None else intersect(gaps, t_approx)
                if trace:
                    unc_measure[j, i] = measure(resid)
                    pieces[j, i] = resid.component_count()
                if i >= tail_start:
                    tail_residues[j].append(resid)

    if cfg0.n_tail_start is None:
        tail_target = math.sqrt(cfg0.n_max)
    else:
        tail_target = float(cfg0.n_tail_start)
    tail_idx = int(np.argmin(np.abs(grid.astype(np.float64) - tail_target)))
    for j, k in enumerate(live):
        failures = grid[~covered[j]]
        tail_union = EMPTY
        for resid in tail_residues[j]:
            tail_union = union(tail_union, resid)
        outcome = dict(
            last_failure_n=int(failures[-1]) if failures.size else None,
            eventually_covered=bool(np.all(covered[j, tail_idx:])),
            tail_uncovered=tail_union,
        )
        if not trace:
            results[k] = TailOutcome(**outcome)
            continue
        results[k] = CoverageTrace(
            seed=int(cfg0.seed),
            n_max=int(cfg0.n_max),
            checkpoints=grid,
            ells=ells[j],
            covered=covered[j],
            uncovered_measure=unc_measure[j],
            piece_count=pieces[j],
            n_tail_start=int(grid[tail_idx]),
            **outcome,
        )
    return results
