"""Seeded trials of the shrinking-radius random covering process.

One trial drops i.i.d. uniform centers w_1, w_2, ... on the circle and,
at geometrically spaced checkpoints n, asks whether the target is inside
E_n = union of the n arcs of CURRENT half-width ell(n)/2 centered at
w_1..w_n.  Because the radius shrinks with n, E_n is not nested in n: a
point covered at one checkpoint can be exposed later.  "Eventually
covered" therefore means covered at every checkpoint from the one nearest
sqrt(n_max) up to the horizon, a finite-horizon proxy for the almost-sure
event, which quantifies over all n beyond some N.  The checkpoint grid is
part of the trace, so results are read on the grid they were checked on.

Coverage at a checkpoint is decided exactly: with the n centers sorted, a
circular gap g between consecutive centers leaves the middle piece of
length g - ell uncovered iff g > ell.  This equals
complement(arcs_to_union(...)) piece for piece, in the same float
arithmetic, at O(n) per checkpoint (uncovered_at).

The kernel:
- _prefixes keeps the sorted prefix of centers over one pass of the grid
  and yields, per checkpoint, the candidate gaps of its shortest length
  and the first and last center.  sample_centers reads the seed's Philox
  stream: counter-based, so trials are reproducible, prefix-stable and
  embarrassingly parallel.  _draw, _split and _prefix_gaps keep the prefix
  in one array and merge it once per checkpoint.  A pass whose horizon
  reaches _THREAD_MIN, where _threads_allowed says so, keeps two halves
  split at _SPLIT, one growing from each end of the array; from
  _THREAD_MIN centers on, the low half merges on a second thread while the
  calling thread merges the high one and draws the next checkpoint's
  centers into the free middle.  Any other pass samples once and keeps one
  run.  _gap_candidates picks the gaps the exact predicate runs on.
- Three passes read it.  run_trial, the one entry point for a trial,
  decides every checkpoint and builds a residue where one is uncovered.
  _verdicts gives a phase scan's verdicts under a list of length rules,
  which share the seed, target and grid.  _tail_union gives the tail
  union alone and starts at the tail window.  Both trust their caller to
  have run each rule's scale guard (TargetSet.check_horizon).
- _uncovered counts, by one threshold search, the rules that leave the
  target uncovered at a checkpoint: coverage is monotone in the length
  and _verdicts takes its rules in order of length, so they are the first
  few, and a scan's fractions never decrease in c.  A verdict reads only
  each rule's last uncovered checkpoint, so _verdicts decides the
  checkpoints before the tail window last, from the newest back
  (_last_failures), keeping the rules without a later failure as one
  index: a single evaluation of the first of them settles them all unless
  it is uncovered.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_integer, fields_equal
from .lengths import MAX_EXACT_N, LengthSequence
from .targets import TargetSet
from .torus import (EMPTY, MERGE_EPS, IntervalUnion, _strictly_inside, intersect, measure,
                    union)

PRNG_NAME = "numpy.random.Philox"
PRNG_VERSION = np.__version__


def sample_centers(seed: int, n: int, start: int = 0, out=None) -> np.ndarray:
    """n uniform centers of the stream keyed by `seed`, from its center
    number `start` on (by default its first n).

    Deterministic, and prefix-stable: sample_centers(seed, m) is a prefix
    of sample_centers(seed, n) for m <= n, and sample_centers(seed, n,
    start=s) is sample_centers(seed, s + n)[s:].  With `out`, a float64
    array of n, the centers are written there and it is returned.
    """
    for name, value in (("seed", seed), ("n", n), ("start", start)):
        check_integer(name, value)
    if not (0 <= int(seed) < 2 ** 64):
        raise ConfigError("seed", f"must be a 64-bit unsigned integer, got {seed}")
    if n < 1:
        raise ConfigError("n", f"must be >= 1, got {n}")
    if start < 0:
        raise ConfigError("start", f"must be >= 0, got {start}")
    seed, n, start = int(seed), int(n), int(start)
    gen = np.random.Generator(np.random.Philox(key=seed))
    # each center takes one 64-bit word of the stream, and a Philox counter
    # step makes four words
    gen.bit_generator.advance(start // 4)
    gen.random(start % 4)
    return gen.random(n, out=out)


def _grid(n_first: int, ratio: float, n_max: int):
    """The geometric checkpoint grid from n_first to n_max inclusive, one
    checkpoint at a time."""
    cur = n_first
    yield cur
    while cur < n_max:
        # compared before rounding, so a huge ratio gives n_max, not inf
        nxt = cur * ratio
        cur = n_max if nxt >= n_max else max(cur + 1, int(round(nxt)))
        yield cur


def checkpoint_grid(n_first: int, ratio: float, n_max: int) -> np.ndarray:
    """Geometric checkpoint grid from n_first to n_max inclusive."""
    return np.fromiter(_grid(n_first, ratio, n_max), dtype=np.int64)


# Most checkpoints a trial may have.  Every checkpoint costs O(n) work, so a
# ratio near 1, which makes the grid about n_max long, makes the run
# quadratic.  The default ratio 1.1 gives at most a few hundred.
MAX_CHECKPOINTS = 10_000


def _grid_size(n_first: int, ratio: float, n_max: int) -> int:
    """len(checkpoint_grid(n_first, ratio, n_max)), counted no further than
    MAX_CHECKPOINTS + 1."""
    return sum(1 for _ in itertools.islice(_grid(n_first, ratio, n_max), MAX_CHECKPOINTS + 1))


# Prefilter margin of uncovered_at; see the proof there.
SLACK = 1e-12

# Gaps per block of the prefilter: its spacing buffer and mask stay small
# however long the prefix grows.
_BLOCK = 1 << 16

# Smallest prefix whose halves go to two threads, and smallest horizon of a
# pass that takes the two-ended layout.  Timed per checkpoint on a 2-core VM
# with its second core free, at a split of 1/2 and before the draws
# overlapped the merge, the threaded halves took 2-3x the time of the serial
# ones at 2^12-2^14 centers, broke even between 2^16 and 2^17, and saved
# 8-17% at 2^17 and 36-43% at 2^20.  Re-timed at _SPLIT with the draws
# overlapped, every value from 2^11 to 2^17 gave a trial to n_max 2^20 the
# same time within its run-to-run spread (105-115 ms).
_THREAD_MIN = 1 << 17

# Where a threaded pass splits its prefix: the low half, below it, merges
# on the second thread, while the calling thread merges the high half and
# then draws the next checkpoint.  The draw costs about a third of a full
# merge at 1e7, so the halves balance near 0.65; on a 2-core VM, splits
# from 0.55 to 0.7 all beat 1/2 and 0.65-0.7 did best.
_SPLIT = 0.65

# Candidate gaps _verdicts holds for its backward walk, per center
# of the horizon: 2 floats each, so at most 4 B per center beside the 8 B
# of the prefix.  A batch that reaches it is decided on the spot.
_HOLD = 0.25

# Most bytes a trial holds per center of its horizon: 8 for the prefix, up
# to 4 for timsort's merge buffer and up to 4 for the gaps _verdicts holds
# (_HOLD).  A trial to n_max 1e7 peaked at 124 MB of RSS on a 2-core VM,
# under the 160 MB this gives.
_BYTES_PER_CENTER = 16


def _physical_memory() -> int | None:
    """Bytes of physical memory of this machine, None where the system
    does not say."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError):
        return None
    return pages * size if pages > 0 and size > 0 else None


def _check_memory(n_max: int, trials: int) -> None:
    """Refuse an n_max whose `trials` trials, run at once, would need more
    than the machine's physical memory, before anything is allocated."""
    need = _BYTES_PER_CENTER * int(n_max) * trials
    have = _physical_memory()
    if have is not None and need > have:
        raise ConfigError("n_max", f"{n_max} centers need about {need / 2 ** 30:.3g} GiB "
                          f"for {trials} trial(s) at once, more than the "
                          f"{have / 2 ** 30:.3g} GiB of physical memory")


def _gap_candidates(cs, thr, buf, mask) -> np.ndarray:
    """Indices i with fl(cs[i+1] - cs[i]) > thr, ascending.

    The same indices, from the same float64 subtraction and comparison, as
    a one-shot flatnonzero over all spacings, but found in blocks of
    buf.size gaps through the scratch arrays `buf` (float64) and `mask`
    (bool, at least as long), so no temporary grows with cs.
    """
    n_gaps = cs.size - 1
    step = buf.size
    hits = [np.empty(0, dtype=np.intp)]
    for s in range(0, n_gaps, step):
        e = min(s + step, n_gaps)
        k = e - s
        np.subtract(cs[s + 1:e + 1], cs[s:e], out=buf[:k])
        np.greater(buf[:k], thr, out=mask[:k])
        idx = mask[:k].nonzero()[0]
        idx += s
        hits.append(idx)
    # past the empty start, one block (the common case) needs no copy
    return hits[1] if len(hits) == 2 else np.concatenate(hits)


def _draw(fresh, seed: int, start: int, sample: bool) -> None:
    """Put the next fresh centers in `fresh`, sorted: the centers start,
    start+1, ... of the seed's stream, sampled into it when `sample` (else
    they are there already), then sorted in place.  Between the two steps
    they are in stream order."""
    if sample:
        sample_centers(seed, fresh.size, start=start, out=fresh)
    fresh.sort()


def _split(c, n0: int, n1: int, k: int, at: float) -> tuple:
    """Split the k fresh centers c[n0:n0+k], sorted by _draw, at `at`.

    `c` holds the low run c[:n0] (centers below `at`) and the high run
    c[c.size-n1:] (centers at or above it), the fresh centers right after
    the low run.  The fresh ones below `at` stay where they are, after the
    low run, and the others move to just before the high run.  Returns the
    new (n0, n1); each half is then two sorted runs.
    """
    fresh = c[n0:n0 + k]
    m = int(fresh.searchsorted(at))
    if m < k:
        end = c.size - n1
        # a 1-D copy to the right, which numpy does in place even where the
        # two ranges overlap
        c[end - (k - m):end] = fresh[m:]
    return n0 + m, n1 + k - m


def _half_gaps(half, thr, buf, mask) -> tuple:
    """Merge the two sorted runs of one half in place, then gather the ends
    (a, b) of its candidate gaps: those with fl(b - a) > thr, ascending."""
    # timsort merges the two sorted runs in linear time
    half.sort(kind="stable")
    idx = _gap_candidates(half, thr, buf, mask)
    return half[idx], half[idx + 1]


def _prefix_gaps(c, n0: int, n1: int, thr, scratch, pool, meanwhile=None) -> tuple:
    """The candidate gaps of the sorted prefix that `c` holds as a low run
    c[:n0] and a high run c[c.size-n1:], each of two sorted runs.

    Merges each half and returns (a, b, first, last): the ends of the gaps
    with fl(b - a) > thr, in ascending order (the low half's, the gap
    between the halves, the high half's), and the first and last center.
    These are the gaps and values of the whole sorted prefix.  `scratch`
    holds a (buf, mask) pair per half; with a `pool`, the low half runs on
    its thread while the calling thread does the high half.  `meanwhile`,
    if given, runs on the calling thread once its own merging is done and
    before it waits for the pool's: it may write the free middle
    c[n0:c.size-n1], which no merge and no returned value reads.
    """
    low, high = c[:n0], c[c.size - n1:]
    job = None
    if pool is not None and n0 and n1:
        job = pool.submit(_half_gaps, low, thr, *scratch[0])
    elif n0:
        a0, b0 = _half_gaps(low, thr, *scratch[0])
    if n1:
        a1, b1 = _half_gaps(high, thr, *scratch[1])
    if meanwhile is not None:
        meanwhile()
    if job is not None:
        a0, b0 = job.result()
    # with one half empty, the other is the whole prefix
    if not n1:
        return a0, b0, float(low[0]), float(low[-1])
    if not n0:
        return a1, b1, float(high[0]), float(high[-1])
    a, b = [a0], [b0]
    if high[0] - low[-1] > thr:
        a.append(low[-1:])
        b.append(high[:1])
    return (np.concatenate(a + [a1]), np.concatenate(b + [b1]),
            float(low[0]), float(high[-1]))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threads_allowed() -> bool:
    """Whether a pass may run the low half on a second thread: the process
    may use two CPUs and is not a worker of a process pool.  The pool is
    taken to fill the cores: with 2 workers on 2 cores, threads in them
    made a 20-cell dimension estimate at n_max 1e6 3% slower.  A pool of
    fewer workers than cores was not measured."""
    return _usable_cpus() >= 2 and multiprocessing.parent_process() is None


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
    predicate picks the same gaps from them.  With `candidates`, the array
    need only hold, in order, the first and the last center and both ends
    of every candidate gap (see _skeleton): no other gap is read.
    """
    cs = np.asarray(centers_sorted, dtype=np.float64)
    if cs.size < 1:
        raise ValueError("uncovered_at needs at least one center")
    if not (0.0 < ell < 1.0):
        raise ValueError(f"arc length must be in (0, 1), got {ell}")
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
    lo, hi = _pieces(cs[candidates], cs[candidates + 1], cs[0], cs[-1], ell)
    return IntervalUnion._from_sorted(lo, hi)


def _skeleton(a, b, first, last) -> tuple:
    """The centers uncovered_at needs, given the ends (a, b) of the
    candidate gaps, ascending, and the first and last center: the sorted
    array [first, a[0], b[0], a[1], ..., last] and the indices of the a's
    in it, to pass as its candidates."""
    ends = np.empty(2 * a.size + 2)
    ends[0], ends[-1] = first, last
    ends[1:-1:2] = a
    ends[2:-1:2] = b
    return ends, np.arange(1, 2 * a.size, 2)


def _pieces(a, b, first, last, ell) -> tuple:
    """The pieces (lo, hi), ascending, that arcs of length `ell` leave
    uncovered: the middle (a + r, b - r) of each candidate gap (a, b) that
    passes the exact predicate of uncovered_at, r = ell / 2, and the piece
    or two of the wrap gap from the last center `last` to the first center
    `first`."""
    r = 0.5 * ell
    lo, hi = a + r, b - r
    keep = hi > lo + MERGE_EPS
    pre, post = _seam_pieces(first, last, ell)
    return (np.concatenate([pre[:1], lo[keep], post[:1]]),
            np.concatenate([pre[1:], hi[keep], post[1:]]))


def _seam_pieces(first, last, ell) -> tuple:
    """The uncovered pieces (lo, hi) of the wrap gap from center `last` to
    center `first` under arcs of length `ell`, split at the seam: the
    piece at 0 and the piece at 1 of [0, 1], each () when there is none.
    The wrap gap is open iff it exceeds ell by more than MERGE_EPS."""
    if not (first + 1.0 - last) - ell > MERGE_EPS:
        return (), ()
    r = 0.5 * ell
    l = first - r
    h = last + r
    if l < 0.0:
        return (), (h, l + 1.0)
    if h > 1.0:
        return (h - 1.0, l), ()
    return (0.0, l) if l > 0.0 else (), (h, 1.0) if h < 1.0 else ()


def _meets(target, lo, hi) -> np.ndarray:
    """Which pieces (lo, hi) meet an interval of the canonical target, as
    intersect sees it: one ends after the piece starts and starts before
    it ends."""
    return (np.searchsorted(target.his, lo, side="right")
            < np.searchsorted(target.los, hi, side="left"))


def _leaves_uncovered(a, b, first, last, ell, target) -> bool:
    """Whether the residue of arcs of length `ell` is not empty, bit for
    bit, given the candidate gaps (a, b), the first and last center and
    the target (None for the circle): a piece of _pieces meets a target
    interval, or a target point lies inside a piece as intersect has it
    (_strictly_inside, 0 included where the pieces start at 0 and end at
    1, the halves of one arc across the seam)."""
    lo, hi = _pieces(a, b, first, last, ell)
    if target is None or not lo.size:
        return bool(lo.size)
    # a target without points, as every Cantor one, skips their test
    return bool(_meets(target, lo, hi).any() or target.points.size
                and _strictly_inside(lo, hi, target.points).any())


def _uncovered(a, b, first, last, ells, target) -> int:
    """How many of the non-decreasing lengths `ells` leave part of `target`
    uncovered (_leaves_uncovered), the leading ones, given the candidate
    gaps (a, b) of a length up to ells[0] and the first and last center.

    That predicate is non-increasing in ell, rounding included, so the
    lengths that leave the target uncovered are the shortest few, and a
    binary search over the lengths counts them exactly in ceil(log2(J + 1))
    evaluations for J lengths.  Take half-lengths r' < r (r = ell / 2 is
    exact); if r leaves part of the target uncovered, so does r':
    - Inner gaps.  fl(a + r) and fl(b - r) are monotone in r, so the middle
      (lo', hi') of a gap at r' contains its middle (lo, hi) at r, and the
      keep test fl(b - r) > fl(fl(a + r) + MERGE_EPS) holds at r' where it
      holds at r.
    - The target.  _meets compares two searchsorted counts, the first
      non-decreasing in lo and the second in hi, so a piece that contains
      one meeting a target interval meets it too, and a point strictly
      inside a piece is strictly inside any piece that contains it.
    - The seam.  The wrap gap is open at r' where it is at r, and then
      exceeds ell, so l = fl(first - r) < 0 and h = fl(last + r) > 1
      exclude each other.  As r shrinks, l grows and h shrinks: a piece
      (h, fl(l + 1)) stays one or turns into (h, 1) and maybe (0, l), a
      piece (fl(h - 1), l) into (0, l) and maybe (h, 1), and (0, l) and
      (h, 1) stay.  Each piece at r lies in a piece at r'.
    - The point at 0.  It needs both (0, l) and (h, 1), which stay.
    The width filter fl(b - a) > fl(ell - SLACK) drops only gaps that fail
    the keep test (see uncovered_at), so it changes no evaluation; nor do
    candidates of a shorter length, which are a superset (rounding is
    monotone) whose extra gaps fail the keep test too.
    """
    # the lengths before `lo` leave the target uncovered, those from `hi` cover it
    lo, hi = 0, len(ells)
    while lo < hi:
        mid = (lo + hi) // 2
        ell = float(ells[mid])
        wide = b - a > ell - SLACK
        if _leaves_uncovered(a[wide], b[wide], first, last, ell, target):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _last_failures(held, ells, target, last_fail) -> None:
    """Record in `last_fail` each rule's last uncovered checkpoint among the
    `held` ones, for the rules with no failure after them.

    `held` lists (i, a, b, first, last) of consecutive checkpoints, oldest
    first: the index i into the columns of `ells` (rules by checkpoints, in
    order of length) and the candidate gaps and end centers of its prefix
    for ells[0, i].  `last_fail` holds per rule the index of its last
    failure found so far, -1 for none.  Those past the held checkpoints
    belong to the first k rules, which are done; the rest are open.

    The walk goes from the newest held checkpoint back.  At each one it
    evaluates the shortest open rule, k, alone; covered there, every open
    rule is (see _uncovered).  Otherwise _uncovered counts the open rules
    that fail here, and k moves past them.  A (rule, checkpoint) pair it
    never decides lies before the rule's last failure.
    """
    k = int(np.count_nonzero(last_fail >= held[0][0]))
    for i, a, b, first, last in reversed(held):
        if k == len(last_fail):
            return
        ell = float(ells[k, i])
        # the candidates of a shorter length; see _uncovered
        wide = b - a > ell - SLACK
        a, b = a[wide], b[wide]
        if not _leaves_uncovered(a, b, first, last, ell, target):
            continue
        failed = _uncovered(a, b, first, last, ells[k:, i], target)
        last_fail[k:k + failed] = i
        k += failed


@dataclass(frozen=True)
class TrialConfig:
    """Everything one trial needs; identical configs give identical traces.

    A checkpoint grid of more than MAX_CHECKPOINTS (10 000) checkpoints
    is refused as a bad `checkpoint_ratio` before the grid or any array
    is built.
    """

    seed: int
    lengths: LengthSequence | None
    target: TargetSet
    n_max: int
    checkpoint_ratio: float = 1.1
    n_first_checkpoint: int = 64

    def __post_init__(self):
        for name in ("seed", "n_max", "n_first_checkpoint"):
            check_integer(name, getattr(self, name))
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ConfigError("seed", f"must be a 64-bit unsigned integer, got {self.seed}")
        if self.n_first_checkpoint < 1:
            raise ConfigError("n_first_checkpoint", f"must be >= 1, got {self.n_first_checkpoint}")
        if self.n_max < self.n_first_checkpoint:
            raise ConfigError("n_max", f"must be >= n_first_checkpoint, got "
                              f"{self.n_max} < {self.n_first_checkpoint}")
        if self.n_max > MAX_EXACT_N:
            raise ConfigError("n_max", f"must be at most 2**53, got {self.n_max}")
        if not 1.0 < self.checkpoint_ratio < math.inf:
            raise ConfigError("checkpoint_ratio",
                              f"must be finite and > 1, got {self.checkpoint_ratio}")
        if _grid_size(self.n_first_checkpoint, self.checkpoint_ratio,
                      self.n_max) > MAX_CHECKPOINTS:
            raise ConfigError("checkpoint_ratio", f"{self.checkpoint_ratio} gives more than "
                              f"{MAX_CHECKPOINTS} checkpoints up to n_max {self.n_max}; raise it")

    def checkpoints(self) -> np.ndarray:
        return checkpoint_grid(self.n_first_checkpoint, self.checkpoint_ratio, self.n_max)

    def check_window(self, tail_checkpoints: int, least: int) -> None:
        """Refuse a tail window outside [least, number of checkpoints]."""
        check_integer("tail_checkpoints", tail_checkpoints)
        n_checkpoints = self.checkpoints().size
        if not (least <= tail_checkpoints <= n_checkpoints):
            raise ConfigError("tail_checkpoints", f"must be in [{least}, {n_checkpoints}], "
                              f"got {tail_checkpoints}")


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

    __eq__ = fields_equal


def _prefixes(cfg: TrialConfig, shortest, start: int = 0):
    """Per checkpoint of cfg's grid from index `start` on, (i, a, b, first,
    last): its index, the ends (a, b) of the gaps of its sorted prefix with
    fl(b - a) > fl(shortest[i] - SLACK), ascending, and the first and last
    center, all copies.  The first checkpoint samples and sorts its whole
    prefix in one step; no earlier one is sampled or merged.  Only a pass
    whose horizon reaches _THREAD_MIN, where _threads_allowed() holds, is
    two-ended and threaded; any other samples once and keeps one run."""
    grid = cfg.checkpoints()
    threaded = cfg.n_max >= _THREAD_MIN and _threads_allowed()
    # a one-run pass splits at 1, above every center: the high run stays
    # empty and the free middle takes the centers in stream order
    at = _SPLIT if threaded else 1.0
    # the two-ended prefix, and a prefilter scratch per half that can fill,
    # shared by every checkpoint
    c = np.empty(cfg.n_max)
    block = min(_BLOCK, cfg.n_max)
    scratch = [(np.empty(block), np.empty(block, dtype=bool))
               for _ in range(2 if threaded else 1)]
    if not threaded:
        sample_centers(cfg.seed, cfg.n_max, out=c)
    n0 = n1 = prev = 0
    # the centers of the first checkpoint; each later checkpoint's are drawn
    # into the free middle while the one before it merges
    if start < grid.size:
        _draw(c[:int(grid[start])], cfg.seed, 0, threaded)
    # an executor per pass, whose thread (started by the first submit) ends
    # with it, also where the consumer stops early: a process pool forked
    # later gets no thread, and no dead copy of an executor
    with ThreadPoolExecutor(1) if threaded else contextlib.nullcontext() as pool:
        for i in range(start, grid.size):
            n = int(grid[i])
            # centers prev..n-1 of the stream, drawn and sorted in the free
            # middle, join the halves; the grid is strictly increasing
            n0, n1 = _split(c, n0, n1, n - prev, at)
            prev = n
            # the next checkpoint's centers, drawn while the halves merge
            draw = None
            if i + 1 < grid.size:
                draw = functools.partial(_draw, c[n0:n0 + int(grid[i + 1]) - n], cfg.seed,
                                         n, threaded)
            yield (i, *_prefix_gaps(c, n0, n1, shortest[i] - SLACK, scratch,
                                    pool if n >= _THREAD_MIN else None, draw))


def _residue(a, b, first, last, ell, target) -> IntervalUnion:
    """The part of `target` (None for the circle) that arcs of length `ell`
    leave uncovered, given the candidate gaps (a, b) of a length up to ell
    and the first and last center, built by the public uncovered_at."""
    ends, cand = _skeleton(a, b, first, last)
    gaps = uncovered_at(ends, ell, cand)
    # the gaps go first: intersect costs O(|gaps| log |target|)
    return gaps if target is None else intersect(gaps, target)


def _setup(cfg: TrialConfig, rules) -> tuple:
    """cfg's grid, the rules' lengths on it (rules by checkpoints), the
    target's intervals (None for the circle) and the index of the
    checkpoint nearest sqrt(n_max)."""
    grid = cfg.checkpoints()
    ells = np.array([rule.ell(grid.astype(np.float64)) for rule in rules])
    t_approx = None if cfg.target.kind == "circle" else cfg.target.approx
    tail_idx = int(np.argmin(np.abs(grid.astype(np.float64) - math.sqrt(cfg.n_max))))
    return grid, ells, t_approx, tail_idx


def run_trial(cfg: TrialConfig, tail_checkpoints: int = 0) -> CoverageTrace:
    """Run one trial; the trace's tail_uncovered unites the residues of the
    last `tail_checkpoints` checkpoints (0 for none).  Every checkpoint is
    decided, and an uncovered one builds its residue.  An n_max past the
    physical memory is refused before anything is allocated."""
    cfg.check_window(tail_checkpoints, 0)
    _check_memory(cfg.n_max, 1)
    if cfg.lengths is None:
        raise ConfigError("lengths", "no length sequence configured")
    cfg.target.check_horizon(cfg.lengths.ell(cfg.n_max))
    grid, (ells,), t_approx, tail_idx = _setup(cfg, [cfg.lengths])
    covered = np.zeros(grid.size, dtype=bool)
    unc_measure = np.zeros(grid.size, dtype=np.float64)
    pieces = np.zeros(grid.size, dtype=np.int64)
    tail_union = EMPTY
    for i, a, b, first, last in _prefixes(cfg, ells):
        ell = float(ells[i])
        # a covered checkpoint's residue is empty, bit for bit: its measure
        # and piece count stay 0 and the tail union is the same without it
        covered[i] = not _leaves_uncovered(a, b, first, last, ell, t_approx)
        if covered[i]:
            continue
        resid = _residue(a, b, first, last, ell, t_approx)
        unc_measure[i] = measure(resid)
        pieces[i] = resid.component_count()
        if i >= grid.size - tail_checkpoints:
            tail_union = union(tail_union, resid)
    k = np.flatnonzero(~covered).max(initial=-1)
    return CoverageTrace(
        seed=int(cfg.seed),
        n_max=int(cfg.n_max),
        checkpoints=grid,
        ells=ells,
        covered=covered,
        uncovered_measure=unc_measure,
        piece_count=pieces,
        n_tail_start=int(grid[tail_idx]),
        last_failure_n=int(grid[k]) if k >= 0 else None,
        # covered at every checkpoint from tail_idx on
        eventually_covered=bool(k < tail_idx),
        tail_uncovered=tail_union,
    )


def _verdicts(cfg: TrialConfig, rules, tail_checkpoints: int) -> list:
    """Per rule of `rules`, what run_trial's trace of cfg under it says of
    eventual coverage: (eventually_covered, last_failure_n, tail_uncovered).

    One pass serves every rule, and cfg's `lengths` is not read.  The rules
    come in order of length at every checkpoint, as logn:c for increasing
    c, else ValueError.  The verdicts depend only on each rule's last
    uncovered checkpoint, so the tail window is decided in full, while a
    checkpoint before it is held, as its candidate gaps, and decided after
    the pass by _last_failures.  Held gaps past _HOLD per center of the
    horizon are decided at once.
    """
    grid, ells, t_approx, tail_idx = _setup(cfg, rules)
    if np.any(ells[1:] < ells[:-1]):
        raise ValueError("rules must come in order of length at every checkpoint")
    tail_start = grid.size - tail_checkpoints
    # per rule, the index of its last uncovered checkpoint, -1 for none
    last_fail = np.full(len(rules), -1)
    tail_unions = [EMPTY] * len(rules)
    held, held_gaps = [], 0
    for i, a, b, first, last in _prefixes(cfg, ells[0]):
        if i < tail_start:
            held.append((i, a, b, first, last))
            held_gaps += a.size
            if held_gaps >= _HOLD * cfg.n_max:
                _last_failures(held, ells, t_approx, last_fail)
                held, held_gaps = [], 0
            continue
        m = _uncovered(a, b, first, last, ells[:, i], t_approx)
        last_fail[:m] = i
        for j in range(m):
            resid = _residue(a, b, first, last, float(ells[j, i]), t_approx)
            tail_unions[j] = union(tail_unions[j], resid)
    if held:
        _last_failures(held, ells, t_approx, last_fail)
    return [(bool(k < tail_idx), int(grid[k]) if k >= 0 else None, tail_union)
            for k, tail_union in zip(last_fail, tail_unions)]


def _tail_union(cfg: TrialConfig, tail_checkpoints: int) -> IntervalUnion:
    """run_trial(cfg, tail_checkpoints).tail_uncovered, bit for bit.  The
    residues of the window depend only on the prefixes of its checkpoints,
    so the pass starts at its first one, and no checkpoint decides
    coverage: a covered one adds an empty residue."""
    grid, (ells,), t_approx, _ = _setup(cfg, [cfg.lengths])
    tail_union = EMPTY
    for i, a, b, first, last in _prefixes(cfg, ells, grid.size - tail_checkpoints):
        tail_union = union(tail_union, _residue(a, b, first, last, float(ells[i]), t_approx))
    return tail_union
