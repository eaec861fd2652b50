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
  in one array and merge it once per checkpoint, comparing the centers'
  bit patterns as unsigned integers: for doubles in [0, 1), as every
  center is, that order is the numeric one.  A pass whose horizon
  reaches _THREAD_MIN, where _threads_allowed says so, keeps two halves
  split at _SPLIT, one growing from each end of the array; from
  _THREAD_MIN centers on, the low half merges on a second thread while the
  calling thread merges the high one and draws the next checkpoint's
  centers into the free middle.  Any other pass samples once and keeps one
  run.  Such a long pass keeps the prefix only until few of its gaps can
  still be candidates (_switch, _X0): from there it keeps those open gaps
  alone, and each later checkpoint splits them by its batch of new centers
  (_land), drawn on the second thread while the batch before it lands.
  Each half gathers its open gaps block by block, as parts; the first
  batch is drawn, and the parts joined, only once the prefix array is
  released, so the pass never holds both phases at once; _check_memory
  refuses a horizon by the larger of the two (_pass_bytes).
  _gap_candidates picks the gaps the exact predicate runs on.
- Three passes read it, and each drops a checkpoint's gaps before the
  pass lands the next batch.  Coverage is monotone in the length, so one
  number per checkpoint, the depth of the target in its gaps (_depth),
  decides every length but those within a rounding of it, which their
  residues decide (_uncovered).  run_trial, the one entry point for a
  trial, decides every checkpoint so and builds a residue where one is
  uncovered.  _verdicts gives a phase scan's verdicts under a list of
  length rules, which share the seed, target and grid: one depth decides
  every rule as the pass yields it, and a scan's fractions never
  decrease in c.  _tail_union gives the tail union alone and starts at
  the tail window.  Both trust their caller to have run each rule's
  scale guard (TargetSet.check_horizon).
"""

from __future__ import annotations

import bisect
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
from .torus import EMPTY, MERGE_EPS, IntervalUnion, _seam_dust, intersect, measure, union

PRNG_NAME = "numpy.random.Philox"
PRNG_VERSION = np.__version__


def sample_centers(seed: int, n: int, start: int = 0, out=None) -> np.ndarray:
    """n uniform centers of the stream keyed by `seed`, from its center
    number `start` on (by default its first n).

    Deterministic, and prefix-stable: sample_centers(seed, m) is a prefix
    of sample_centers(seed, n) for m <= n, and sample_centers(seed, n,
    start=s) is sample_centers(seed, s + n)[s:].  With `out`, a float64
    array of n, the centers are written there and it is returned.

    Each center is (w >> 11) * 2**-53 for a 64-bit word w of the stream: a
    double in [0, 1) with its sign bit clear, never NaN or -0.0.  The
    kernel relies on this to merge centers on their bit patterns.
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
# from 0.55 to 0.7 all beat 1/2 and 0.65-0.7 did best.  Re-timed once the
# merges compared integer keys, in whole trials to n_max 1e7 on the same VM
# over alternating pairs: 0.7 read 0.461 s of wall against 0.457 s and
# 0.795 s of cpu against 0.767 s (11 pairs), and 0.75 read 0.430 s against
# 0.434 s and 0.744 s against 0.733 s (21 pairs), both inside the spread.
_SPLIT = 0.65

# Where a pass whose horizon reaches _THREAD_MIN stops keeping its sorted
# prefix: at its first checkpoint n with n * floor >= _X0, floor the least
# prefilter threshold from there on (see _prefixes).  Under uniform centers
# about exp(-_X0) of the gaps are then longer than floor and stay open.  A
# lower _X0 keeps a shorter prefix but more open gaps, a higher one the
# reverse.  Chosen in whole trials to n_max 1e7 (logn:0.5, seed 0) on a
# 2-core VM as the lowest peak RSS that kept the wall and cpu time of the
# kernel before it, which switched at 3 (76.1 MB).  In alternating runs,
# against that kernel: 2.75 read 72.2-72.5 MB and +0.003 to +0.014 s of
# wall per round (7 and 10 rounds); 2.5 read 70.2 MB but +0.024 to
# +0.038 s, and +10% over 12 more pairs; 2.25 read 68.5 MB and +0.045 s;
# 3 read 76.2 MB and -0.007 to -0.025 s.
_X0 = 2.75

# Most bytes a pass holds per center of its prefix array while it keeps the
# sorted prefix: 8 for the prefix and up to 4 for timsort's merge buffer.
# The merge buffer is gone before the candidate gaps are gathered, block by
# block, at 16 B each for their two ends; at the switch they are about
# exp(-_X0) of the gaps, under 1.5 B per center.
_BYTES_PER_CENTER = 12

# Bytes a late phase holds per open gap of its switch checkpoint: 16 for
# its two ends and what _land holds while a batch lands, at most about 47:
# its two outputs and three index arrays.  The kernel's consumers drop the
# last checkpoint's gaps before it lands; one that keeps them adds up to 16.
# From the switch on, beside 8 B per center of the two largest consecutive
# batches, passes that keep them peaked in tracemalloc at 18 (one-run) and
# 32 B (threaded) per grid[s] * exp(-_X0) at n_max 2**21 (logn:0.5, seed
# 5), at 8 and 22 B at 1e7 (seed 0), and at 67 B under harmonic:3 at 1e7,
# whose one late batch lands in all its open gaps at once; run_trial's
# landing there peaks at 54 B.
_BYTES_PER_OPEN_GAP = 72

# Bytes per candidate gap for its ends, pieces, residue and tail unions:
# tracemalloc peaks at n_max 1e6, less 8 B per center, per expected gap
# (_pass_bytes): 130 B for a power:1:2 trial, 165 B with a tail window of
# 5, and 183 B for a scan of 7 rules from logn:0.05.
_BYTES_PER_GAP = 192


def _switch(grid, shortest, start: int = 0) -> tuple:
    """(thr, floor, s) for a pass over `grid` from index `start` on at the
    lengths `shortest`: its thresholds thr[i] = fl(shortest[i] - SLACK),
    their suffix minima floor[i] = min(thr[i:]), and its switch checkpoint
    s, where it stops keeping its sorted prefix (see _prefixes).  Only a
    pass whose horizon reaches _THREAD_MIN switches, at its first
    checkpoint s >= start with grid[s] * floor[s] >= _X0; s is grid.size
    for one that never does."""
    thr = shortest - SLACK
    floor = np.minimum.accumulate(thr[::-1])[::-1]
    s = grid.size
    if grid[-1] >= _THREAD_MIN:
        late = np.flatnonzero(grid[start:] * floor[start:] >= _X0)
        if late.size:
            s = start + int(late[0])
    return thr, floor, s


def _pass_bytes(cfg: TrialConfig, rule: LengthSequence, start: int = 0) -> int:
    """About the most bytes a pass of _prefixes over cfg's grid from index
    `start` on, at the lengths of `rule`, and its consumer hold at once.

    A pass holds the larger of two phases, which never hold memory at the
    same time: its prefix array is released before its first late batch is
    drawn.  The sorted phase holds _BYTES_PER_CENTER per center of that
    array: grid[s] where it switches at s, n_max where it never does.  The
    late phase holds the open gaps at s, about grid[s] * exp(-_X0) of them
    (_BYTES_PER_OPEN_GAP each), and two consecutive batches, the one that
    lands and the next one, drawn meanwhile, 8 B per center.  Beside
    either, a residue takes _BYTES_PER_GAP per gap longer than ell, for the
    grid's most of n * (1 - ell)^(n - 1), their mean number at n centers."""
    grid = cfg.checkpoints()
    ells = rule.ell(grid.astype(np.float64))
    _, _, s = _switch(grid, ells, start)
    size = int(grid[min(s, grid.size - 1)])
    need = _BYTES_PER_CENTER * size
    if s + 1 < grid.size:
        batches = np.diff(grid[s:])
        pair = int((batches[:-1] + batches[1:]).max(initial=batches[0]))
        need = max(need, int(_BYTES_PER_OPEN_GAP * size * math.exp(-_X0)) + 8 * pair)
    ns = grid[start:].astype(np.float64)
    gaps = ns * np.exp((ns - 1.0) * np.log1p(-ells[start:]))
    return need + int(_BYTES_PER_GAP * gaps.max())


def _physical_memory() -> int | None:
    """Bytes of physical memory of this machine, None where the system
    does not say."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError):
        return None
    return pages * size if pages > 0 and size > 0 else None


def _check_memory(n_max: int, need: int, trials: int) -> None:
    """Refuse an n_max whose `trials` trials, run at once, would need more
    than the machine's physical memory, at `need` bytes each (_pass_bytes),
    before anything is allocated."""
    need *= trials
    have = _physical_memory()
    if have is not None and need > have:
        raise ConfigError("n_max", f"{n_max} centers need about {need / 2 ** 30:.3g} GiB "
                          f"for {trials} trial(s) at once, more than the "
                          f"{have / 2 ** 30:.3g} GiB of physical memory")


def _gap_candidates(cs, thr) -> tuple:
    """The ends (a, b) = (cs[i], cs[i+1]) of the gaps with fl(cs[i+1] -
    cs[i]) > thr, ascending, as two lists of parts to join (_join).

    The same gaps, from the same float64 subtraction and comparison, as a
    one-shot flatnonzero over all spacings, but found in blocks of at most
    _BLOCK gaps through a spacing buffer and a mask allocated once per
    call, each block's ends gathered as it is scanned: no temporary grows
    with cs, and no index array is held beside the ends.  Every part is a
    copy, and there is at least one.
    """
    n_gaps = cs.size - 1
    step = max(1, min(_BLOCK, n_gaps))
    buf, mask = np.empty(step), np.empty(step, dtype=bool)
    a, b = [], []
    # one empty block where there is no gap
    for s in range(0, max(n_gaps, 1), step):
        e = min(s + step, n_gaps)
        k = e - s
        np.subtract(cs[s + 1:e + 1], cs[s:e], out=buf[:k])
        np.greater(buf[:k], thr, out=mask[:k])
        idx = mask[:k].nonzero()[0]
        block = cs[s:e + 1]
        a.append(block[idx])
        idx += 1
        b.append(block[idx])
    return a, b


def _draw(fresh, seed: int, start: int, sample: bool) -> np.ndarray:
    """Put the next fresh centers in `fresh`, sorted, and return it: the
    centers start, start+1, ... of the seed's stream, sampled into it when
    `sample` (else they are there already), then sorted in place.  Between
    the two steps they are in stream order."""
    if sample:
        sample_centers(seed, fresh.size, start=start, out=fresh)
    fresh.sort()
    return fresh


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


def _half_gaps(half, thr, merge=True) -> tuple:
    """Merge the two sorted runs of one half in place (without `merge`, it
    is one sorted run already), then gather the ends (a, b) of its
    candidate gaps: those with fl(b - a) > thr, ascending, as lists of
    parts (_gap_candidates).  The prefilter's buffers are this call's own,
    so halves on two threads share none.

    The merge compares the centers' bit patterns as unsigned 64-bit
    integers.  A half holds only sample_centers outputs, doubles in [0, 1)
    with the sign bit clear, never NaN or -0.0: on those the integer order
    is the numeric order and equal keys are equal values, so the stable
    merge leaves the same bytes as a float64 one, with a cheaper compare."""
    if merge:
        # timsort merges the two sorted runs in linear time
        half.view(np.uint64).sort(kind="stable")
    return _gap_candidates(half, thr)


def _prefix_gaps(c, n0: int, n1: int, thr, pool, meanwhile=None, merge=True) -> tuple:
    """The candidate gaps of the sorted prefix that `c` holds as a low run
    c[:n0] and a high run c[c.size-n1:], each of two sorted runs (of one,
    without `merge`).

    Merges each half and returns (a, b, first, last): the ends of the gaps
    with fl(b - a) > thr, as lists of ascending parts to join (the low
    half's, the gap between the halves, the high half's), and the
    first and last center.  These are the gaps and values of the whole
    sorted prefix, and no part of them is a view of `c`.  With a `pool`,
    the low half runs on its thread while the calling thread does the high
    half (_half_gaps).  `meanwhile`, if given, runs on the calling thread
    once its own merging is done and before it waits for the pool's: it
    may write the free middle c[n0:c.size-n1], which no merge and no
    returned value reads.
    """
    low, high = c[:n0], c[c.size - n1:]
    job = None
    if pool is not None and n0 and n1:
        job = pool.submit(_half_gaps, low, thr, merge)
    elif n0:
        a0, b0 = _half_gaps(low, thr, merge)
    if n1:
        a1, b1 = _half_gaps(high, thr, merge)
    if meanwhile is not None:
        meanwhile()
    if job is not None:
        a0, b0 = job.result()
    # with one half empty, the other is the whole prefix
    if not n1:
        return a0, b0, float(low[0]), float(low[-1])
    if not n0:
        return a1, b1, float(high[0]), float(high[-1])
    if high[0] - low[-1] > thr:
        a0.append(low[-1:].copy())
        b0.append(high[:1].copy())
    return a0 + a1, b0 + b1, float(low[0]), float(high[-1])


def _join(parts) -> np.ndarray:
    """The arrays `parts` end to end; one part is returned as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


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
    fl(b - a) > fl(ell - SLACK) instead of on all n - 1 gaps
    (_gap_candidates).

    `candidates`, if given, replaces the cheap test: the indices i of all
    gaps that pass it for some length up to `ell`.  Rounding is monotone,
    so they include every gap that passes it at `ell`, and the exact
    predicate picks the same gaps from them.  With `candidates`, the array
    need only hold, in order, the first and the last center and both ends
    of every candidate gap (see _skeleton): no other gap is read.  So the
    kernel builds every residue (_residue), and decides every tie of
    _uncovered, from the candidates of the shortest length it passes.
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
        a, b = map(_join, _gap_candidates(cs, ell - SLACK))
    else:
        a, b = cs[candidates], cs[candidates + 1]
    lo, hi = _pieces(a, b, cs[0], cs[-1], ell)
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

    They are those of complement(arcs_to_union(...)), in its arithmetic.
    Where the first arc starts below 0 (l = fl(first - r) < 0) or the last
    one ends above 1 (h = fl(last + r) > 1), one piece is left, kept by the
    test of a gap between two pieces, hi > fl(lo + MERGE_EPS).  Where
    neither does, the parts (0, l) and (h, 1) are seam dust, dropped, when
    they total at most MERGE_EPS (torus._seam_dust)."""
    r = 0.5 * ell
    l = first - r
    h = last + r
    if l < 0.0:
        return (), (h, l + 1.0) if l + 1.0 > h + MERGE_EPS else ()
    if h > 1.0:
        return (h - 1.0, l) if l > (h - 1.0) + MERGE_EPS else (), ()
    if _seam_dust(l, h):
        return (), ()
    return (0.0, l) if l > 0.0 else (), (h, 1.0) if h < 1.0 else ()


def _depth(a, b, first, last, lookup, floor: float = 0.0) -> float:
    """D >= 0, the longest arc length whose uncovered middle of a candidate
    gap (a, b) or of the wrap gap still meets the target (lookup, its
    TargetSet._lookup).  That middle meets a piece [s, t] iff ell < min(b -
    a, 2 min(t - a, b - s)), so a gap's depth is set by the last piece [s-,
    t-] from at or below its midpoint and the next, from s+: min(b - a, 2
    max(t- - a, b - s+)).  The wrap gap is taken as (last, first + 1) and
    (last - 1, first), to meet the pieces on both sides of the seam.  For
    the circle (lookup None) D is the widest gap.  Gaps no wider than
    `floor` are skipped, which leaves D where the result reaches floor.
    It decides every checkpoint of a trial and of a scan (_uncovered)."""
    if lookup is None:
        return max(first + 1.0 - last, float((b - a).max(initial=0.0)))
    los, his = lookup
    d = 0.0
    # scalars: the wrap gap through arrays costs more than the rest
    for x, y in ((last, first + 1.0), (last - 1.0, first)):
        if y - x > floor:
            j = int(los.searchsorted(0.5 * (x + y), side="right"))
            d = max(d, min(y - x, 2.0 * max(float(his[j - 1]) - x, y - float(los[j]))))
    if floor > 0.0:
        wide = b - a > floor
        a, b = a[wide], b[wide]
    # most checkpoints of a covered trial have no candidate gap
    if not a.size:
        return d
    j = los.searchsorted(0.5 * (a + b), side="right")
    return float(np.minimum(b - a, 2.0 * np.maximum(his[j - 1] - a, b - los[j])).max(initial=d))


def _band(d: float) -> float:
    """Half-width of the ties about a depth d, far above its rounding."""
    return 1e-9 * abs(d) + 4 * MERGE_EPS


def _uncovered(a, b, first, last, ells, target, lookup, hint: int = 0) -> int:
    """How many of the non-decreasing lengths `ells` leave part of `target`
    uncovered, the leading ones, given the candidate gaps (a, b) of a
    length up to ells[0], the first and last center, the target (None for
    the circle) and its TargetSet._lookup; `hint`, a guess at the count, as
    the last checkpoint's, saves time where it holds.  A trial asks it of
    one length per checkpoint, a scan of all its rules at once.

    A length leaves the target uncovered iff its residue (_residue) is not
    empty, and that is non-increasing in ell, rounding included, so the
    lengths below the depth D (_depth) leave the target uncovered and those
    above it cover it; the ties, within _band(D), are decided by their
    residues.  Take half-lengths r' < r (r = ell / 2 is exact); if r leaves
    part of the target uncovered, so does r':
    - Inner gaps.  fl(a + r) and fl(b - r) are monotone in r, so the middle
      (lo', hi') of a gap at r' contains its middle (lo, hi) at r, and the
      keep test fl(b - r) > fl(fl(a + r) + MERGE_EPS) holds at r' where it
      holds at r.
    - The target.  intersect keeps the overlap of a piece and a target
      interval where one searchsorted count, non-decreasing in hi, exceeds
      another, non-decreasing in lo, so a piece that contains one meeting
      a target interval meets it too; and it keeps a target point strictly
      inside a piece, which is strictly inside any piece that contains
      that one.
    - The seam.  As r shrinks, l = fl(first - r) grows and h = fl(last +
      r) shrinks (see _seam_pieces).  A piece (h, fl(l + 1)) at l < 0
      passes its keep test fl(l + 1) > fl(h + MERGE_EPS) at r' too while
      l' < 0.  Once l' >= 0, that test gave fl(h + MERGE_EPS) < 1, so 1 - h
      > MERGE_EPS, and the two parts at r' total more than MERGE_EPS: the
      piece lies in (h', 1).  A piece (fl(h - 1), l) at h > 1 is the mirror
      image, where l > fl(fl(h - 1) + MERGE_EPS) >= MERGE_EPS.  Where
      neither end crosses the seam, the parts l and 1 - h only grow, and
      (0, l) and (h, 1) stay.  Each piece at r lies in a piece at r'.
    - The point at 0.  It needs both (0, l) and (h, 1), which stay.
    A tie's residue is built from the candidates of ells[0], a superset of
    those of its own length (rounding is monotone), whose extra gaps fail
    the keep test (see uncovered_at): the same residue, bit for bit.
    """
    floor = ells[hint - 1] if hint else 0.0
    d = _depth(a, b, first, last, lookup, floor)
    if d < floor:
        # D >= d, so the gaps wider than the longest length up to d give D
        k = bisect.bisect_right(ells, d)
        d = _depth(a, b, first, last, lookup, ells[k - 1] if k else 0.0)
    band = _band(d)
    m = bisect.bisect_left(ells, d - band)
    for ell in ells[m:]:
        if ell > d + band or _residue(a, b, first, last, ell, target).is_empty():
            break
        m += 1
    return m


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
    fl(b - a) > thr[i] = fl(shortest[i] - SLACK), ascending, and the first
    and last center, all copies.

    Up to a switch checkpoint s the pass keeps the sorted prefix
    (_sorted_steps); from there it keeps only the gaps that may still be
    yielded (_open_steps).  Let floor[i] = min(thr[i:]).  A gap of the
    prefix at s with fl(b - a) <= floor[s] never yields again: every later
    gap (x, y) inside it has y - x <= b - a, and rounding is monotone, so
    fl(y - x) <= fl(b - a) <= floor[s] <= thr[j] for every j >= s.  So at
    s the pass scans at floor[s], keeps those open gaps, filters them at
    thr[s] for its yield and frees the prefix.  Each later checkpoint lands
    its batch of new centers in the open gaps and the wrap gap (_land) and
    drops the sub-gaps with fl(b - a) <= floor[i]; every gap of the prefix
    with fl(b - a) > floor[i] lies in an open gap or the wrap gap, so the
    yields are those of the whole prefix, bit for bit.

    The switch checkpoint s is _switch's, and the prefix array holds
    grid[s] centers rather than n_max.  At s the pass holds nothing beside
    that array, its merge buffers and the gap ends being gathered: the
    parts of the open gaps are joined, and the first late batch is drawn,
    only once the array is released, and from there only the late steps
    hold the open gaps.  A pass that switches, where
    _threads_allowed() holds, is two-ended and threaded, and draws its
    late batches on its second thread (_open_steps); any other pass
    samples its prefix once, keeps one run and draws each late batch when
    it lands."""
    grid = cfg.checkpoints()
    if start >= grid.size:
        return
    thr, floor, s = _switch(grid, shortest, start)
    threaded = cfg.n_max >= _THREAD_MIN and _threads_allowed()
    lims = thr.copy()
    if s < grid.size:
        lims[s] = floor[s]
    # an executor per pass, whose thread (started by the first submit) ends
    # with it, also where the consumer stops early: a process pool forked
    # later gets no thread, and no dead copy of an executor
    with ThreadPoolExecutor(1) if threaded else contextlib.nullcontext() as pool:
        for i, a, b, first, last in _sorted_steps(cfg, grid, lims, start,
                                                  min(s + 1, grid.size), pool):
            if i < s:
                a, b = _join(a), _join(b)
                yield i, a, b, first, last
        if s == grid.size:
            return
        # the prefix is gone with the finished _sorted_steps; from here only
        # the late steps hold the open gaps
        late = _open_steps(cfg, grid, thr, floor, s, (_join(a), _join(b), first, last), pool)
        del a, b
        yield from late


def _sorted_steps(cfg: TrialConfig, grid, lims, start: int, stop: int, pool):
    """(i, a, b, first, last) as _prefix_gaps has them, at the thresholds
    lims[i], for the checkpoints start..stop-1, from a prefix array of
    grid[stop-1] centers, which is released when the last one has been
    read.  The first of them samples and sorts its whole prefix in one
    step; no earlier one is sampled or merged.  A pass given a `pool` is
    threaded: two-ended, its halves split at _SPLIT."""
    threaded = pool is not None
    # a one-run pass splits at 1, above every center: the high run stays
    # empty and the free middle takes the centers in stream order
    at = _SPLIT if threaded else 1.0
    # the two-ended prefix, shared by every checkpoint
    size = int(grid[stop - 1])
    c = np.empty(size)
    if not threaded:
        sample_centers(cfg.seed, size, out=c)
    n0 = n1 = prev = 0
    # the centers of the first checkpoint; each later checkpoint's are drawn
    # into the free middle while the one before it merges
    _draw(c[:int(grid[start])], cfg.seed, 0, threaded)
    for i in range(start, stop):
        n = int(grid[i])
        # centers prev..n-1 of the stream, drawn and sorted in the free
        # middle, join the halves; the grid is strictly increasing.  The
        # first checkpoint's halves are those centers alone, sorted
        n0, n1 = _split(c, n0, n1, n - prev, at)
        merge, prev = prev > 0, n
        # the next checkpoint's centers, drawn while the halves merge
        draw = None
        if i + 1 < stop:
            draw = functools.partial(_draw, c[n0:n0 + int(grid[i + 1]) - n], cfg.seed,
                                     n, threaded)
        yield (i, *_prefix_gaps(c, n0, n1, lims[i], pool if n >= _THREAD_MIN else None,
                                draw, merge))


def _next_batch(cfg: TrialConfig, grid, i: int, pool):
    """A callable that returns the sorted batch of new centers of
    checkpoint i + 1, grid[i]..grid[i+1]-1 of the stream: drawn from now
    on, on the thread of a `pool`, or drawn when it is called, without
    one.  The batch's array is allocated on the calling thread either way,
    so it comes from the same heap as every other array of the pass."""
    size = int(grid[i + 1] - grid[i])
    if pool is None:
        return lambda: _draw(np.empty(size), cfg.seed, int(grid[i]), True)
    return pool.submit(_draw, np.empty(size), cfg.seed, int(grid[i]), True).result


def _open_steps(cfg: TrialConfig, grid, thr, floor, s: int, gaps, pool):
    """(i, a, b, first, last) as _prefixes has them, for the switch s and
    the checkpoints after it, from `gaps`, the open gaps and end centers of
    the prefix at s (see _prefixes), which no other frame holds.  Each
    batch is asked for (_next_batch) before the checkpoint before it is
    yielded, so with a `pool` it is drawn while the consumer reads that
    checkpoint and, past s, while that checkpoint's own batch lands."""
    a, b, first, last = gaps
    # so each landing frees the gaps it replaces
    del gaps
    draw = None
    for i in range(s, grid.size):
        fresh = draw() if draw else None
        draw = _next_batch(cfg, grid, i, pool) if i + 1 < grid.size else None
        if fresh is not None:
            a, b, first, last = _land(a, b, first, last, fresh, floor[i])
        wide = b - a > thr[i]
        yield i, a[wide], b[wide], first, last
        # dropped before the next batch lands
        del wide


def _land(a, b, first, last, fresh, lim) -> tuple:
    """The open gaps and end centers once the sorted batch `fresh` joins
    the prefix, given its open gaps (a, b), ascending, and its first and
    last center.

    A batch center strictly inside an open gap splits it.  Those below
    `first` and above `last` split the wrap gap: the ones below make inner
    gaps among themselves and up to `first`, the ones above from `last`
    on.  Every sub-gap is written once, in order, into two output arrays
    allocated up front, and each index array is dropped once used; of the
    sub-gaps, those with fl(b - a) > lim stay open.  A center equal to an
    end of a gap, or to another center, makes only gaps of length 0, which
    lim > 0 drops: the gaps left are those of the merged prefix, bit for
    bit.  The batch is searched on its bit patterns as unsigned integers,
    which order doubles in [0, 1), as every center is, as numbers (see
    _half_gaps).  Returns (a, b, first, last)."""
    nb = int(fresh.searchsorted(first, side="left"))
    na = fresh.size - int(fresh.searchsorted(last, side="right"))
    # the centers strictly inside open gap j, fresh[lo[j]:lo[j] + k[j]]
    keys = fresh.view(np.uint64)
    lo = keys.searchsorted(a.view(np.uint64), side="right")
    k = keys.searchsorted(b.view(np.uint64), side="left")
    k -= lo
    arrivals = int(k.sum())
    # the sub-gaps in order: below `first`, in the open gaps, from `last` on
    out_a = np.empty(nb + a.size + arrivals + na)
    out_b = np.empty(out_a.size)
    if nb:
        out_a[:nb] = fresh[:nb]
        out_b[:nb - 1] = fresh[1:nb]
        out_b[nb - 1] = first
    if na:
        top = out_a.size - na
        out_a[top] = last
        out_a[top + 1:] = fresh[-na:-1]
        out_b[top:] = fresh[-na:]
    # gap j becomes the k[j] + 1 sub-gaps pos[j]..pos[j] + k[j], after the
    # nb below `first` and those of the gaps before it: the first starts
    # at a[j] and the last ends at b[j]
    k += 1
    pos = np.cumsum(k)
    k -= 1
    pos += nb - 1
    out_b[pos] = b
    pos -= k
    out_a[pos] = a
    # the inside centers in order: the i-th of gap j, fresh[lo[j] + i], ends
    # the sub-gap pos[j] + i and starts the next
    lo -= pos
    del pos
    src = np.repeat(lo, k)
    del lo
    # pos[j] + i = nb + j + t, t the rank of the center among all arrivals
    dst = np.repeat(np.arange(nb, nb + a.size), k)
    del k
    dst += np.arange(arrivals)
    src += dst
    inside = fresh[src]
    del src
    out_b[dst] = inside
    dst += 1
    out_a[dst] = inside
    del dst, inside
    wide = out_b - out_a > lim
    return out_a[wide], out_b[wide], min(first, float(fresh[0])), max(last, float(fresh[-1]))


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
    target's intervals and its TargetSet._lookup (both None for the circle)
    and the index of the checkpoint nearest sqrt(n_max)."""
    grid = cfg.checkpoints()
    ells = np.array([rule.ell(grid.astype(np.float64)) for rule in rules])
    circle = cfg.target.kind == "circle"
    t_approx, lookup = (None, None) if circle else (cfg.target.approx, cfg.target._lookup)
    tail_idx = int(np.argmin(np.abs(grid.astype(np.float64) - math.sqrt(cfg.n_max))))
    return grid, ells, t_approx, lookup, tail_idx


def run_trial(cfg: TrialConfig, tail_checkpoints: int = 0) -> CoverageTrace:
    """Run one trial; the trace's tail_uncovered unites the residues of the
    last `tail_checkpoints` checkpoints (0 for none).  Every checkpoint is
    decided as a scan decides it (_uncovered), and an uncovered one builds
    its residue.  An n_max past the physical memory is refused before
    anything is allocated."""
    cfg.check_window(tail_checkpoints, 0)
    if cfg.lengths is None:
        raise ConfigError("lengths", "no length sequence configured")
    # ell(n_max) > 0 for a non-increasing rule gives ell > 0 on the grid
    ell_max = cfg.lengths.ell(cfg.n_max)
    _check_memory(cfg.n_max, _pass_bytes(cfg, cfg.lengths), 1)
    cfg.target.check_horizon(ell_max)
    grid, (ells,), t_approx, lookup, tail_idx = _setup(cfg, [cfg.lengths])
    covered = np.zeros(grid.size, dtype=bool)
    unc_measure = np.zeros(grid.size, dtype=np.float64)
    pieces = np.zeros(grid.size, dtype=np.int64)
    tail_union = EMPTY
    for i, a, b, first, last in _prefixes(cfg, ells):
        ell = float(ells[i])
        # a covered checkpoint's residue is empty, bit for bit: its measure
        # and piece count stay 0 and the tail union is the same without it
        covered[i] = not _uncovered(a, b, first, last, [ell], t_approx, lookup)
        if not covered[i]:
            resid = _residue(a, b, first, last, ell, t_approx)
            unc_measure[i] = measure(resid)
            pieces[i] = resid.component_count()
            if i >= grid.size - tail_checkpoints:
                tail_union = union(tail_union, resid)
            del resid
        # dropped before the pass lands the next batch
        del a, b
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
    c, else ValueError.  At each checkpoint, as the pass yields it, the
    first few rules fail (_uncovered), and in the tail window they add
    their residues.
    """
    grid, ells, t_approx, lookup, tail_idx = _setup(cfg, rules)
    if np.any(ells[1:] < ells[:-1]):
        raise ValueError("rules must come in order of length at every checkpoint")
    # per rule, the index of its last uncovered checkpoint, -1 for none
    last_fail = np.full(len(rules), -1)
    tail_unions = [EMPTY] * len(rules)
    cols, m = ells.T.tolist(), 0
    for i, a, b, first, last in _prefixes(cfg, ells[0]):
        m = _uncovered(a, b, first, last, cols[i], t_approx, lookup, m)
        last_fail[:m] = i
        for j in range(m if i >= grid.size - tail_checkpoints else 0):
            tail_unions[j] = union(tail_unions[j],
                                   _residue(a, b, first, last, cols[i][j], t_approx))
        # dropped before the pass lands the next batch
        del a, b
    return [(bool(k < tail_idx), int(grid[k]) if k >= 0 else None, tail_union)
            for k, tail_union in zip(last_fail, tail_unions)]


def _tail_union(cfg: TrialConfig, tail_checkpoints: int) -> IntervalUnion:
    """run_trial(cfg, tail_checkpoints).tail_uncovered, bit for bit.  The
    residues of the window depend only on the prefixes of its checkpoints,
    so the pass starts at its first one, and no checkpoint decides
    coverage: a covered one adds an empty residue."""
    grid, (ells,), t_approx, *_ = _setup(cfg, [cfg.lengths])
    tail_union = EMPTY
    for i, a, b, first, last in _prefixes(cfg, ells, grid.size - tail_checkpoints):
        tail_union = union(tail_union, _residue(a, b, first, last, float(ells[i]), t_approx))
        # dropped before the pass lands the next batch
        del a, b
    return tail_union
