"""Arc-length sequences and their covering diagnostics.

A length sequence assigns each placement index n an arc length ell(n) in
(0, 1), non-increasing in n.  The diagnostics computed here are finite
proxies for asymptotic quantities and every result is tied to the range
it was sampled on:

* delta  = liminf of n * ell(n) / ln n, approximated by the minimum over
  a log-spaced sample of a finite range;
* the covering exponent = limsup of (sum_{s<=N} ell(s)) / ln N, with the
  partial sum accumulated term by term (never sampled), approximated by
  the maximum over a log-spaced set of N;
* partial sums of the covering series (1/ell_n)^beta * exp(-n d ell_n)
  and of the classical Shepp series n^-2 * exp(ell_1 + ... + ell_n),
  with three-valued convergence verdicts (convergent / divergent /
  inconclusive) so we never overclaim near a boundary.

Term-by-term sums add one length after another, as one cumsum over 1..N
would, in runs of at most _SUB terms, so their memory does not grow with
N.  A series sums each _CHUNK of consecutive indices as its own logaddexp
chain and folds the chunk totals into the sum in chunk order.  The chunks
are the columns of one walk by row offset: a block of rows, at most _SUB
terms, advances every chain in one logaddexp.reduce, so the chains of
different chunks run side by side rather than one after another.  Each
series has its own walk, which evaluates each length once; both_series
runs the covering walk on a second thread while the calling thread sums
the Shepp length prefix at each chunk start and then walks Shepp.  Each
sum refuses N > MAX_TERMS before it allocates anything.

Block sequences freeze the length on blocks (n_k, n_{k+1}] at the value
taken at the block end; their partial sums are evaluated in closed form
so schedules reaching 1e15 stay cheap and exact.

Every refused input raises ConfigError naming its field: the CLI field
that supplies it where there is one (`lengths` for rules and tables, `n`,
`d` and `beta` for the series, `alpha` and `k` for the schedule), else the
refused parameter (`ns`, `n_range`, `indices`).  ScheduleError is not a
refusal: it reports that no schedule exists below SCHEDULE_CAP.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_integer, fields_equal

CLAMP_MAX = 1.0 - 1e-9
MAX_EXACT_N = 2 ** 53  # beyond this, integer indices are not float-exact
MAX_TERMS = 100_000_000  # largest N summed term by term (prefix sums, series)
_CHUNK = 1_000_000  # a series' logaddexp chain restarts every _CHUNK terms; keep it fixed
_SUB = _CHUNK // 16  # terms per prefix-sum run, or per series in a walk block: same sums
SCHEDULE_CAP = 10 ** 15  # choose_schedule looks for block ends below this
_DELTA_RANGE = (3, 10 ** 6)  # the range choose_schedule estimates delta over


class ScheduleError(RuntimeError):
    """Raised when no admissible schedule index exists below SCHEDULE_CAP."""


class LengthSequence:
    """Base class: a rule n -> ell(n), vectorized over integer arrays."""

    def ell(self, n):
        """ell at n, a float for a scalar n.  A length that is not > 0, as
        one that underflows, is refused, naming the first such n."""
        ns, scalar = _as_index_array(n, "n")
        out = self._ell(ns)
        short = ~(out > 0.0)
        if short.any():
            raise ConfigError("lengths", f"{self.describe()} gives ell(n) = "
                              f"{out[short][0]:g} at n = {ns[short][0]:.17g}; "
                              "every length must be > 0")
        return float(out[0]) if scalar else out

    def _ell(self, ns: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """ell at the float indices ns, unchecked; into `out`, a float64
        array of ns.size that does not share memory with ns, if given, and
        then returned, else into a new array.  Either way the same bits."""
        raise NotImplementedError

    def partial_sums(self, ns) -> np.ndarray:
        """Exact prefix sums sum_{s<=n} ell(s) at the given sorted indices:
        the adds of one cumsum over 1..n, bit for bit."""
        ns, scalar = _as_index_array(ns, "ns")
        if np.any(ns != np.floor(ns)):
            raise ConfigError("ns", "partial_sums wants integer indices")
        if np.any(np.diff(ns) <= 0):
            raise ConfigError("ns", "partial_sums wants strictly increasing indices")
        out = self._partial_sums(ns)
        return float(out[0]) if scalar else out

    def _partial_sums(self, ns: np.ndarray) -> np.ndarray:
        top = int(ns[-1]) if ns.size else 0
        if top > MAX_TERMS:
            raise ConfigError("ns", f"term-by-term prefix sum to N={top} is too large; "
                              "use a block sequence (closed form) or a smaller range")
        step = min(_SUB, _CHUNK)
        sums = np.empty(ns.size, dtype=np.float64)
        index = np.arange(1, min(step, top) + 1, dtype=np.float64)  # a + 1.., reused
        run_buf = np.empty(index.size)
        carry, filled = 0.0, 0
        for a in range(0, top, step):
            run = self._ell(index[:top - a], out=run_buf[:top - a])
            run[0] += carry
            carry = float(np.cumsum(run, out=run)[-1])
            done = int(np.searchsorted(ns, a + run.size, side="right"))
            sums[filled:done] = run[ns[filled:done].astype(np.int64) - (a + 1)]
            filled = done
            index += step
        return sums

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.describe()})"


def _as_index_array(n, field_name: str):
    scalar = np.isscalar(n) or getattr(n, "ndim", 1) == 0
    ns = np.asarray(n, dtype=np.float64).reshape(-1)
    if ns.size == 0:
        return ns, False
    if np.any(ns < 1):
        raise ConfigError(field_name, "length sequence index must be >= 1")
    if np.any(ns > MAX_EXACT_N):
        raise ConfigError(field_name, "index exceeds the float-exact integer range "
                          "(2**53); refusing to evaluate silently")
    return ns, scalar


@dataclass(frozen=True, repr=False)
class LogOverN(LengthSequence):
    """ell(n) = c * ln(n) / n for n >= 2, with ell(1) = ell(2).

    Values are clamped below 1 so large c stays admissible.  Note ln(n)/n
    rises from n=2 to n=3 before decaying; the sequence is non-increasing
    from n=3 on.
    """

    c: float

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ConfigError("lengths", f"logn rule needs a finite c > 0, got {self.c}")

    def _ell(self, ns, out=None):
        m = np.maximum(ns, 2.0)
        # a huge c overflows to inf, which the clamp takes to CLAMP_MAX
        with np.errstate(over="ignore"):
            out = np.log(m, out=out)
            out *= self.c
            out /= m
            return np.minimum(out, CLAMP_MAX, out=out)

    def describe(self):
        return f"logn:{self.c:g}"


@dataclass(frozen=True, repr=False)
class Harmonic(LengthSequence):
    """ell(n) = c / n, clamped below 1 so c >= 1 is usable."""

    c: float

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ConfigError("lengths", f"harmonic rule needs a finite c > 0, got {self.c}")

    def _ell(self, ns, out=None):
        out = np.divide(self.c, ns, out=out)
        return np.minimum(out, CLAMP_MAX, out=out)

    def describe(self):
        return f"harmonic:{self.c:g}"


@dataclass(frozen=True, repr=False)
class PowerLaw(LengthSequence):
    """ell(n) = c * n**(-gamma) with gamma > 0, clamped below 1."""

    c: float
    gamma: float

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ConfigError("lengths", f"power rule needs a finite c > 0, got {self.c}")
        if not 0 < self.gamma < math.inf:
            raise ConfigError("lengths", "power rule needs a finite gamma > 0 to be "
                              f"non-increasing, got {self.gamma}")

    def _ell(self, ns, out=None):
        # ns ** -gamma as written: numpy takes a reciprocal for gamma = 1
        out = np.multiply(self.c, ns ** (-self.gamma), out=out)
        return np.minimum(out, CLAMP_MAX, out=out)

    def describe(self):
        return f"power:{self.c:g}:{self.gamma:g}"


@dataclass(frozen=True, repr=False)
class TableSequence(LengthSequence):
    """Explicit table of lengths; defined for 1 <= n <= len(values)."""

    values: tuple

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64)
        if vals.size == 0:
            raise ConfigError("lengths", "table sequence needs at least one value")
        if not np.all((vals > 0.0) & (vals < 1.0)):
            raise ConfigError("lengths", "table values must lie in (0, 1)")
        if np.any(np.diff(vals) > 0.0):
            raise ConfigError("lengths", "table values must be non-increasing")
        object.__setattr__(self, "values", tuple(float(v) for v in vals))
        # the values as one read-only array, which _ell takes from; not a
        # field, so equality, hash and repr read the tuple alone
        vals.flags.writeable = False
        object.__setattr__(self, "_array", vals)

    # pickled as the values alone, as a plain dataclass; the array is rebuilt
    def __getstate__(self):
        return {"values": self.values}

    def __setstate__(self, state):
        object.__setattr__(self, "values", state["values"])
        self.__post_init__()

    def _ell(self, ns, out=None):
        if np.any(ns > len(self.values)):
            raise ConfigError("lengths",
                              f"table sequence defined only up to n={len(self.values)}")
        return self._array.take(ns.astype(np.int64) - 1, out=out)

    def describe(self):
        return f"table[{len(self.values)}]"


@dataclass(frozen=True)
class Schedule:
    """Strictly increasing block boundaries n_1 < n_2 < ..., n_1 >= 2."""

    indices: tuple

    def __post_init__(self):
        for i in self.indices:
            check_integer("indices", i)
        idx = tuple(int(i) for i in self.indices)
        if len(idx) == 0:
            raise ConfigError("indices", "schedule needs at least one index")
        if idx[0] < 2:
            raise ConfigError("indices", "schedule must start at n_1 >= 2")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ConfigError("indices", "schedule indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    def __len__(self):
        return len(self.indices)


@dataclass(frozen=True, repr=False)
class BlockSequence(LengthSequence):
    """Blockwise-constant sequence: ell'(s) = base.ell(n_{k+1}) on (n_k, n_{k+1}].

    The convention n_0 = 0 makes the first block (0, n_1].  Beyond the last
    scheduled index the base sequence is used unchanged, which keeps
    ell'(s) <= ell(s) everywhere.
    """

    base: LengthSequence
    schedule: Schedule

    def _ell(self, ns, out=None):
        idx = np.asarray(self.schedule.indices, dtype=np.float64)
        pos = np.searchsorted(idx, ns, side="left")
        out = np.empty(ns.size, dtype=np.float64) if out is None else out
        inside = pos < idx.size
        out[inside] = self.base._ell(idx[pos[inside]])
        out[~inside] = self.base._ell(ns[~inside])
        return out

    def _partial_sums(self, ns):
        idx = np.asarray(self.schedule.indices, dtype=np.float64)
        ends = self.base._ell(idx)
        widths = np.diff(np.concatenate(([0.0], idx)))
        block_cum = np.concatenate(([0.0], np.cumsum(widths * ends)))
        pos = np.searchsorted(idx, ns, side="left")
        out = np.empty(ns.size, dtype=np.float64)
        inside = pos < idx.size
        p = pos[inside]
        prev_end = np.concatenate(([0.0], idx))[p]
        out[inside] = block_cum[p] + (ns[inside] - prev_end) * ends[p]
        if np.any(~inside):
            # beyond the schedule: closed form up to n_K, then term-by-term;
            # one pass sums the base prefix to n_K and to every n past it
            base = LengthSequence._partial_sums(
                self.base, np.concatenate(([idx[-1]], ns[~inside])))
            out[~inside] = block_cum[-1] + (base[1:] - base[0])
        return out

    def describe(self):
        return f"block({self.base.describe()}, K={len(self.schedule)})"


def block_sequence(base: LengthSequence, schedule: Schedule) -> BlockSequence:
    return BlockSequence(base, schedule)


def _log_sample(n_lo: int, n_hi: int, count: int) -> np.ndarray:
    grid = np.geomspace(n_lo, n_hi, num=count)
    grid = np.unique(np.round(grid).astype(np.int64))
    grid = grid[(grid >= n_lo) & (grid <= n_hi)]
    if grid.size == 0 or grid[0] != n_lo:
        grid = np.concatenate(([n_lo], grid))
    if grid[-1] != n_hi:
        grid = np.concatenate((grid, [n_hi]))
    return grid


def _check_n_range(n_range: tuple) -> tuple:
    """An estimator's (n_lo, n_hi) as Python ints: integers, 2 <= n_lo < n_hi."""
    n_lo, n_hi = n_range[0], n_range[1]
    check_integer("n_range", n_lo)
    check_integer("n_range", n_hi)
    if not (2 <= n_lo < n_hi):
        raise ConfigError("n_range", f"need 2 <= n_lo < n_hi, got {n_range}")
    return int(n_lo), int(n_hi)


def estimate_delta(rule: LengthSequence, n_range: tuple) -> float:
    """Minimum of n * ell(n) / ln n over 512 log-spaced samples of [n_lo, n_hi].

    A finite proxy for the liminf; exact for rules whose ratio is
    eventually monotone, since both endpoints are always sampled.
    """
    n_lo, n_hi = _check_n_range(n_range)
    grid = _log_sample(n_lo, n_hi, 512)
    ns = grid.astype(np.float64)
    ratios = ns * rule._ell(ns) / np.log(ns)
    return float(ratios.min())


def estimate_covering_exponent(rule: LengthSequence, n_range: tuple) -> float:
    """Maximum of (sum_{s<=N} ell(s)) / ln N over 64 log-spaced samples.

    A finite proxy for the limsup; the prefix sums are accumulated term by
    term (closed form for block sequences).  For block sequences the block
    boundaries inside the range are always included in the sample, because
    the ratio peaks at block ends.
    """
    n_lo, n_hi = _check_n_range(n_range)
    grid = _log_sample(n_lo, n_hi, 64)
    if isinstance(rule, BlockSequence):
        ends = np.asarray(rule.schedule.indices, dtype=np.int64)
        ends = ends[(ends >= n_lo) & (ends <= n_hi)]
        grid = np.unique(np.concatenate((grid, ends)))
    ns = grid.astype(np.float64)
    ratios = rule.partial_sums(ns) / np.log(ns)
    return float(np.max(ratios))


def choose_schedule(rule: LengthSequence, alpha: float, K: int) -> Schedule:
    """Greedy block schedule n_1 < ... < n_K for the block decomposition.

    Each n_k is the smallest admissible index satisfying, with margin
    2**-k:

      (a) n_{k-1} * ell(n_k)**alpha <= 2**-k, so the rare-block sum
          sum_k n_{k-1} * ell(n_k)**alpha stays below 1; and
      (b) when delta_hat > 0,
          (sum_{s<=n_{k-1}} ell'(s)) / ln n_k <= delta_hat + 2**-k,
          the dilution condition on the accumulated block mass.

    Raises ScheduleError naming the failing k if no index below
    SCHEDULE_CAP works.  delta_hat is estimate_delta over _DELTA_RANGE,
    which for a table ends at its last row if that comes first; a table
    needs 4 rows for the range, and one that ends before a block index
    the schedule needs is refused as `lengths`.
    """
    if not (0.0 < alpha < 1.0):
        raise ConfigError("alpha", f"must be in (0, 1), got {alpha}")
    check_integer("k", K)
    if K < 1:
        raise ConfigError("k", f"must be >= 1, got {K}")
    n_lo, n_hi = _DELTA_RANGE
    if isinstance(rule, TableSequence):
        rows = len(rule.values)
        if rows <= n_lo:
            raise ConfigError("lengths", f"a schedule needs a table of at least {n_lo + 1} "
                              f"rows, got {rows}")
        n_hi = min(n_hi, rows)
    delta_hat = estimate_delta(rule, (n_lo, n_hi))

    indices = []
    n_prev = 0
    accum = 0.0  # sum_{s <= n_prev} ell'(s) for the schedule built so far

    def admissible(n: int, k: int) -> bool:
        budget = 2.0 ** (-k)
        if n_prev * float(rule.ell(n)) ** alpha > budget:
            return False
        if delta_hat > 0.0 and accum / math.log(n) > delta_hat + budget:
            return False
        return True

    for k in range(1, K + 1):
        lo = max(n_prev + 1, 2)
        if admissible(lo, k):
            n_k = lo
        else:
            # gallop out to a power-of-two bracket, then bisect
            hi = lo
            while hi < SCHEDULE_CAP and not admissible(hi, k):
                hi = min(SCHEDULE_CAP, hi * 2)
            if not admissible(hi, k):
                raise ScheduleError(
                    f"no admissible n_{k} below cap {SCHEDULE_CAP:.0e} for "
                    f"{rule.describe()} (alpha={alpha:g}, margin 2^-{k}, "
                    f"accumulated block mass {accum:.3f})")
            bad, good = lo, hi
            while good - bad > 1:
                mid = (bad + good) // 2
                if admissible(mid, k):
                    good = mid
                else:
                    bad = mid
            n_k = good
        accum += (n_k - n_prev) * float(rule.ell(n_k))
        indices.append(n_k)
        n_prev = n_k
    return Schedule(tuple(indices))


def _rare_block_terms(rule: LengthSequence, schedule: Schedule, alpha: float) -> np.ndarray:
    """The terms n_{k-1} * ell(n_k)**alpha (n_0 = 0) of rare_block_sum."""
    idx = np.asarray(schedule.indices, dtype=np.float64)
    prev = np.concatenate(([0.0], idx[:-1]))
    return prev * rule._ell(idx) ** alpha


def rare_block_sum(rule: LengthSequence, schedule: Schedule, alpha: float) -> float:
    """Direct evaluation of sum_k n_{k-1} * ell(n_k)**alpha (n_0 = 0)."""
    return float(np.sum(_rare_block_terms(rule, schedule, alpha)))


# ---------------------------------------------------------------------------
# series diagnostics


@dataclass(frozen=True)
class SeriesResult:
    """Partial sums at log-spaced checkpoints plus a heuristic verdict.

    The verdict is a finite-sample heuristic, not a proof: `divergent`
    when the last decade still contributes at least 5% of the total or
    the terms decay no faster than 1/n; `convergent` when the last decade
    contributes at most 1% and the terms decay strictly faster than 1/n
    (log-log slope below -1.1); `inconclusive` otherwise.
    """

    checkpoints: np.ndarray
    partial_sums: np.ndarray
    log_partial_sums: np.ndarray
    verdict: str
    tail_fraction: float
    term_slope: float
    n_terms: int

    __eq__ = fields_equal

    def __repr__(self):
        return (f"SeriesResult(N={self.n_terms}, verdict={self.verdict!r}, "
                f"tail_fraction={self.tail_fraction:.3g}, "
                f"term_slope={self.term_slope:.3f})")


_TAIL_CONVERGENT = 1e-2
_TAIL_DIVERGENT = 5e-2
_SLOPE_TOL = 0.1


def _series_verdict(tail_fraction: float, term_slope: float) -> str:
    if tail_fraction >= _TAIL_DIVERGENT or term_slope >= -1.0 + _SLOPE_TOL:
        return "divergent"
    if tail_fraction <= _TAIL_CONVERGENT and term_slope <= -1.0 - _SLOPE_TOL:
        return "convergent"
    return "inconclusive"


def check_series_terms(N: int) -> None:
    """Refuse a series scan unless N is an integer in [10, MAX_TERMS]."""
    check_integer("n", N)
    if N < 10:
        raise ConfigError("n", f"series scan needs N >= 10, got {N}")
    if N > MAX_TERMS:
        raise ConfigError("n", f"series scan to N={N} is too large; at most {MAX_TERMS} terms")


def _check_covering(rule: LengthSequence, beta: float, d: float, N: int) -> None:
    """Refuse a covering series unless 0 < d < 1, 0 <= beta < inf, N passes
    check_series_terms, and ell(N), the shortest length summed, is > 0 and
    keeps -beta * log(ell) finite, and so every term's."""
    if not (0.0 < d < 1.0):
        raise ConfigError("d", f"must be in (0, 1), got {d}")
    if not 0.0 <= beta < math.inf:
        raise ConfigError("beta", f"must be finite and >= 0, got {beta}")
    check_series_terms(N)
    with np.errstate(over="ignore"):
        top = np.log(rule.ell(N)) * -beta
    if not np.isfinite(top):
        raise ConfigError("beta", f"{beta:g} overflows the log of the covering term, "
                          f"-beta * log(ell(N)), at N = {N}")


def _walk(rule, N, beta, d, kind, starts, marks, fit_ns) -> tuple:
    """Advance the logaddexp chains of the series `kind` over every chunk,
    one chunk per entry of `starts`, and return (at_marks, fit_logs,
    totals): each mark's chain where it reads it, the term at each fit
    point and each chunk's final chain.

    Each chunk is a column, walked by row offset in blocks that hold at
    most min(_SUB, _CHUNK) terms, or one row.  A logaddexp.reduce down a
    block's rows, with the chains so far on the row above them, advances
    every chain at once: the adds of one accumulate per chunk, chain by
    chain.  The reduce stops at each row a mark reads.  A block ends where
    the short last chunk does, which then leaves the columns.  Shepp's
    length prefix is a cumsum down the rows, from the chunk's entry in
    `starts`.
    """
    at_marks, fit_logs = np.empty(marks.size), np.empty(fit_ns.size)
    first = np.arange(starts.size, dtype=np.float64) * _CHUNK
    size = np.minimum(N - first, _CHUNK).astype(np.int64)
    mark_j, mark_row = np.divmod(marks - 1, _CHUNK)
    fit_j, fit_row = np.divmod(fit_ns - 1, _CHUNK)
    rows = max(1, min(_SUB, _CHUNK) // starts.size)
    chain = np.full(starts.size, -np.inf)
    prefix = starts.copy()
    # one set of arrays for every block: fresh ones for each block cost a
    # page fault per 4 KiB
    ns_buf, ell_buf, spare_buf = np.empty((3, rows * starts.size))
    block_buf = np.empty((rows + 1) * starts.size)
    cuts = np.unique(np.concatenate((np.arange(rows, size[0], rows), size))).tolist()
    for a, b in zip([0] + cuts, cuts):
        r, k = b - a, int(np.count_nonzero(size >= b))
        ns = np.add.outer(np.arange(a + 1, b + 1, dtype=np.float64), first[:k],
                          out=ns_buf[:r * k].reshape(r, k))
        ell = rule._ell(ns.reshape(-1), out=ell_buf[:r * k]).reshape(r, k)
        # row 0 takes the chains
        block = block_buf[:(r + 1) * k].reshape(r + 1, k)
        terms, spare = block[1:], spare_buf[:r * k].reshape(r, k)
        if kind == "covering":
            # -beta * log(ell) - ns * d * ell
            np.multiply(ns, d, out=terms)
            terms *= ell
            np.log(ell, out=spare)
            spare *= -beta
            np.subtract(spare, terms, out=terms)
        else:
            ell[0] += prefix[:k]
            np.cumsum(ell, axis=0, out=terms)
            prefix[:k] = terms[-1]
            np.log(ns, out=spare)
            spare *= 2.0
            terms -= spare
        here = (fit_j < k) & (fit_row >= a) & (fit_row < b)
        fit_logs[here] = block[1 + fit_row[here] - a, fit_j[here]]
        here = (mark_j < k) & (mark_row >= a) & (mark_row < b)
        top = 0
        for end in sorted(set((mark_row[here] - a + 1).tolist()) | {r}):
            # the row above the rows to reduce holds the chains so far
            block[top] = chain[:k]
            chain[:k] = np.logaddexp.reduce(block[top:end + 1], axis=0)
            read = here & (mark_row == a + end - 1)
            at_marks[read] = chain[mark_j[read]]
            top = end
    return at_marks, fit_logs, chain


def _judge(marks, log_sums, fit_ns, fit_logs, N: int) -> SeriesResult:
    """The series' result from its partial sums at the marks and its terms
    at the fit points: the tail judged over the last decade [N/10, N]."""
    i_lo = int(np.searchsorted(marks, fit_ns[0]))
    i_lo = min(i_lo, marks.size - 2)
    # 0.0 - x, not -x: a last decade that adds nothing reads +0, not -0
    tail_fraction = float(0.0 - np.expm1(log_sums[i_lo] - log_sums[-1]))
    good = np.isfinite(fit_logs)
    if good.sum() >= 2:
        x, y = np.log(fit_ns[good]), fit_logs[good]
        slope = float(np.polyfit(x, y, 1)[0])
        if not math.isfinite(slope):
            # the least squares overflow on logs near 1e308: fit the logs
            # scaled by a power of two, which is exact, and scale back
            e = int(np.frexp(np.max(np.abs(y)))[1])
            slope = float(np.ldexp(np.polyfit(x, np.ldexp(y, -e), 1)[0], e))
    else:
        slope = -math.inf  # tail terms underflow: decisively summable
    verdict = _series_verdict(tail_fraction, slope)
    with np.errstate(over="ignore"):
        sums = np.exp(log_sums)
    return SeriesResult(
        checkpoints=marks,
        partial_sums=sums,
        log_partial_sums=log_sums,
        verdict=verdict,
        tail_fraction=tail_fraction,
        term_slope=slope,
        n_terms=int(N),
    )


def _sum_series(rule: LengthSequence, N: int, beta: float, d: float, kinds: tuple) -> list:
    """The SeriesResult of each series in `kinds` ("covering", "shepp"), in
    order: every term 1..N summed in log space, the partial sums read at 80
    log-spaced marks of [1, N] and the terms at 40 fit points of the last
    decade.

    Each _CHUNK run of terms is one logaddexp chain; the chunk totals fold
    into the sum in chunk order, and a mark reads the fold of the chunks
    before its own and its chain.  Each series is one walk over every
    chunk.  With two, the covering walk goes to a second thread first, and
    the calling thread sums the Shepp prefix at the chunk starts while it
    runs, then walks Shepp.
    """
    n_chunks = -(-N // _CHUNK)
    marks = _log_sample(1, N, 80)
    fit_ns = _log_sample(max(2, N // 10), N, 40)
    mark_j = (marks - 1) // _CHUNK

    def walk(kind):
        starts = np.zeros(n_chunks)
        if kind == "shepp":
            # the base-class sum is term by term, as the walk's, for a block sequence too
            starts[1:] = LengthSequence._partial_sums(rule, np.arange(1, n_chunks) * float(_CHUNK))
        at_marks, fit_logs, totals = _walk(rule, N, beta, d, kind, starts, marks, fit_ns)
        log_sums = np.empty(marks.size)
        running = -np.inf  # the log of the sum over the chunks before j
        for j in range(n_chunks):
            here = mark_j == j
            log_sums[here] = np.logaddexp(running, at_marks[here])
            running = np.logaddexp(running, totals[j])
        return _judge(marks, log_sums, fit_ns, fit_logs, N)

    with ThreadPoolExecutor(1) if len(kinds) > 1 else contextlib.nullcontext() as pool:
        later = [pool.submit(walk, kind) for kind in kinds[:-1]]
        last = walk(kinds[-1])
        return [job.result() for job in later] + [last]


def covering_series(rule: LengthSequence, beta: float, d: float, N: int) -> SeriesResult:
    """Partial sums of sum_n (1/ell_n)**beta * exp(-n d ell_n).

    Convergence of this series (for a target whose eps-covering number is
    at most eps**-beta and some d in (0, 1)) is the sufficient condition
    for almost-sure eventual covering.  For ell_n = c ln n / n the terms
    are ~ n**(beta - c d) / (c ln n)**beta, so the series converges
    exactly when c d - beta > 1.
    """
    _check_covering(rule, beta, d, N)
    return _sum_series(rule, N, beta, d, ("covering",))[0]


def shepp_series(rule: LengthSequence, N: int) -> SeriesResult:
    """Partial sums of the classical criterion sum_n n**-2 exp(ell_1+...+ell_n).

    Divergence characterizes almost-sure covering of the full circle in
    the classical (fixed-radius-per-arc) model: harmonic c > 1 diverges
    (covering), c < 1 converges (non-covering), c = 1 diverges.
    Terms are handled in log space since exp(prefix) overflows quickly.
    The prefix ell_1 + ... + ell_n adds one term after another, as one
    cumsum over 1..N would, while memory stays flat in N.
    """
    check_series_terms(N)
    rule.ell(N)  # the shortest length summed: refuses one that reaches 0
    return _sum_series(rule, N, 0.0, 0.0, ("shepp",))[0]


def both_series(rule: LengthSequence, beta: float, d: float, N: int) -> tuple:
    """(covering_series(rule, beta, d, N), shepp_series(rule, N)), bit for
    bit, from two walks side by side: the covering walk on a second thread,
    the Shepp prefix and walk on the calling one.

    Every refusal of either call comes first, before a thread starts.
    """
    _check_covering(rule, beta, d, N)
    return tuple(_sum_series(rule, N, beta, d, ("covering", "shepp")))


def parse_lengths(spec: str) -> LengthSequence:
    """Parse a length-rule string.

    Accepted forms:
      logn:<c>        ell(n) = c ln(n)/n
      harmonic:<c>    ell(n) = c/n
      power:<c>:<gamma>
      table:<file.csv>  one length per line, non-increasing, in (0, 1)
    """
    head, _, rest = spec.partition(":")
    try:
        if head == "logn":
            return LogOverN(float(rest))
        if head == "harmonic":
            return Harmonic(float(rest))
        if head == "power":
            c_str, _, g_str = rest.partition(":")
            return PowerLaw(float(c_str), float(g_str))
        if head == "table":
            # an empty file is refused below, as a table without values,
            # not with numpy's warning about it
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                        UserWarning)
                values = np.loadtxt(rest, delimiter=",", ndmin=1)
            return TableSequence(tuple(np.atleast_1d(values).ravel()))
    except ConfigError:
        raise
    except (OSError, ValueError) as exc:
        raise ConfigError("lengths", f"cannot parse {spec!r}: {exc}") from exc
    raise ConfigError("lengths", f"unknown rule {spec!r}")
