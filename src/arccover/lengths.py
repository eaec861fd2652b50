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

Term-by-term sums run over chunks of _CHUNK consecutive indices, so their
memory does not grow with N.  The series walk each chunk in cache-sized
sub-blocks of _SUB indices, calling their `log_terms` once per sub-block,
in order; the Shepp length prefix is carried from one sub-block to the
next.  Each sum refuses N > MAX_TERMS before it allocates anything.

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_integer, fields_equal

CLAMP_MAX = 1.0 - 1e-9
MAX_EXACT_N = 2 ** 53  # beyond this, integer indices are not float-exact
MAX_TERMS = 100_000_000  # largest N summed term by term (prefix sums, series)
_CHUNK = 1_000_000  # the series' logaddexp sums depend on it; keep it fixed
_SUB = _CHUNK // 16  # a series sub-block: the same sums, in cache-sized pieces
SCHEDULE_CAP = 10 ** 15  # choose_schedule looks for block ends below this
_DELTA_RANGE = (3, 10 ** 6)  # the range choose_schedule estimates delta over


class ScheduleError(RuntimeError):
    """Raised when no admissible schedule index exists below SCHEDULE_CAP."""


class LengthSequence:
    """Base class: a rule n -> ell(n), vectorized over integer arrays."""

    def ell(self, n):
        ns, scalar = _as_index_array(n, "n")
        out = self._ell(ns)
        return float(out[0]) if scalar else out

    def _ell(self, ns: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def partial_sums(self, ns) -> np.ndarray:
        """Exact prefix sums sum_{s<=n} ell(s) at the given sorted indices."""
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
        sums = np.empty(ns.size, dtype=np.float64)
        total = 0.0
        filled = 0
        for start, stop, chunk_ns in _index_chunks(top, _CHUNK):
            csum = np.cumsum(self._ell(chunk_ns))
            while filled < ns.size and ns[filled] <= stop:
                sums[filled] = total + csum[int(ns[filled]) - start]
                filled += 1
            total += float(csum[-1])
        return sums

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.describe()})"


def _index_chunks(top: int, size: int):
    """Yield (start, stop, ns) over 1..top in runs of at most `size` indices."""
    for start in range(1, top + 1, size):
        stop = min(start + size - 1, top)
        yield start, stop, np.arange(start, stop + 1, dtype=np.float64)


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

    def _ell(self, ns):
        m = np.maximum(ns, 2.0)
        # a huge c overflows to inf, which the clamp takes to CLAMP_MAX
        with np.errstate(over="ignore"):
            return np.minimum(self.c * np.log(m) / m, CLAMP_MAX)

    def describe(self):
        return f"logn:{self.c:g}"


@dataclass(frozen=True, repr=False)
class Harmonic(LengthSequence):
    """ell(n) = c / n, clamped below 1 so c >= 1 is usable."""

    c: float

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ConfigError("lengths", f"harmonic rule needs a finite c > 0, got {self.c}")

    def _ell(self, ns):
        return np.minimum(self.c / ns, CLAMP_MAX)

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

    def _ell(self, ns):
        return np.minimum(self.c * ns ** (-self.gamma), CLAMP_MAX)

    def describe(self):
        return f"power:{self.c:g}:{self.gamma:g}"


@dataclass(frozen=True, repr=False)
class TableSequence(LengthSequence):
    """Explicit table of lengths; defined for 1 <= n <= len(values)."""

    values: tuple

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.size == 0:
            raise ConfigError("lengths", "table sequence needs at least one value")
        if not np.all((vals > 0.0) & (vals < 1.0)):
            raise ConfigError("lengths", "table values must lie in (0, 1)")
        if np.any(np.diff(vals) > 0.0):
            raise ConfigError("lengths", "table values must be non-increasing")
        object.__setattr__(self, "values", tuple(float(v) for v in vals))

    def _ell(self, ns):
        if np.any(ns > len(self.values)):
            raise ConfigError("lengths",
                              f"table sequence defined only up to n={len(self.values)}")
        vals = np.asarray(self.values)
        return vals[ns.astype(np.int64) - 1]

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

    def _ell(self, ns):
        idx = np.asarray(self.schedule.indices, dtype=np.float64)
        pos = np.searchsorted(idx, ns, side="left")
        out = np.empty(ns.size, dtype=np.float64)
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


def check_covering_params(beta: float, d: float) -> None:
    """Refuse covering-series parameters unless 0 < d < 1 and 0 <= beta < inf."""
    if not (0.0 < d < 1.0):
        raise ConfigError("d", f"must be in (0, 1), got {d}")
    if not 0.0 <= beta < math.inf:
        raise ConfigError("beta", f"must be finite and >= 0, got {beta}")


def _scan_series(log_terms, N: int) -> SeriesResult:
    """Accumulate every term 1..N in log space; judge the tail.

    `log_terms(ns)` returns the log of the terms at ns, a float64 run of
    consecutive indices, as a new array that it does not keep.  It is
    called exactly once per sub-block of min(_SUB, _CHUNK) indices (the
    last may be shorter), in increasing order and never again afterwards,
    so it may carry state from one sub-block to the next.  The partial
    sums at up to 80 log-spaced checkpoints of [1, N] and the 40 tail-fit
    terms are read off that single pass.

    The sums are those of one `logaddexp.accumulate` per _CHUNK run,
    folded into the total at each chunk end.  A sub-block never straddles
    a chunk break, and one that does not start a chunk has its first term
    seeded with the chunk's running value: that is the very operation the
    chunk-long accumulate performs there, so the sub-blocks change the
    memory held, not the bytes.
    """
    check_series_terms(N)
    step = min(_SUB, _CHUNK)
    assert _CHUNK % step == 0, "a sub-block must not straddle a chunk break"
    marks = _log_sample(1, N, 80)
    n_tail_lo = max(2, N // 10)
    fit_ns = _log_sample(n_tail_lo, N, 40)
    fit_logs = np.empty(fit_ns.size, dtype=np.float64)
    log_sums = np.empty(marks.size, dtype=np.float64)
    running = -math.inf  # log of the sum over the finished chunks
    acc = -math.inf  # log of the sum so far within the current chunk
    filled = 0
    for start, stop, ns in _index_chunks(N, step):
        logs = log_terms(ns)
        here = (fit_ns >= start) & (fit_ns <= stop)
        fit_logs[here] = logs[fit_ns[here] - start]
        if (start - 1) % _CHUNK:
            logs[0] = np.logaddexp(acc, logs[0])
        csum = np.logaddexp.accumulate(logs)
        while filled < marks.size and marks[filled] <= stop:
            log_sums[filled] = np.logaddexp(running, csum[int(marks[filled]) - start])
            filled += 1
        acc = float(csum[-1])
        if stop % _CHUNK == 0 or stop == N:
            running = float(np.logaddexp(running, acc))

    # tail diagnostics over the last decade [N/10, N]
    i_lo = int(np.searchsorted(marks, n_tail_lo))
    i_lo = min(i_lo, marks.size - 2)
    tail_fraction = float(-np.expm1(log_sums[i_lo] - log_sums[-1]))
    good = np.isfinite(fit_logs)
    if good.sum() >= 2:
        slope = float(np.polyfit(np.log(fit_ns[good]), fit_logs[good], 1)[0])
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


def covering_series(rule: LengthSequence, beta: float, d: float, N: int) -> SeriesResult:
    """Partial sums of sum_n (1/ell_n)**beta * exp(-n d ell_n).

    Convergence of this series (for a target whose eps-covering number is
    at most eps**-beta and some d in (0, 1)) is the sufficient condition
    for almost-sure eventual covering.  For ell_n = c ln n / n the terms
    are ~ n**(beta - c d) / (c ln n)**beta, so the series converges
    exactly when c d - beta > 1.
    """
    check_covering_params(beta, d)

    def log_term(ns):
        ell = rule._ell(ns)
        return -beta * np.log(ell) - ns * d * ell

    return _scan_series(log_term, N)


def shepp_series(rule: LengthSequence, N: int) -> SeriesResult:
    """Partial sums of the classical criterion sum_n n**-2 exp(ell_1+...+ell_n).

    Divergence characterizes almost-sure covering of the full circle in
    the classical (fixed-radius-per-arc) model: harmonic c > 1 diverges
    (covering), c < 1 converges (non-covering), c = 1 diverges.
    Terms are handled in log space since exp(prefix) overflows quickly.
    The prefix ell_1 + ... + ell_n is built one sub-block at a time, each
    a cumulative sum started from the previous sub-block's last value, so
    memory stays flat in N and the sums are bitwise those of one cumsum
    over 1..N.
    """
    carry = 0.0  # ell_1 + ... + ell_{start-1} before each sub-block

    def log_terms(ns):
        nonlocal carry
        prefix = np.cumsum(np.concatenate(([carry], rule._ell(ns))))[1:]
        carry = float(prefix[-1])
        return prefix - 2.0 * np.log(ns)

    return _scan_series(log_terms, N)


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
            values = np.loadtxt(rest, delimiter=",", ndmin=1)
            return TableSequence(tuple(np.atleast_1d(values).ravel()))
    except ConfigError:
        raise
    except (OSError, ValueError) as exc:
        raise ConfigError("lengths", f"cannot parse {spec!r}: {exc}") from exc
    raise ConfigError("lengths", f"unknown rule {spec!r}")
