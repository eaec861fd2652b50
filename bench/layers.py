"""The arccover layers the benchmark traces, and the metrics built from them.

A span name is `<defining module>.<function>`.  A metric that reads only
spans of functions the package no longer defines is reported as absent,
so the trace keeps working when a later change removes a function.
"""

from __future__ import annotations

import pickle
import statistics
from collections import Counter

from tracer import self_times

MODULES = ("arccover", "arccover.torus", "arccover.targets", "arccover.lengths",
           "arccover.simulate", "arccover.analyze", "arccover.cli")

# Private functions traced besides the public ones: the trial kernel that
# every public entry point reaches, and the units analyze hands to its pool.
PRIVATE = ("_run_trial_impl", "_scan_cell", "_dims_cell")

# Spans whose self time is the trial kernel's own work (today the upkeep of
# the sorted prefix of centers).  The root span of each pool cell counts too.
KERNEL = ("simulate.run_trial", "simulate._run_trial_impl",
          "simulate.tail_uncovered", "analyze.run_trial_with_tail")


def _pieces(u) -> int:
    return int(u.los.size + u.points.size)


def _pickle_bytes(obj) -> int:
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


COUNTERS = {
    "simulate.sample_centers": (("simulate.centers_sampled", lambda r: int(r.size)),),
    "simulate.uncovered_at": (("simulate.gap_pieces", _pieces),),
    "torus.intersect": (("torus.residue_pieces", _pieces),),
    "lengths.covering_series": (("lengths.series_terms", lambda r: int(r.n_terms)),),
    "lengths.shepp_series": (("lengths.series_terms", lambda r: int(r.n_terms)),),
    "targets.parse_target": (("targets.target_pieces", lambda t: _pieces(t.approx)),
                             ("targets.target_pickle_bytes", _pickle_bytes)),
}

# name, unit, kind, source.  The kind says how the value is derived:
#   inclusive  summed duration of the span `source`
#   calls      number of calls of the span `source`
#   self       summed self time of the span `source`
#   kernel     self time of the KERNEL spans and of every pool cell
#   counted    the COUNTERS metric of that name
#   pool       the tracer's pickle count `source`
#   cells, idle, p50, p90   pool cells per call, idle share, cell percentiles
#   run        set by run.py from the whole call
# Times are seconds summed over the parent and workers.
PER_LAYER = (
    ("simulate.kernel_self_s", "s", "kernel", None),
    ("simulate.uncovered_at_s", "s", "inclusive", "simulate.uncovered_at"),
    ("simulate.decisions", "count", "calls", "simulate.uncovered_at"),
    ("simulate.gap_pieces", "count", "counted", None),
    ("simulate.sample_centers_s", "s", "inclusive", "simulate.sample_centers"),
    ("simulate.centers_sampled", "count", "counted", None),
    ("torus.intersect_s", "s", "inclusive", "torus.intersect"),
    ("torus.intersect_calls", "count", "calls", "torus.intersect"),
    ("torus.residue_pieces", "count", "counted", None),
    ("torus.union_s", "s", "inclusive", "torus.union"),
    ("torus.measure_s", "s", "inclusive", "torus.measure"),
    ("analyze.cells", "count", "cells", None),
    ("analyze.cell_p50_s", "s", "p50", None),
    ("analyze.cell_p90_s", "s", "p90", None),
    ("analyze.pool_bytes_sent", "B", "pool", "bytes_sent"),
    ("analyze.pool_bytes_received", "B", "pool", "bytes_received"),
    ("analyze.pool_messages", "count", "pool", "messages"),
    ("analyze.pool_idle_frac", "frac", "idle", None),
    ("analyze.box_dimension_s", "s", "inclusive", "analyze.box_dimension"),
    ("lengths.covering_series_s", "s", "inclusive", "lengths.covering_series"),
    ("lengths.shepp_series_s", "s", "inclusive", "lengths.shepp_series"),
    ("lengths.series_terms", "count", "counted", None),
    ("targets.parse_target_s", "s", "inclusive", "targets.parse_target"),
    ("targets.target_pieces", "count", "counted", None),
    ("targets.target_pickle_bytes", "B", "counted", None),
    ("cli.self_s", "s", "self", "cli.main"),
    ("cli.output_bytes", "B", "run", None),
    ("trace_overhead_frac", "frac", "run", None),
)

# a percentile is reported only with at least this many samples beyond it,
# so p90 needs this many pooled cells
_TAIL_SAMPLES = 10
P90_CELLS = 10 * _TAIL_SAMPLES


def spans_read(name: str, kind: str, source) -> tuple:
    """The spans a metric reads.  It is absent when none of them is traced;
    with none (empty), it is always present."""
    if kind == "kernel":
        return KERNEL
    if kind in ("inclusive", "calls", "self"):
        return (source,)
    if kind == "counted":
        return tuple(span for span, hooks in COUNTERS.items()
                     if any(metric == name for metric, _ in hooks))
    return ()


def invocation_values(spans, counts, pool, main_pid):
    """Per-layer values of one CLI invocation, and its cell durations.

    A cell is the outermost span of a pool worker: one unit of work the
    parent handed to the pool.
    """
    selfs = self_times(spans)
    inclusive, calls, own = Counter(), Counter(), Counter()
    for s in spans:
        inclusive[s.name] += s.t1 - s.t0
        calls[s.name] += 1
        own[s.name] += selfs[(s.pid, s.sid)]
    cells = [s for s in spans if s.pid != main_pid and s.parent is None]
    kernel = {(s.pid, s.sid) for s in spans if s.name in KERNEL} | {(s.pid, s.sid) for s in cells}
    values = {}
    for name, _unit, kind, source in PER_LAYER:
        if kind == "inclusive":
            values[name] = inclusive[source]
        elif kind == "calls":
            values[name] = calls[source]
        elif kind == "self":
            values[name] = own[source]
        elif kind == "kernel":
            values[name] = sum(selfs[key] for key in kernel)
        elif kind == "counted":
            values[name] = counts.get(name, 0)
        elif kind == "pool":
            values[name] = pool.get(source, 0)
        elif kind == "cells":
            values[name] = len(cells)
        elif kind == "idle" and cells:
            busy = sum(s.t1 - s.t0 for s in cells)
            window = max(s.t1 for s in cells) - min(s.t0 for s in cells)
            workers = len({s.pid for s in cells})
            values[name] = 1.0 - busy / (workers * window)
    return values, [s.t1 - s.t0 for s in cells]


def summarize(invocations, traced_names):
    """Median of each metric over the traced invocations, cell percentiles
    over all their cells; metrics whose spans are all gone are dropped.

    `invocations` holds the (values, cell durations) pairs that
    `invocation_values` returns.
    """
    out = {}
    cells = [d for _, durations in invocations for d in durations]
    for name, _unit, kind, source in PER_LAYER:
        reads = spans_read(name, kind, source)
        if reads and not traced_names.intersection(reads):
            continue
        if kind == "p50":
            if cells:
                out[name] = statistics.median(cells)
        elif kind == "p90":
            if len(cells) >= P90_CELLS:
                out[name] = statistics.quantiles(cells, n=10)[-1]
        else:
            samples = [values[name] for values, _ in invocations if name in values]
            if samples:
                out[name] = statistics.median(samples)
    return out
